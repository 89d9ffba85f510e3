"""Traced replay: a workload's exact inputs, one layer call at a time.

Run as a child process by ``run.py --trace 1`` (it owns a process-pool
service, so it lives in its own session and is reaped as one)::

    python3 moqbench/replay.py --workload W --seed N --seconds S --spans FILE

Each distinct request of the run goes once through an untraced inline
``submit`` (the baseline of the tracing overhead), then at once through spans
recorded by this file around ``parse_optimize_body``,
``OptimizationRequest.fingerprint``, an uncached and a cached ``submit``
on an inline service, ``result_to_dict`` + ``json.dumps``, and an
uncached and a cached ``submit`` on a processes service. Spans stay in
memory and are written as JSON lines at the end. The last line of
standard output is a JSON object with the per-layer metrics and the
check results.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import time
from contextlib import contextmanager

from repro import OptimizerService, tpch_schema
from repro.plans.serialize import result_to_dict
from repro.serving.protocol import parse_optimize_body

import checks
import inputs
from serve_load import worker_count

PHASES = (
    ("dp.enumerate_ms", "enumerate"),
    ("cost.kernel_ms", "kernel"),
    ("pruning.prune_ms", "prune"),
    ("dp.materialize_ms", "materialize"),
)


class Spans:
    """In-memory span recorder: name, start, duration, parent, trace id."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.trace = 0
        self._stack: list[dict] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"trace": self.trace, "span": self._next_id,
                  "parent": self._stack[-1]["span"] if self._stack else None,
                  "name": name, "attrs": attrs, "child_ns": 0}
        self._next_id += 1
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["dur_ns"] = time.perf_counter_ns() - record["start_ns"]
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_ns"] += record["dur_ns"]
            self.records.append(record)

    def durations(self, name: str, **attrs) -> list[float]:
        """Durations (s) of the spans with this name and attributes."""
        return [r["dur_ns"] / 1e9 for r in self.records
                if r["name"] == name and all(r["attrs"].get(k) == v for k, v in attrs.items())]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records:
                child_ns = record.pop("child_ns")
                record["self_ns"] = record["dur_ns"] - child_ns
                handle.write(json.dumps(record) + "\n")


def replay_inputs(workload: str, seed: int, seconds: float) -> list[tuple[str, str, object]]:
    """(label, kind, request) for each distinct request of the run."""
    if workload == "exa-frontier":
        return [(c.label, "exa", c.request) for c in inputs.exa_cases(seed)]
    if workload == "rta-many-objectives":
        return [(c.label, "rta", c.request) for c in inputs.rta_cases(seed)]
    _, items = inputs.open_loop_items(seed, seconds)
    distinct = {}
    for item in items:
        distinct.setdefault(item.body, (item.label, item.kind, item.request))
    return list(distinct.values())


def verify(workload, kinds, outcomes) -> list[list[str]]:
    if workload == "rta-many-objectives":
        return checks.wcost_ratios(outcomes)[1]
    expected = checks.load_expected()
    problems = []
    for kind, outcome in zip(kinds, outcomes):
        problems.append(
            checks.check_exa(outcome, expected) if kind == "exa"
            else checks.check_against_optimum(outcome, expected)[1]
        )
    return problems


def replay(workload: str, seed: int, seconds: float, spans: Spans) -> dict:
    requests = replay_inputs(workload, seed, seconds)
    schema = tpch_schema()
    warmup = inputs.warmup_request()

    baseline = OptimizerService(schema, inputs.CONFIG, backend="inline", cache_size=0)
    inline = OptimizerService(schema, inputs.CONFIG, backend="inline")
    baseline.submit(warmup)
    inline.submit(warmup)
    untraced_s, outcomes, kinds = [], [], []
    results, pooled_results, ipc_bytes, response_bytes = [], [], [], []
    with OptimizerService(schema, inputs.CONFIG, backend="processes",
                          workers=worker_count()) as pooled:
        pooled.submit(warmup)  # starts the worker pool
        for index, (label, kind, request) in enumerate(requests):
            began = time.perf_counter()
            untraced = baseline.submit(request)
            untraced_s.append(time.perf_counter() - began)
            spans.trace = index
            body = inputs.encode(request)
            with spans.span("request", label=label):
                with spans.span("serving.parse"):
                    parsed = parse_optimize_body(body)
                with spans.span("service.fingerprint"):
                    parsed.fingerprint(inputs.CONFIG)
                with spans.span("service.submit", cache="miss"):
                    result = inline.submit(parsed)
                with spans.span("service.submit", cache="hit"):
                    inline.submit(parsed)
                with spans.span("serialize.encode"):
                    payload = json.dumps(result_to_dict(result)).encode("utf-8")
                with spans.span("pool.submit", cache="miss"):
                    pooled_result = pooled.submit(parsed)
                with spans.span("pool.submit", cache="hit"):
                    pooled.submit(parsed)
            results.append(result)
            pooled_results.append(pooled_result)
            response_bytes.append(len(payload))
            ipc_bytes.append(len(pickle.dumps(parsed)) + len(pickle.dumps(pooled_result)))
            for source in (untraced, result, pooled_result):
                outcomes.append(checks.Outcome.of_result(label, source))
                kinds.append(kind)

    problems = verify(workload, kinds, outcomes)
    repeat_problems = checks.check_repeats(outcomes)
    if repeat_problems:
        problems.append(repeat_problems)

    candidates = sum(r.plans_considered for r in results)
    frontier_plans = sum(len(r.frontier) for r in results)
    miss_s = spans.durations("service.submit", cache="miss")
    pool_miss_s = spans.durations("pool.submit", cache="miss")
    metrics = {
        name: (sum(r.phase_ms.get(phase, 0.0) for r in results), "ms")
        for name, phase in PHASES
    }
    metrics.update({
        "dp.candidates": (candidates, "count"),
        "dp.vectorized_ratio": (sum(r.candidates_vectorized for r in results) / candidates, "ratio"),
        "dp.memory_kb": (max(r.memory_kb for r in results), "kB"),
        "pruning.frontier_plans": (frontier_plans, "count"),
        "pruning.survivor_ratio": (frontier_plans / candidates, "ratio"),
        "service.overhead_ms": (statistics.fmean(
            t * 1e3 - r.optimization_time_ms for t, r in zip(miss_s, results)), "ms"),
        "service.cache_hit_us": (statistics.fmean(spans.durations("service.submit", cache="hit")) * 1e6, "us"),
        "service.fingerprint_us": (statistics.fmean(spans.durations("service.fingerprint")) * 1e6, "us"),
        "serving.parse_us": (statistics.fmean(spans.durations("serving.parse")) * 1e6, "us"),
        "serialize.encode_us": (statistics.fmean(spans.durations("serialize.encode")) * 1e6, "us"),
        "serialize.response_bytes": (statistics.fmean(response_bytes), "bytes"),
        "pool.roundtrip_overhead_ms": (statistics.fmean(
            t * 1e3 - r.optimization_time_ms for t, r in zip(pool_miss_s, pooled_results)), "ms"),
        "pool.ipc_bytes": (statistics.fmean(ipc_bytes), "bytes"),
        "obs.trace_overhead_ratio": (sum(miss_s) / sum(untraced_s), "ratio"),
    })
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for issues in problems if issues),
        "problems": [p for issues in problems for p in issues],
        "requests": len(requests),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True, help="JSON-lines output file")
    args = parser.parse_args()
    spans = Spans()
    report = replay(args.workload, args.seed, args.seconds, spans)
    spans.write(args.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
