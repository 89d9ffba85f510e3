"""Closed-loop workloads: one caller submitting a fixed mix back to back.

``exa-frontier`` and ``rta-many-objectives`` both time
``OptimizerService(backend="inline", cache_size=0).submit`` in passes
over their mix until the run's time is used, then check every answer.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import statistics
import subprocess
import time

from repro import OptimizerService, tpch_schema

import checks
from inputs import CONFIG, Case, warmup_request
from procs import PYTHON, Children, read_until

HERE = os.path.dirname(os.path.abspath(__file__))


def setup(children: Children, env: dict, root: str, setups: int) -> float:
    """Median seconds from spawn to a ready in-process service (probe.py)."""
    ready = []
    for _ in range(setups):
        began = time.perf_counter()
        proc = children.spawn([PYTHON, os.path.join(HERE, "probe.py")], cwd=root,
                              env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        read_until(proc, rb"ready\n", 120.0)
        ready.append(time.perf_counter() - began)
        children.stop(proc)
    return statistics.median(ready)


#: A request is repeated (up to MAX_REPEATS runs) until a visit has
#: taken this long, so the cheap end of a mix is not measured from one
#: or two samples while a slow request takes up most of the run.
VISIT_S = 0.5
MAX_REPEATS = 5


def measure(cases: list[Case], seconds: float) -> tuple[dict[str, list[float]], list[checks.Outcome]]:
    """Submit the mix in passes until ``seconds`` are used.

    The first pass always completes. Each visit to a request runs it
    until the visit has taken :data:`VISIT_S` (at least once, at most
    :data:`MAX_REPEATS` times). Returns per-label wall times (s) and
    outcomes.
    """
    service = OptimizerService(tpch_schema(), CONFIG, backend="inline", cache_size=0)
    service.submit(warmup_request())
    times: dict[str, list[float]] = {case.label: [] for case in cases}
    outcomes = []
    start = time.perf_counter()
    for position in itertools.count():
        case = cases[position % len(cases)]
        if position >= len(cases) and time.perf_counter() - start >= seconds:
            return times, outcomes
        visit = time.perf_counter()
        for _ in range(MAX_REPEATS):
            began = time.perf_counter()
            result = service.submit(case.request)
            ended = time.perf_counter()
            times[case.label].append(ended - began)
            outcomes.append(checks.Outcome.of_result(case.label, result))
            if ended - visit >= VISIT_S:
                break


def verify(workload: str, outcomes: list[checks.Outcome]) -> tuple[list[float], list[list[str]]]:
    """Per-answer W-Cost ratios and problems."""
    if workload == "exa-frontier":
        expected = checks.load_expected()
        ratios, problems = [], []
        for outcome in outcomes:
            ratios.append(checks.check_against_optimum(outcome, expected)[0])
            problems.append(checks.check_exa(outcome, expected))
    else:
        ratios, problems = checks.wcost_ratios(outcomes)
    repeat_problems = checks.check_repeats(outcomes)
    if repeat_problems:
        problems[-1] = problems[-1] + repeat_problems
    return ratios, problems


def run(workload: str, cases: list[Case], seconds: float, setup_s: float) -> dict:
    times, outcomes = measure(cases, seconds)
    ratios, problems = verify(workload, outcomes)
    medians = [statistics.median(samples) for samples in times.values()]
    throughput = len(medians) / sum(medians)
    failed = sum(1 for issues in problems if issues)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "problems": [p for issues in problems for p in issues],
        "samples": {label: f"{len(samples)} x, median {statistics.median(samples) * 1e3:.1f} ms"
                    for label, samples in times.items()},
        "metrics": {
            "setup_s": (setup_s, "s"),
            "opt_ms_geomean": (statistics.geometric_mean(m * 1e3 for m in medians), "ms"),
            "opt_per_s": (throughput, "1/s"),
            "latency_p50_ms": (checks.percentile(medians, 0.50) * 1e3, "ms"),
            "latency_p99_ms": (checks.percentile(medians, 0.99) * 1e3, "ms"),
            # One caller saturates the service: capacity is the mix's
            # completion rate.
            "capacity_rps": (throughput, "1/s"),
            "wcost_ratio_max": (max((r for r in ratios if not math.isnan(r)), default=math.inf), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }
