"""Many-objective optimizer benchmark: one seeded workload per run.

Run from the repository root::

    python3 moqbench/run.py --workload exa-frontier --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the traced replay (``replay.py``) and reports the
per-layer metrics. Either way every answer is checked against an
independent reference, a human-readable report goes to standard
output, and the last line is one JSON object::

    {"correct": ..., "attempted": N, "failed": M, "metrics": {name: {"value", "unit"}}}

Metric names and units come from ``BENCHMARK.json`` at the repository
root, which gates ``exa-frontier`` and ``rta-many-objectives``;
``serve-open-loop`` runs the same way but is not gated (see README.md).
The run fails (nonzero exit, no JSON) if the program's sources
are missing, a child process cannot be reaped, or any process the
benchmark started is still alive when it ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exa-frontier", "rta-many-objectives", "serve-open-loop")
SETUPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all': each workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_replay(children, env, args) -> dict:
    from procs import PYTHON

    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    proc = children.spawn(
        [PYTHON, os.path.join(HERE, "replay.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--spans", spans],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
    )
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        children.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"replay exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(children, env, args) -> dict:
    from procs import fault_point

    import checks
    import closed_loop
    import inputs
    import serve_load

    serve = None
    if args.workload == "serve-open-loop":
        serve = serve_load.run(children, env, ROOT, args.seed, args.seconds, SETUPS)
    if not args.trace:
        if serve is not None:
            return serve
        setup_s = closed_loop.setup(children, env, ROOT, SETUPS)
        fault_point("closed-loop")
        cases = (inputs.exa_cases if args.workload == "exa-frontier" else inputs.rta_cases)(args.seed)
        return closed_loop.run(args.workload, cases, args.seconds, setup_s)

    fault_point("replay")
    report = run_replay(children, env, args)
    if serve is not None:
        server = serve["server_metrics"]
        report["server_side"] = {
            "service.cache_hit_ratio": server["service"]["hit_rate"],
            "serving.coalesce_ratio": server["serving"]["coalesce_hit_rate"],
            "serving.server_p50_ms": server["serving"]["latency"]["p50_ms"],
            "gen.late_ms_p99": checks.percentile(serve["late"], 0.99) * 1e3,
        }
        for key in ("attempted", "failed", "problems"):
            report[key] += serve[key]
    return report


def run_all(children, env, args) -> str:
    """Every workload, untraced then traced, each in a child run.

    Prints each child's report as it finishes; returns one JSON line
    mapping ``<workload>/trace<0|1>`` to that child's result.
    """
    from procs import PYTHON

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = children.spawn(
                [PYTHON, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            )
            try:
                out, _ = proc.communicate(timeout=180)
            finally:
                children.stop(proc)
            lines = out.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} trace {trace} exited with {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    return json.dumps(results)


def report_line(report: dict, declared: dict[str, str]) -> str:
    metrics = report["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: "
            f"extra {sorted(set(metrics) - set(declared))}, "
            f"missing {sorted(set(declared) - set(metrics))}"
        )
    out = {}
    for name, unit in declared.items():
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise RuntimeError(f"{name}: unit {measured_unit} != declared {unit}")
        # A failed request counts as missing every limit; JSON has no
        # infinity, so it reads as an absurdly large value instead.
        value = float(value)
        out[name] = {"value": value if math.isfinite(value) else 1e18, "unit": unit}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": out,
    })


def print_report(args, report: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} attempted, {report['failed']} failed, "
          f"error_rate {report['failed'] / report['attempted']:.4f}")
    for key, value in report.get("samples", {}).items():
        print(f"  samples {key}: {value}")
    if "requests" in report:
        print(f"  distinct requests replayed: {report['requests']}")
    for problem in report["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, value in report.get("server_side", {}).items():
        print(f"  server side: {name:15s} {value:14.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from procs import Children, Interrupted, ignore_signals, python_env, trap_signals

    children = Children()
    trap_signals()
    status, report, line = 1, None, None
    try:
        if args.workload == "all":
            line = run_all(children, python_env(SRC), args)
        else:
            report = measure(children, python_env(SRC), args)
            line = report_line(report, declared_metrics(args.trace))
        status = 0
    except Interrupted as signal_error:
        print(f"benchmark: {signal_error}", file=sys.stderr)
        status = 128 + signal_error.signum
    except Exception:
        import traceback
        traceback.print_exc()
    finally:
        ignore_signals()
        children.stop_all()
        survivors = children.survivors()
    if survivors:
        print(f"benchmark: processes survived the run: {survivors}", file=sys.stderr)
        return 3
    if status:
        return status
    if report is not None:
        print_report(args, report)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
