"""Self-test of the benchmark harness: no process outlives a run.

Run from the repository root (about a minute)::

    python3 moqbench/selftest.py

Every benchmark run below carries a unique tag in its environment, which
every process it starts inherits. After each run the test scans
``/proc/*/environ`` for that tag; a live process carrying it survived
the run, and the test fails (after killing it). The cases:

* a clean short ``serve-open-loop`` run: exit 0 and a JSON result line;
* a failure injected mid-run, after the server is up: nonzero exit and
  no result line;
* SIGTERM sent to the benchmark while its server runs, and while its
  traced replay (which owns a worker pool) runs: nonzero exit;
* the exact counters of two traced runs with the same seed are equal;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the benchmark exits nonzero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TAG_VAR = "MOQBENCH_SELFTEST_TAG"


def tagged(tag: str) -> list[tuple[int, str]]:
    """Live processes whose environment carries ``tag``."""
    me, found = os.getpid(), []
    needle = f"{TAG_VAR}={tag}".encode()
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as handle:
                if needle not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read().decode("latin-1")
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if stat[stat.rindex(")") + 2] != "Z":
            found.append((int(name), cmdline.strip()))
    return found


def start(args: list[str], tag: str, cwd: str = ROOT, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join("moqbench", "run.py"), *args],
        cwd=cwd, env={**os.environ, TAG_VAR: tag, **env},
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, start_new_session=True,
    )


def finish(proc: subprocess.Popen, timeout: float = 170.0) -> tuple[int, str]:
    out, _ = proc.communicate(timeout=timeout)
    return proc.returncode, out.decode()


def result_line(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def assert_no_survivors(tag: str, case: str) -> None:
    time.sleep(0.5)
    left = tagged(tag)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if left:
        raise SystemExit(f"FAIL {case}: processes survived: {left}")
    print(f"ok   {case}: no survivors")


def wait_for(tag: str, fragment: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(fragment in cmdline for _, cmdline in tagged(tag)):
            return
        time.sleep(0.05)
    raise SystemExit(f"FAIL: no process matching {fragment!r} appeared")


SERVE = ["--workload", "serve-open-loop", "--seed", "1", "--seconds", "3"]


def case_clean() -> None:
    tag = uuid.uuid4().hex
    code, out = finish(start(SERVE + ["--trace", "0"], tag))
    report = result_line(out)
    if code != 0 or report is None or not report["correct"]:
        raise SystemExit(f"FAIL clean run: exit {code}, output:\n{out}")
    assert_no_survivors(tag, "clean serve run")


def case_fault() -> None:
    tag = uuid.uuid4().hex
    code, out = finish(start(SERVE + ["--trace", "0"], tag, MOQBENCH_FAULT="serve"))
    if code == 0 or result_line(out) is not None:
        raise SystemExit(f"FAIL injected fault: exit {code}, output:\n{out}")
    assert_no_survivors(tag, "failure injected mid-run")


def case_sigterm(args: list[str], fragment: str, case: str) -> None:
    tag = uuid.uuid4().hex
    proc = start(args, tag)
    try:
        wait_for(tag, fragment)
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        code, out = finish(proc, timeout=60.0)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if code == 0 or result_line(out) is not None:
        raise SystemExit(f"FAIL {case}: exit {code}, output:\n{out}")
    assert_no_survivors(tag, case)


def case_counters_repeat() -> None:
    counters = []
    for _ in range(2):
        tag = uuid.uuid4().hex
        code, out = finish(start(
            ["--workload", "serve-open-loop", "--seed", "3", "--seconds", "2", "--trace", "1"], tag))
        report = result_line(out)
        if code != 0 or report is None or not report["correct"]:
            raise SystemExit(f"FAIL traced run: exit {code}, output:\n{out}")
        assert_no_survivors(tag, "traced serve run")
        counters.append({name: report["metrics"][name]["value"]
                         for name in ("dp.candidates", "pruning.frontier_plans")})
    if counters[0] != counters[1]:
        raise SystemExit(f"FAIL exact counters differ across runs: {counters}")
    print(f"ok   exact counters repeat: {counters[0]}")


def case_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "moqbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    tag = uuid.uuid4().hex
    try:
        code, out = finish(start(SERVE + ["--trace", "0"], tag, cwd=bare), timeout=60.0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result_line(out) is not None:
        raise SystemExit(f"FAIL bare directory: exit {code}, output:\n{out}")
    assert_no_survivors(tag, "bare directory exits nonzero")


def main() -> None:
    case_clean()
    case_fault()
    case_sigterm(SERVE + ["--trace", "0"], "repro.cli serve", "SIGTERM while serving")
    case_sigterm(["--workload", "exa-frontier", "--seed", "1", "--seconds", "3", "--trace", "1"],
                 "replay.py", "SIGTERM during the traced replay")
    case_counters_repeat()
    case_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
