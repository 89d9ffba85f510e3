"""Serving workload: ``repro serve`` in a child process, driven over HTTP.

A single-process asyncio load generator holds at most ``nproc``
keep-alive connections. The open-loop phase releases requests on a
seeded Poisson schedule; a request waits in the generator while every
connection is busy, and its latency runs from the moment it was due to
the end of its response. A closed-loop saturation phase on the same
connections follows and gives the capacity.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import statistics
import subprocess
import time

import checks
import inputs
from procs import PYTHON, Children, fault_point, read_until


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def worker_count() -> int:
    return max(1, cpu_count() - 1)


# ----------------------------------------------------------------------
# Blocking HTTP, for set-up and metrics (never timed per request)
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body: bytes | None = None,
              timeout: float = 60.0) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def start_server(children: Children, env: dict, root: str,
                 timeout: float = 60.0) -> tuple[subprocess.Popen, int, float]:
    """Start a server and make it ready; returns (process, port, seconds).

    Ready means ``/healthz`` answers and the warm-up request (which
    starts the worker pool) came back ``ok``.
    """
    began = time.perf_counter()
    # At nice 5 the server and its workers cannot delay the load
    # generator, which shares the CPUs with them: the latencies measure
    # the server, not the generator's scheduling.
    proc = children.spawn(
        ["nice", "-n", "5", PYTHON, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", "0", "--fast", "--backend", "processes",
         "--workers", str(worker_count())],
        cwd=root, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
    )
    deadline = began + timeout
    port = int(read_until(proc, rb"serving on http://[^:]+:(\d+)", timeout).group(1))
    while True:
        try:
            status, _ = http_call(port, "GET", "/healthz", timeout=5.0)
            if status == 200:
                break
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError("server /healthz never answered")
        time.sleep(0.01)
    status, body = http_call(port, "POST", "/optimize", inputs.encode(inputs.warmup_request()))
    if status != 200 or json.loads(body)["code"] != "ok":
        raise RuntimeError(f"warm-up request failed: HTTP {status}")
    return proc, port, time.perf_counter() - began


# ----------------------------------------------------------------------
# Async load generator
# ----------------------------------------------------------------------
def _http_post(body: bytes) -> bytes:
    return (
        "POST /optimize HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("latin-1") + body


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def exchange(self, wire: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            self.writer.write(wire)
            await self.writer.drain()
            status = int((await self.reader.readline()).split()[1])
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length)
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            await self.close()
            raise

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def _send(connection: Connection, wire: bytes) -> tuple[int | None, bytes | str]:
    try:
        return await connection.exchange(wire)
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as error:
        return None, repr(error)


async def _open_loop(connections, schedule, items):
    """Release items on schedule; returns (latency s, status, body) and lateness."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records: list = [None] * len(items)
    late: list[float] = []
    wires = [_http_post(item.body) for item in items]
    origin = loop.time() + 0.05

    async def dispatcher():
        for index, offset in enumerate(schedule):
            due = origin + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due))
            queue.put_nowait((index, due))
        for _ in connections:
            queue.put_nowait(None)

    async def sender(connection):
        while (entry := await queue.get()) is not None:
            index, due = entry
            status, body = await _send(connection, wires[index])
            records[index] = (loop.time() - due, status, body)

    await asyncio.gather(dispatcher(), *(sender(c) for c in connections))
    return records, late


async def _saturate(connections, next_item, seconds: float):
    """Closed loop on every connection; completions inside the window."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    end = start + seconds
    counter = iter(range(1 << 62))
    records: list = []

    async def sender(connection):
        while loop.time() < end:
            item = next_item(next(counter))
            status, body = await _send(connection, _http_post(item.body))
            records.append((item, loop.time() <= end, status, body))

    await asyncio.gather(*(sender(c) for c in connections))
    return records


async def _drive(port, schedule, items, next_item, saturation_s):
    connections = [Connection(port) for _ in range(cpu_count())]
    try:
        opened, late = await _open_loop(connections, schedule, items)
        saturated = await _saturate(connections, next_item, saturation_s)
    finally:
        for connection in connections:
            await connection.close()
    return opened, late, saturated


# ----------------------------------------------------------------------
def _answer(item, status, body, expected, hot_reference):
    """(ratio or nan, problems) for one response."""
    if status != 200:
        return math.nan, [f"{item.label}: HTTP {status}: {body!r:.200}"]
    envelope = json.loads(body)
    if envelope.get("code") != "ok":
        return math.nan, [f"{item.label}: envelope code {envelope.get('code')}"]
    result = envelope["result"]
    if item.kind == "hot":
        if canonical(result) != hot_reference[item.body]:
            return math.nan, [f"{item.label}: hot answer differs from in-process submit"]
        return math.nan, []
    outcome = checks.Outcome.of_wire(item.label, result)
    ratio, problems = checks.check_against_optimum(outcome, expected)
    if item.kind == "exa":
        problems = checks.check_exa(outcome, expected)
    return ratio, problems


def canonical(result: dict) -> str:
    """A result payload without its wall-clock fields, as stable JSON."""
    metrics = {k: v for k, v in result["metrics"].items()
               if k not in ("optimization_time_ms", "phase_ms")}
    return json.dumps({**result, "metrics": metrics}, sort_keys=True)


def hot_references(hot) -> dict[bytes, str]:
    """In-process answers to the hot pool, for the bitwise comparison."""
    from repro import OptimizerService, tpch_schema
    from repro.plans.serialize import result_to_dict

    service = OptimizerService(tpch_schema(), inputs.CONFIG, backend="inline", cache_size=0)
    return {item.body: canonical(result_to_dict(service.submit(item.request))) for item in hot}


def run(children: Children, env: dict, root: str, seed: int, seconds: float,
        setups: int) -> dict:
    ready_times = []
    proc = port = None
    for _ in range(setups):
        if proc is not None:
            children.stop(proc)
        proc, port, ready_s = start_server(children, env, root)
        ready_times.append(ready_s)

    fault_point("serve")
    hot = inputs.hot_pool(seed)
    for item in hot:  # fill the plan cache; not timed
        status, _ = http_call(port, "POST", "/optimize", item.body)
        if status != 200:
            raise RuntimeError(f"hot-pool fill failed: HTTP {status}")
    schedule, items = inputs.open_loop_items(seed, seconds)
    saturation_s = seconds * (1.0 - inputs.OPEN_SHARE)
    opened, late, saturated = asyncio.run(_drive(
        port, schedule, items,
        lambda i: inputs.serve_item(seed, "saturate", i, hot), saturation_s,
    ))
    status, body = http_call(port, "GET", "/metrics")
    server_metrics = json.loads(body)["result"] if status == 200 else {}
    usage = children.stop(proc)
    peak_rss_mb = usage.ru_maxrss / 1024.0 if usage is not None else math.nan

    expected = checks.load_expected()
    hot_reference = hot_references(hot)
    failed, problems, ratios = 0, [], []
    latencies, by_request = [], {}
    for item, (latency, status, body) in zip(items, opened):
        ratio, issues = _answer(item, status, body, expected, hot_reference)
        if issues:
            failed += 1
            problems.extend(issues)
            latency = math.inf  # a failed request misses every limit
        latencies.append(latency)
        by_request.setdefault(item.body, []).append(latency)
        if not math.isnan(ratio):
            ratios.append(ratio)
    completed = fresh = 0
    for item, in_window, status, body in saturated:
        ratio, issues = _answer(item, status, body, expected, hot_reference)
        if issues:
            failed += 1
            problems.extend(issues)
        elif in_window:
            completed += 1
            fresh += item.kind != "hot"
        if not math.isnan(ratio):
            ratios.append(ratio)
    per_request = [statistics.median(v) for v in by_request.values()]
    return {
        "attempted": len(opened) + len(saturated),
        "failed": failed,
        "problems": problems,
        "samples": {"open_loop": len(opened), "saturation": len(saturated),
                    "distinct_open_loop": len(by_request)},
        "late": late,
        "server_metrics": server_metrics,
        "metrics": {
            "setup_s": (statistics.median(ready_times), "s"),
            "opt_ms_geomean": (statistics.geometric_mean(v * 1e3 for v in per_request), "ms"),
            # Cache-missing (fresh) requests are the optimizations.
            "opt_per_s": (fresh / saturation_s, "1/s"),
            "latency_p50_ms": (checks.percentile(latencies, 0.50) * 1e3, "ms"),
            "latency_p99_ms": (checks.percentile(latencies, 0.99) * 1e3, "ms"),
            "capacity_rps": (completed / saturation_s, "1/s"),
            "wcost_ratio_max": (max(ratios, default=math.inf), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
