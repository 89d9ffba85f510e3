"""Child-process control: own sessions, group kill, reaping, /proc audit.

Every process the benchmark starts runs in a session of its own, so the
whole tree it grows (worker pools, multiprocessing helpers) shares one
process group and one session id even after its leader dies. The
benchmark also makes itself a child subreaper, so orphans of those
trees are re-parented to it and can be reaped here instead of by init.

Stopping a child sends SIGTERM to its process group, waits, sends
SIGKILL to whatever is left, and reaps. :meth:`Children.survivors`
scans ``/proc`` (psutil is not assumed) for any live descendant or
member of a session the benchmark created; the run fails if it finds
one.
"""

from __future__ import annotations

import ctypes
import os
import re
import select
import signal
import subprocess
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36

#: Names a stage at which the benchmark raises on purpose, so that
#: ``selftest.py`` can check the clean-up after a mid-run failure.
FAULT_ENV = "MOQBENCH_FAULT"


def fault_point(stage: str) -> None:
    if os.environ.get(FAULT_ENV) == stage:
        raise RuntimeError(f"fault injected at {stage}")


class Interrupted(Exception):
    """SIGTERM or SIGINT reached the benchmark; unwind and clean up."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _raise_interrupted(signum, _frame) -> None:
    raise Interrupted(signum)


def trap_signals() -> None:
    """Turn SIGTERM/SIGINT into :class:`Interrupted` so cleanup runs."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _raise_interrupted)


def ignore_signals() -> None:
    """Shield cleanup from a second signal."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)


def _proc_stat(pid: int) -> tuple[str, int, int] | None:
    """(state, ppid, session) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("latin-1")
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the
    # last ')': state ppid pgrp session ...
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[3])


def _process_table() -> dict[int, tuple[str, int, int]]:
    table = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = _proc_stat(int(name))
            if stat is not None:
                table[int(name)] = stat
    return table


class Children:
    """Registry of the sessions this benchmark started."""

    def __init__(self) -> None:
        self.sessions: set[int] = set()
        self._procs: list[subprocess.Popen] = []
        self.subreaper = self._become_subreaper()

    @staticmethod
    def _become_subreaper() -> bool:
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            prctl = libc.prctl
        except (OSError, AttributeError):
            return False
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0

    def spawn(self, argv: list[str], **popen_kwargs) -> subprocess.Popen:
        """Start ``argv`` as the leader of a new session."""
        proc = subprocess.Popen(argv, start_new_session=True, **popen_kwargs)
        self._procs.append(proc)
        self.sessions.add(proc.pid)
        return proc

    # ------------------------------------------------------------------
    def _reap(self, proc: subprocess.Popen, timeout: float):
        """Wait up to ``timeout`` for ``proc``; its rusage, or None if alive."""
        deadline = time.monotonic() + timeout
        while True:
            if proc.returncode is not None:
                return None  # already reaped (e.g. by communicate())
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.02)

    def _reap_orphans(self) -> None:
        """Reap zombie children that are not tracked leaders."""
        tracked = {p.pid for p in self._procs if p.returncode is None}
        me = os.getpid()
        for pid, (state, ppid, _session) in _process_table().items():
            if ppid == me and state == "Z" and pid not in tracked:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass

    def _session_alive(self, session: int) -> list[int]:
        return [
            pid for pid, (state, _ppid, sid) in _process_table().items()
            if sid == session and state != "Z" and pid != os.getpid()
        ]

    def _signal_group(self, session: int, signum: int) -> None:
        try:
            os.killpg(session, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0):
        """SIGTERM the child's group, wait, SIGKILL the rest, reap.

        Returns the leader's rusage (it includes its reaped children)
        when this call reaped it, else None.
        """
        session = proc.pid
        usage = None
        if proc.returncode is None:
            self._signal_group(session, signal.SIGTERM)
            usage = self._reap(proc, grace_s)
        deadline = time.monotonic() + grace_s
        while self._session_alive(session) and time.monotonic() < deadline:
            self._reap_orphans()
            time.sleep(0.02)
        # Anything still alive ignored SIGTERM (or was spawned after it).
        for _ in range(50):
            if not self._session_alive(session) and proc.returncode is not None:
                break
            self._signal_group(session, signal.SIGKILL)
            if proc.returncode is None:
                killed = self._reap(proc, 0.2)
                usage = usage or killed
            self._reap_orphans()
            time.sleep(0.02)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        self._reap_orphans()
        return usage

    def stop_all(self) -> None:
        for proc in self._procs:
            self.stop(proc, grace_s=5.0)

    def survivors(self) -> list[str]:
        """Live descendants or session members, as 'pid comm' strings."""
        self._reap_orphans()
        table = _process_table()
        me = os.getpid()
        children: dict[int, list[int]] = {}
        for pid, (_state, ppid, _sid) in table.items():
            children.setdefault(ppid, []).append(pid)
        found, stack = set(), list(children.get(me, []))
        while stack:
            pid = stack.pop()
            if pid not in found:
                found.add(pid)
                stack.extend(children.get(pid, []))
        found.update(
            pid for pid, (_s, _p, sid) in table.items() if sid in self.sessions
        )
        alive = []
        for pid in sorted(found - {me}):
            if table[pid][0] == "Z":
                continue
            try:
                with open(f"/proc/{pid}/comm") as handle:
                    comm = handle.read().strip()
            except OSError:
                continue  # exited during the scan
            alive.append(f"{pid} {comm}")
        return alive


def read_until(proc: subprocess.Popen, pattern: bytes, timeout: float) -> re.Match:
    """Read the child's stdout until ``pattern`` matches (or fail)."""
    deadline = time.monotonic() + timeout
    regex, buffered = re.compile(pattern), b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"child {proc.pid} did not print {pattern!r} in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"child {proc.pid} exited before printing {pattern!r}")
            buffered += chunk
            match = regex.search(buffered)
            if match:
                return match


def python_env(src_dir: str) -> dict[str, str]:
    """Environment for Python children: the program's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


PYTHON = sys.executable or "python3"
