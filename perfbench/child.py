"""Run one ``hbtensor`` CLI command as a child process and time it.

The time runs from spawning the child to reaping it with ``os.wait4``, which
also gives the child's own peak resident set size.  A child that outlives
its timeout is killed, so every process started here has ended when
``run`` returns.

Around every child, the parent also times a fixed piece of pure-Python
work, the reference.  On a shared host the machine's speed changes from
second to second with the load of other tenants, and the reference slows
down with the child.  ``scaled`` turns a wall time into seconds on a
machine that runs the reference in ``REFERENCE_NOMINAL_S``.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 60
REFERENCE_LOOPS = 50_000
REFERENCE_NOMINAL_S = 0.01  # the reference took 8-15 ms on a shared 2.1 GHz Xeon vCPU


def reference_s() -> float:
    """Wall time of the reference: dict updates with integer arithmetic,
    the kind of work the package does."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        counts[i % 977] = counts.get(i % 977, 0) + i * i
    return time.perf_counter() - start


def scaled(wall_s: float, ref_s: float) -> float:
    """``wall_s`` at the nominal speed, given the reference time around it."""
    return wall_s * REFERENCE_NOMINAL_S / ref_s


@dataclass(frozen=True)
class Outcome:
    code: int  # exit code; negative for a signal
    wall_s: float
    ref_s: float  # mean reference time just before and just after the child
    rss_kib: int
    stdout: str
    stderr: str


class Runner:
    """Spawns CLI children against ``<root>/src``, writing into ``work``."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def cli(self, *args: str) -> Outcome:
        return self.run(["-m", "hbtensor.cli", *args])

    def run(self, args: list[str]) -> Outcome:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        argv = [sys.executable, *args]
        ref_before = reference_s()
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        return Outcome(
            code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            ref_s=(ref_before + reference_s()) / 2,
            rss_kib=usage.ru_maxrss,
            stdout=out.read_text(encoding="utf-8"),
            stderr=err.read_text(encoding="utf-8"),
        )
