"""Shared pieces of the benchmark: the reference clock, statistics, I/O.

Every host time the benchmark reports is in *reference seconds*: the raw
``perf_counter`` duration multiplied by ``REF_NOMINAL_S / measured``,
where ``measured`` is the median duration of a fixed reference workload
timed between the workload's operations and, for in-process work, in
short bursts on a timer during them.  The reference workload is pure
integer arithmetic: it imports nothing from ``repro`` and allocates no
GC-tracked objects, so no change to the program can change it, while a
host that runs slower for a while slows it and the workload alike.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Repository checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Raw seconds per reference iteration on the 2-vCPU sizing host
#: (Python 3.11.7, median of quiet-host samples): a host running at this
#: speed has a reference factor of 1.
REF_S_PER_ITERATION = 1.15e-7
#: Iterations of one explicit sample repetition; a sample is the median
#: of ``REF_REPS`` repetitions.
REF_ITERATIONS = 200_000
REF_REPS = 3
#: While a workload runs, a timer interrupts it every ``BURST_PERIOD_S``
#: to time a burst of ``BURST_ITERATIONS`` (about 2.5 ms), so the
#: reference sees the host conditions the work itself ran under.
BURST_ITERATIONS = 20_000
BURST_PERIOD_S = 0.2
#: Fewest bursts an operation needs to be scaled by its own bursts.
MIN_OP_BURSTS = 3
#: CPU share since the previous tick above which a process counts as busy.
BUSY_SHARE = 0.5


def _reference(iterations: int) -> float:
    """Seconds per iteration of the reference loop (ints only: no
    GC-tracked allocation, nothing from ``repro``)."""
    start = time.perf_counter()
    x = 1
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return (time.perf_counter() - start) / iterations


class RefClock:
    """Reference samples and the factor they give.

    ``sample()`` takes an explicit sample between operations.  Inside
    ``with clock.interleaved():`` a timer takes bursts during the work;
    ``op()`` then returns the work's raw seconds with the bursts' own
    time removed, and the factor of the bursts that fell inside it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.bursts: List[float] = []
        self.burst_seconds = 0.0

    def sample(self) -> None:
        self.samples.append(
            statistics.median(_reference(REF_ITERATIONS) for _ in range(REF_REPS))
        )

    def _burst(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.bursts.append(_reference(BURST_ITERATIONS))
        self.burst_seconds += time.perf_counter() - start

    def _burst_if_busy(self, signum: int, frame: Any) -> None:
        """A burst only when the process (any thread) used most of the
        CPU since the last tick: a burst just after an idle wake-up runs
        up to 3x slow and says nothing about the work."""
        cpu, wall = time.process_time(), time.perf_counter()
        last_cpu, last_wall = self._last_tick
        if cpu - last_cpu > BUSY_SHARE * (wall - last_wall):
            self._burst(signum, frame)
        self._last_tick = (time.process_time(), time.perf_counter())

    @contextlib.contextmanager
    def interleaved(self, busy_only: bool = False) -> Iterator[None]:
        self._last_tick = (time.process_time(), time.perf_counter())
        handler = self._burst_if_busy if busy_only else self._burst
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, BURST_PERIOD_S, BURST_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def op(self, fn: Callable[[], Any]) -> Tuple[Any, float, Optional[float]]:
        """Run ``fn``; returns (result, raw seconds, own factor or None)."""
        first, spent = len(self.bursts), self.burst_seconds
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start - (self.burst_seconds - spent)
        own = self.bursts[first:]
        factor = (
            REF_S_PER_ITERATION / statistics.median(own)
            if len(own) >= MIN_OP_BURSTS
            else None
        )
        return result, elapsed, factor

    @property
    def factor(self) -> float:
        """``nominal / measured``: below 1 on a host slower than nominal."""
        measured = self.bursts or self.samples
        if not measured:
            raise RuntimeError("no reference sample taken")
        return REF_S_PER_ITERATION / statistics.median(measured)


def child_env() -> Dict[str, str]:
    """Environment for a process that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def peak_rss_mb_self() -> float:
    """This process's peak resident set size, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(doc: Dict[str, Any]) -> None:
    """Write one JSON document as a single stdout line."""
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


class Tally:
    """Operations attempted, and those that raised instead of answering."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, doc: Dict[str, Any]) -> None:
        """Adds another process's tally (its ``attempted``/``failed``)."""
        self.attempted += doc.get("attempted", 0)
        self.failed += doc.get("failed", 0)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
