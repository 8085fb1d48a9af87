"""Host-speed reference: how slow is this machine *right now*?

The sizing host (a shared 2-vCPU microVM) was measured to change speed
by up to 2x over tens of seconds, for every kind of code: the same
0.3 s SimMPI storm took 232-480 ms within one minute, with CPU time
tracking wall time.  A median over passes does not remove a drift that
outlasts the run, so the benchmark runs a fixed reference kernel before,
during and after every timed region and divides the region's host time
by the slowdown the kernel saw.  The kernel never touches ``repro``: it is the
same code on every commit, so a ratio between two commits is unchanged
by it, while a ratio between two moments on one commit loses the host's
drift (measured: run-to-run quartile spread 10-21 % raw, 2-6 %
normalised).

Three parts, chosen to load the host the way the simulator does —
interpreter arithmetic, object/heap/dict churn (event kernel, mailboxes,
calendars), and numpy array maths (treecode) — each timed on its own
and compared with its nominal time.  ``slowdown`` is the mean of the
three ratios: 1.0 means "as fast as the reference host at its best",
2.0 means every reported second took two.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time
from collections import deque

import numpy as np

#: Seconds each part takes on the reference host (this repo's sizing
#: host at its fastest observed speed).  Constants, so normalised
#: seconds mean the same thing in every run and on every host.
NOMINAL_S = (0.0100, 0.0080, 0.0066)


class _Event:
    __slots__ = ("key", "fn", "arg")

    def __init__(self, key, fn, arg):
        self.key = key
        self.fn = fn
        self.arg = arg

    def __lt__(self, other):
        return self.key < other.key


def _arithmetic() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _object_churn() -> int:
    heap, boxes, calendar, fired = [], {}, [], []
    x = 12345
    for i in range(2_500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event((x / 1e6, i), fired.append, i))
        boxes.setdefault(x % 97, deque()).append(
            {"src": i, "tag": x % 7, "payload": (i, x)}
        )
        bisect.insort(calendar, x / 3.0)
        if len(calendar) > 512:
            del calendar[:256]
    while heap:
        event = heapq.heappop(heap)
        event.fn(event.arg)
    for queue in boxes.values():
        while queue:
            queue.popleft()
    return len(fired)


_POINTS = np.random.default_rng(1).random((300, 3))


def _array_maths() -> float:
    d = _POINTS[:, None, :] - _POINTS[None, :, :]
    r2 = (d * d).sum(-1) + 1e-2
    return float((d / (r2 * np.sqrt(r2))[:, :, None]).sum())


_PARTS = (_arithmetic, _object_churn, _array_maths)


def sample() -> float:
    """Run the reference kernel once; return the host's slowdown (>0).

    The collector is held off meanwhile: a full collection triggered by
    the kernel's own allocations would walk the *workload's* heap (50 000
    job records after a campaign) and read as a slow host.
    """
    clock = time.perf_counter
    total = 0.0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for part, nominal in zip(_PARTS, NOMINAL_S):
            t0 = clock()
            part()
            total += (clock() - t0) / nominal
    finally:
        if was_enabled:
            gc.enable()
    return total / len(_PARTS)


class HostSpeedMonitor:
    """Times a region while sampling the host's speed *inside* it.

    Two samples around a multi-second campaign say little about the
    seconds in between (the host's speed also jitters from one sample to
    the next), so a one-shot interval timer re-armed after every sample
    interrupts the region about every ``period_s`` and runs the
    reference kernel in the signal handler — on the main thread, between
    two bytecodes of the workload, with no second thread to fight it for
    the interpreter lock.  The handler's own time is taken off the
    region's.  Measured on a 3 s campaign pass: quartile spread over 35
    passes 18.6 % raw, 3.6 % normalised.

    Must be created on the main thread (signal handlers live there).
    """

    def __init__(self, period_s: float = 0.15) -> None:
        self.period_s = period_s
        self._active = False
        self._inside_s = 0.0
        self._speeds = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return                       # a late alarm after the region
        t0 = time.perf_counter()
        self._speeds.append(1.0 / sample())
        self._inside_s += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def time(self, fn, *args):
        """``(fn(*args), raw seconds, normalised seconds)``.

        Raw is host time without the handler's share.  Normalised is the
        work done at reference speed: raw seconds times the mean host
        speed (1 / slowdown) sampled before, during and after.
        """
        self._speeds = [1.0 / sample()]
        self._inside_s = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        raw -= self._inside_s
        self._speeds.append(1.0 / sample())
        speed = sum(self._speeds) / len(self._speeds)
        return result, raw, raw * speed
