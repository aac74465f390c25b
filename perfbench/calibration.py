"""Host-speed calibration: two fixed kernels.

The benchmark's host time swings with the machine's load: on the 2-core
VM where the benchmark was defined, back-to-back identical skeleton jobs
took 1.26 s to 2.51 s, in slow spells lasting 10-20 s, while CPU time
tracked wall time (no steal, no waiting).  Medians over a 20 s run
still differed by 15-30% between runs, and whole hours ran 1.7-2.2x
slower or faster than others.

:func:`calibrate` times two fixed kernels that are benchmark code, so
no change to ``src/`` moves them:

- a pure-Python event loop (generator resumption, a heap, dict
  updates), the interpreter-bound mix of the simulator, the daemon's
  analytic path and imports;
- LU solves of a 300x300 system (LAPACK, single-threaded BLAS) and
  rank-1 updates of a 0.7 MB matrix (numpy dispatch and memory
  traffic), the mix of the solvers and the aggregate forms.

Each kernel's host time over its reference time (its time on the
defining host) is a slowdown factor, and the host's slowdown is their
geometric mean.  Timing it right before and after each operation and
dividing the operation's wall time by it gives the operation's cost in
reference seconds.  Raw host times are reported beside the normalized
ones.  Why two kernels and not one is in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import heapq
import math
import os
import time

import numpy as np

#: seconds the loop takes on the unloaded defining host
PYTHON_REFERENCE_S = 0.0088
#: seconds the numeric kernel takes at its fastest on the defining host
NUMERIC_REFERENCE_S = 0.06
#: seconds a null request (``perfbench/echo.py``, a process of its own)
#: takes on the unloaded defining host
ECHO_REFERENCE_S = 0.00025
ROUNDS = 16000
PROCESSES = 64
SIZE = 300
SOLVES = 3
UPDATES = 200

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((SIZE, SIZE))
_B = _rng.standard_normal((SIZE, SIZE))


def _process(k: int):
    t = 0.0
    while True:
        t = yield t + (k % 7) * 0.5 + 1.0


def _python() -> float:
    t0 = time.perf_counter()
    procs = [_process(k) for k in range(PROCESSES)]
    heap = []
    for index, proc in enumerate(procs):
        heapq.heappush(heap, (next(proc), index))
    visits: dict[int, int] = {}
    for _ in range(ROUNDS):
        t, index = heapq.heappop(heap)
        visits[index] = visits.get(index, 0) + 1
        heapq.heappush(heap, (procs[index].send(t), index))
    return time.perf_counter() - t0


def _numeric() -> float:
    t0 = time.perf_counter()
    for _ in range(SOLVES):
        np.linalg.solve(_A, _B)
    work = _A.copy()
    for _ in range(UPDATES):
        work[:, 1:] -= np.outer(work[:, 0], work[0, 1:]) * 1e-6
    return time.perf_counter() - t0


def _factor() -> float:
    return math.sqrt(_python() / PYTHON_REFERENCE_S
                     * _numeric() / NUMERIC_REFERENCE_S)


def calibrate(every_cpu: bool = False) -> float:
    """The host's slowdown against the defining host (1.0: as fast), on
    the CPU this process runs on or, with ``every_cpu``, the mean over
    each CPU it may run on (for work spread over several processes)."""
    if not every_cpu:
        return _factor()
    allowed = os.sched_getaffinity(0)
    factors = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            factors.append(_factor())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(factors) / len(factors)


class Bracket:
    """Calibrations at operation boundaries; consecutive operations
    share the boundary between them."""

    def __init__(self, every_cpu: bool = False):
        self.every_cpu = every_cpu
        self._last: float | None = None

    def before(self) -> float:
        if self._last is None:
            self._last = calibrate(self.every_cpu)
        return self._last

    def after(self) -> float:
        self._last = calibrate(self.every_cpu)
        return self._last


def reference_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` host seconds in reference seconds, given the slowdown
    factors timed before and after it."""
    return wall / ((before + after) / 2.0)
