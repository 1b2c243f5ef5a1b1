"""The host-speed reference: scales measured times to a fixed host speed.

The shared host this benchmark runs on changes speed by up to 2.5x, and
back, within a tenth of a second, whatever the benchmark does, and the
slowdown hits every piece of Python on the CPU alike.  So the benchmark
times a short, fixed piece of reference work (interpreted Python,
``heapq``, ``json`` and small NumPy operations; none of it from the
program) between measured windows a few hundredths of a second long, and
scales each window's times by ``REFERENCE_S`` / the reference's time
around it.  A program change moves the scaled times as it moves the raw
ones; a host slowdown moves both the window and the reference, and
cancels.

Raw times are kept in each run's detail line, next to the reference's
median time (the host's speed during the run).
"""

from __future__ import annotations

import gc
import heapq
import json
import time

import numpy as np

#: Seconds one reference pass takes on the reference host (2-vCPU Xeon
#: under Firecracker, Python 3.11) at its fastest.  Only the scale of
#: the benchmark's times depends on it.
REFERENCE_S = 0.45e-3

#: Passes per calibration; the faster one counts, so a pass that lost
#: the CPU for a moment does not.
PASSES = 2


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b

    def key(self) -> tuple:
        return (self.a, -self.b)


_DOCUMENT = {
    "items": list(range(200)),
    "scores": [i * 0.25 for i in range(200)],
    "name": "reference",
}
_VECTOR = np.arange(2000, dtype=float)


def reference_work() -> int:
    """The fixed reference work; returns a checksum so none is skipped."""
    table: dict = {}
    kept = []
    for i in range(250):
        point = _Point(i % 97, i * 0.5)
        key = point.key()
        table[key] = table.get(key, 0) + 1
        if i % 3 == 0:
            kept.append(point)
    kept.sort(key=_Point.key)
    heap: list = []
    for i in range(250):
        heapq.heappush(heap, ((i * 7919) % 251, i))
    total = len(table) + len(kept)
    while heap:
        total += heapq.heappop(heap)[1] & 1
    for _ in range(2):
        total += len(json.loads(json.dumps(_DOCUMENT)))
    for j in range(5):
        total += int((_VECTOR * j).argmax())
    return total


def reference_time() -> tuple[float, float]:
    """Wall and CPU seconds of one reference pass (fastest of ``PASSES``).

    The garbage collector is off meanwhile, so the pass never pays for a
    collection of the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall = cpu = float("inf")
        for _ in range(PASSES):
            started, cpu_started = time.perf_counter(), time.thread_time()
            reference_work()
            cpu = min(cpu, time.thread_time() - cpu_started)
            wall = min(wall, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return wall, cpu


class Scale:
    """Scale factors for the times measured between two calibrations."""

    def __init__(self) -> None:
        self.last = (REFERENCE_S, REFERENCE_S)
        #: reference wall seconds of every calibration, for the detail line
        self.seen: list[float] = []

    def restart(self) -> None:
        """Calibrate now: the next interval starts here."""
        self.last = reference_time()
        self.seen.append(self.last[0])

    def close(self) -> tuple[float, float]:
        """Calibrate again; the wall and CPU factors for the interval
        since the last calibration (reference time there, averaged over
        both ends, against ``REFERENCE_S``)."""
        now = reference_time()
        self.seen.append(now[0])
        wall = (self.last[0] + now[0]) / 2.0
        cpu = (self.last[1] + now[1]) / 2.0
        self.last = now
        return REFERENCE_S / wall, REFERENCE_S / cpu
