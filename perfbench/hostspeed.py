"""Host speed, read from a fixed piece of the benchmark's own work.

On a shared 2-core host the speed of a core drifts at every time scale,
from stretches a fraction of a second long to minutes: the same lcnsyn
solves take up to twice as long in one run as in another, CPU time
included, so neither wall time nor CPU time of a run repeats. A
calibration chunk -- about 3 ms of the benchmark's own pure-Python code
on fixed inputs: counting injective choices (recursion over sets),
open-loop observability of a 12-state network (sets of tuples) and an
integer loop -- slows down with the core it runs on. Each part alone
tracked the ratio of lcnsyn's solve time to its own to within 4-6 %
(quartile distance over median) over 4-second stretches in which the raw
solve time moved by 12 %; the mix evens out their differences. The timed
loop runs one chunk whenever ``CAL_EVERY_S`` of solve time has passed
since the last one, so chunks sample the host all through a run.

Solve times are then turned into seconds at the reference speed: times
``NOMINAL_S`` over the loop's mean chunk time, each chunk weighted by
the solve time it follows. One factor for the whole loop, from chunks
spread evenly through it, matches what the solves met on average; a
factor for a shorter stretch rests on too few chunks and did not steady
the figures. A change to lcnsyn moves the scaled times exactly as it
moves the raw ones; only the host's drift is taken out. The chunks run
outside the solve timings, and lcnsyn never sees them.
"""

from __future__ import annotations

import random
import statistics
import time

import reference

#: The chunk's time at the reference speed: about its time on a quiet
#: stretch of the 2-core Xeon host the benchmark was written on. It only
#: sets the scale of the reported seconds.
NOMINAL_S = 0.0030
#: Solve time between two chunks.
CAL_EVERY_S = 0.008

_rng = random.Random("perfbench/host-speed")
_LISTS = [sorted(_rng.sample(range(1, 21), 5)) for _ in range(6)]
_NET = reference.random_network(7, 12, 4, 2)


def _loop() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


_EXPECT = (reference.injective_count(_LISTS), reference.observable(_NET), _loop())


def chunk() -> float:
    """Run one calibration chunk; return its wall time in seconds."""
    t0 = time.perf_counter()
    count = reference.injective_count(_LISTS)
    for _ in range(10):
        observable = reference.observable(_NET)
    total = _loop()
    elapsed = time.perf_counter() - t0
    if (count, observable, total) != _EXPECT:
        raise AssertionError("calibration chunk computed a wrong result")
    return elapsed


def factor(chunks: list[float]) -> float:
    """Reference seconds per second of wall time, from chunk times. The
    host flips between fast and slow stretches a fraction of a second
    long, so chunk times are bimodal: their median jumps between the modes
    from run to run, while their mean, like a solve's time, is weighted by
    how long each mode lasted."""
    return NOMINAL_S / statistics.fmean(chunks)


class Meter:
    """Chunks interleaved with a closed loop's solves. Each chunk stands
    for the solve time since the one before it, so that a heavy solve
    followed by one chunk weighs as much as the light solves of the same
    length that share several."""

    def __init__(self) -> None:
        self.chunks: list[tuple[float, float]] = []  # (solve time it stands for, chunk time)
        self._since = 0.0

    def after(self, seconds: float) -> None:
        """Account one solve of ``seconds``; run a chunk when one is due."""
        self._since += seconds
        if self._since >= CAL_EVERY_S:
            self.chunks.append((self._since, chunk()))
            self._since = 0.0

    def factor(self) -> float:
        """Reference seconds per second of wall time over the loop."""
        if not self.chunks:
            raise ValueError("no calibration chunk in the timed loop")
        weight = sum(w for w, _c in self.chunks)
        return NOMINAL_S * weight / sum(w * c for w, c in self.chunks)


def scaled_setup(work) -> float:
    """Run ``work()`` once between chunks; its time at reference speed."""
    before = [chunk() for _ in range(3)]
    t0 = time.perf_counter()
    work()
    elapsed = time.perf_counter() - t0
    return elapsed * factor(before + [chunk() for _ in range(3)])
