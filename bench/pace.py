"""Wall times rescaled to a fixed reference speed.

On a shared host the CPU speed a process gets drifts by 25 % or more, in
spells of ten seconds to a minute, so raw wall times of the same code spread
more between runs than any useful bound. The benchmark therefore times a
fixed pure-Python reference computation every ``REF_EVERY`` seconds, from a
timer signal, so also in the middle of a long call. Each timed call's wall
time, less the references taken during it, is rescaled by
``REF_S / r``, where ``r`` is the mean of the reference times taken during
the call and the one just before and just after it. A rescaled time is the
wall time the call would take on a machine where the reference takes
``REF_S`` seconds. The reference runs no envcover code, so a change to
envcover moves a rescaled time by the same share as the wall time.
"""

from __future__ import annotations

import math
import random
import signal
import time
from array import array

# The reference's usual time on the host the bounds were set on (an
# "Intel(R) Xeon(R) Processor", Python 3.11.7): rescaled times there read
# close to wall times.
REF_S = 0.005
REF_EVERY = 0.25
REF_TRIES = 3


def reference() -> float:
    """Fewest seconds of ``REF_TRIES`` runs of a fixed mixed Python loop.

    Besides floats and ints it makes only three lists, no per-item
    containers, so a reference taken in the middle of a call hardly changes
    when the garbage collector runs on envcover's objects.
    """
    best = math.inf
    for _ in range(REF_TRIES):
        started = time.perf_counter()
        rng = random.Random(12345)
        xs = [rng.random() for _ in range(1500)]
        ys = [rng.random() for _ in range(1500)]
        cells = [0] * 1600
        acc = 0.0
        for k in range(5):
            for i in range(1500):
                x, y = xs[i], ys[i]
                cells[int(x * 40) * 40 + int(y * 40)] += 1
                acc += math.hypot(x - 0.5, y - 0.5)
            xs.sort(key=lambda v: (v * 7.0 + k) % 1.0)
        best = min(best, time.perf_counter() - started)
    return best


class Pace:
    """Reference times, taken on a timer, and the timed calls they rescale."""

    def __init__(self):
        # Arrays, so that a reference taken in the middle of a call leaves
        # no Python object behind to pin the memory that call frees.
        self.refs = array("d")
        self._in_refs = array("d", [0.0])  # wall seconds spent in references
        # (key, wall seconds, index of the first reference after the start,
        #  index of the first reference after the end)
        self._samples: list[tuple[object, float, int, int]] = []

    def reference_now(self) -> None:
        started = time.perf_counter()
        self.refs.append(reference())
        self._in_refs[0] += time.perf_counter() - started

    def start(self) -> None:
        """Take a reference now and then every ``REF_EVERY`` seconds."""
        self.reference_now()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.reference_now())
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)

    def stop(self) -> None:
        """Stop the timer and take a last reference."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.reference_now()

    def call(self, key, fn, *args, **kwargs):
        """Run ``fn`` and record its wall time, less references, under ``key``."""
        first, spent = len(self.refs), self._in_refs[0]
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - started - (self._in_refs[0] - spent)
            self._samples.append((key, wall, first, len(self.refs)))

    def record(self, key, wall: float, first: int) -> None:
        """Record a wall time measured elsewhere, since reference ``first``."""
        self._samples.append((key, wall, first, len(self.refs)))

    def samples(self) -> list[tuple[object, float, float]]:
        """(key, rescaled seconds, wall seconds) of every recorded call.

        Call after ``stop``, so every call has a reference after it.
        """
        out = []
        for key, wall, first, last in self._samples:
            around = self.refs[max(first - 1, 0) : last + 1]
            out.append((key, wall * REF_S * len(around) / sum(around), wall))
        return out
