"""Host-speed calibration: a fixed pure-Python unit of work timed during a run.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of per cent, for every process alike, from one second to the next and
over minutes.  While a run measures, a profiling timer interrupts it every
``INTERVAL_S`` of CPU time and times one fixed unit of work that uses no
meshknit code: named tuples, dicts keyed by tuples, sets, ``Fraction``
arithmetic and a sort, the operations meshknit spends its time in.  The
interruptions are subtracted from the item times.

The host's speed changes within a second, so each item is scaled by the
units timed while it ran: its scale is ``REFERENCE_UNIT_S`` divided by the
mean time of those units, widened to the ``MIN_UNITS`` nearest ones for a
short item, and the item's time is multiplied by it.  The end-to-end times thus read as on a host that runs
the unit in ``REFERENCE_UNIT_S``.  A change to meshknit moves them in full,
because the unit does not change with it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

# mean time of one unit on the machine the benchmark was defined on
# (2 vCPUs of an Intel Xeon, CPython 3.11.7); a fixed constant, so that the
# scaled figures keep the size of real times
REFERENCE_UNIT_S = 0.001
# CPU time between two units: about a fifth of a run goes to the unit
INTERVAL_S = 0.005
# an item's scale comes from at least this many units
MIN_UNITS = 16


class _Point(NamedTuple):
    slice: int
    vertex: int


def unit() -> int:
    """One unit of calibration work; returns a checksum so it is not elided."""
    points = [_Point(i % 11, i % 7) for i in range(120)]
    table: dict[tuple[int, int], int] = {}
    seen = set()
    for r in range(3):
        for p in points:
            key = (p.slice + r, p.vertex)
            table[key] = table.get(key, 0) + p.slice * p.vertex + r
            seen.add(p._replace(slice=p.slice - r))
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i % 5 + 1, i % 7 + 1)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len(ranked) + len(seen) + total.numerator % 7


def trimmed_mean(times: list[float]) -> float:
    """Mean of the middle 90 % of ``times``.

    A mean, not a median: unit times cluster at two speeds, as the host's
    other work comes and goes, and an item's time averages over both.  A
    median would jump from one cluster to the other.
    """
    times = sorted(times)
    cut = len(times) // 20
    return statistics.fmean(times[cut:len(times) - cut])


class Meter:
    """Times the unit on a profiling timer; ``busy`` is the time it took."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        unit()
        t1 = perf_counter()
        self.stamps.append(t0)
        self.times.append(t1 - t0)
        self.busy += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Scale of work done between ``t0`` and ``t1`` (``perf_counter`` times)."""
        if not self.times:
            return 1.0
        lo, hi = bisect_left(self.stamps, t0), bisect_right(self.stamps, t1)
        while hi - lo < MIN_UNITS and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return REFERENCE_UNIT_S / trimmed_mean(self.times[lo:hi])

    def overall_scale(self) -> float:
        """Scale of all the metered time; 1 if the meter never fired."""
        return REFERENCE_UNIT_S / trimmed_mean(self.times) if self.times else 1.0
