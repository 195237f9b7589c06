"""Correction of the benchmark's timings for the machine's changing speed.

The benchmark runs on a shared virtual machine whose speed drifts by up to
half over minutes.  A small fixed calibration loop does not follow that drift
(its cost stayed flat while the search's cost moved by a fifth), but the same
kind of code does: over 150 s in one process, search-hard passes varied by
0.097 of their mean, and their ratio to a frozen copy's time on the same
instances by 0.028.

So while a workload is timed, a SIGALRM handler runs a probe every
``PERIOD_S`` seconds: three small Peiffer searches with the frozen copy of the
search layers in ``reference/``, about 8 ms in all, or 4% of the run.  The
rolling median of the probe's cost over ``2 * HALF_WINDOW + 1`` probes is the
machine's pace at that moment.  ``Pace.scaled`` turns a timed interval into
seconds at the nominal pace, at which the probe takes ``NOMINAL_PROBE_S``, and
leaves out the probes that ran inside the interval.  The reference never
changes, so a faster program still reads as faster.
"""
from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left

from reference import peiffer, presentations

PERIOD_S = 0.2
HALF_WINDOW = 7
# the probe's median cost on the 2-vCPU box of the baseline (Python 3.11)
NOMINAL_PROBE_S = 0.008

SYM3 = "group sym3\ngens a b\nrel r1 = a a\nrel r2 = b b\nrel r3 = a b a b a b\n"
PROBE_SCRAMBLES = ((3, 2), (4, 2), (5, 1))  # (k, seed); each is solved within the budget
PROBE_BUDGET = 4


class Pace:
    """Samples the machine's pace while the ``with`` block runs; afterwards
    ``scaled`` converts intervals measured inside it."""

    def __init__(self):
        gp = presentations.parse(SYM3)
        self._probes = [(peiffer.scramble(gp, seed=seed, k=k)[0], 2 * k) for k, seed in PROBE_SCRAMBLES]
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._ends: list[float] = []
        self._levels: list[float] = []
        self._busy = False
        self._handler = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        for d, depth in self._probes:
            peiffer.search_trivialization(d, node_budget=PROBE_BUDGET, depth_limit=depth)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self._ends.append(t1)
        self.costs.append(t1 - t0)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.probe()
        finally:
            self._busy = False

    def __enter__(self) -> Pace:
        self.probe()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.probe()
        c, h = self.costs, HALF_WINDOW
        self._levels = [statistics.median(c[max(0, i - h) : i + h + 1]) for i in range(len(c))]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the nominal pace, without the
        probes that ran in between.  Each stretch takes the pace of the probe
        that preceded it."""
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        k = max(first - 1, 0)
        total, t = 0.0, start
        for i in range(first, last):
            total += (self.starts[i] - t) / self._levels[k]
            t, k = self._ends[i], i
        total += (end - t) / self._levels[k]
        return total * NOMINAL_PROBE_S

    def median_probe_s(self) -> float:
        return statistics.median(self.costs)
