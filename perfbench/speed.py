"""Reference-speed normalization of measured times.

On a shared host the speed of one core swings by tens of percent over
seconds to minutes, and every timing swings with it.  ``Speedometer``
times a fixed reference computation, which no powmean change can touch, in
short samples interleaved with the calls into powmean (about 1.5% of the
run).  ``factors`` gives, for each timed interval, the reference's nominal
time over its time measured during that interval (widened by ``PAD_S`` on
each side), so ``measured * factor`` is the time the work would take at
the speed the reference has on a quiet 2-core x86 box with numpy 2.4.

On that box, timing power_mean in 5 s blocks varied by 13% (sd) while its
ratio to this reference varied by 1.6%.  The factor is taken per interval,
not per run, because the speed also changes within a run: a median of
operation times would otherwise follow the share of the run spent slow.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

#: Nominal time of one ``reference_unit`` call between calls into powmean,
#: in seconds.
REFERENCE_UNIT_S = 3.5e-5
#: Reference units per this much time spent in powmean.
SAMPLE_EVERY_S = 2.5e-3
#: Reference samples this close to an interval count towards its factor.
PAD_S = 0.05

_MATRIX = np.array(
    [[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1], [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]]
)


def reference_unit() -> float:
    """A fixed mix of small-array numpy calls and scalar Python arithmetic,
    the profile of powmean's own work."""
    m = _MATRIX.copy()
    for p in range(3):
        for q in range(p + 1, 4):
            t = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
            c = 1.0 / math.sqrt(1.0 + t * t)
            col = m[:, p].copy()
            m[:, p] = c * col + (1.0 - c) * m[:, q]
    return float(np.abs(m @ m.T).max())


class Speedometer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.units = 0
        self.spent_s = 0.0
        self._ends = array("d")
        self._times = array("d")

    def sample(self, units: int = 1) -> None:
        if not self.enabled:
            return
        for _ in range(units):
            t0 = time.perf_counter()
            reference_unit()
            t1 = time.perf_counter()
            self._ends.append(t1)
            self._times.append(t1 - t0)
            self.spent_s += t1 - t0
            self.units += 1

    def sample_for(self, work_s: float, already: int = 0) -> None:
        """Sample in proportion to ``work_s`` seconds of powmean time, less
        the ``already`` units sampled inside that work."""
        self.sample(max(1, round(work_s / SAMPLE_EVERY_S)) - already)

    def factors(self, starts, ends) -> np.ndarray:
        """Nominal over measured reference time around each interval
        [start, end]: 1 at nominal speed, below 1 while the host runs slower."""
        stamps = np.frombuffer(self._ends, dtype=np.float64)
        cum = np.concatenate(([0.0], np.cumsum(np.frombuffer(self._times, dtype=np.float64))))
        lo = np.searchsorted(stamps, np.asarray(starts) - PAD_S)
        hi = np.searchsorted(stamps, np.asarray(ends) + PAD_S)
        return REFERENCE_UNIT_S * (hi - lo) / (cum[hi] - cum[lo])
