"""Host-speed calibration of the benchmark's timings.

On a shared host the CPU throughput a process gets can drift by ±30% over
seconds to minutes, and process CPU time drifts with it.  The benchmark
therefore runs a short fixed numpy kernel (a probe) before and after every
interval it times, and reports the interval in reference seconds: wall
seconds scaled by how much slower or faster than nominal the probes ran.

Each probe gives a factor, nominal_s / (probe seconds).  Between two
probes, wall time is scaled by the mean of their two factors, and the time
spent inside probes counts for nothing, so an interval's reference length
is the sum over its pieces of wall seconds x factor.

A program change alters the interval but not the probes, so it shows at its
full size; a swing of the host's speed alters both and cancels.

Two probe kernels follow the two kinds of load: small 32x32 arrays, bound
by Python and numpy call overhead, and 512x512 arrays (2 MB each, the L2
size), bound by the memory hierarchy.  Each workload names the kind its
timings follow.
"""

import time

import numpy as np

# kind -> (array side, kernel repetitions, nominal seconds of one probe).
# A nominal time is close to the probe's median time on the host the
# benchmark was tuned on (2-vCPU Xeon VM), so reference seconds read close
# to wall seconds there.
KERNELS = {
    "small": (32, 300, 5e-3),
    "large": (512, 6, 1e-2),
}


class WallClock:
    """Uncalibrated timing: intervals in wall seconds, probes do nothing."""

    def probe(self):
        pass

    def seconds(self, start, end):
        return end - start

    def factors(self):
        return []


class CalibratedClock(WallClock):
    """Intervals in reference seconds (see the module docstring).

    `seconds(start, end)` takes raw `time.perf_counter()` readings and
    needs a probe at or before `start` and one at or after `end`.
    """

    def __init__(self, kind):
        side, self.reps, self.nominal_s = KERNELS[kind]
        self._array = np.random.default_rng(0).standard_normal((side, side))
        self._knots_t, self._knots_ref, self._factors = [], [], []

    def _kernel(self):
        c = self._array
        for _ in range(self.reps):
            d = c - np.roll(c, 1, 0)
            e = np.maximum(np.abs(d) - 0.1, 0.0)
            float((e * e).sum())

    def probe(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        factor = self.nominal_s / (t1 - t0)
        ref = 0.0
        if self._knots_t:
            gap = t0 - self._knots_t[-1]
            ref = self._knots_ref[-1] + gap * (self._factors[-1] + factor) / 2
        # The reference clock stands still while the probe runs.
        self._knots_t += [t0, t1]
        self._knots_ref += [ref, ref]
        self._factors.append(factor)

    def seconds(self, start, end):
        t = self._knots_t
        if not t or start < t[0] or end > t[-1]:
            raise ValueError("the interval is not bracketed by probes")
        ref = np.interp([start, end], t, self._knots_ref)
        return float(ref[1] - ref[0])

    def factors(self):
        """Nominal over measured probe time, one per probe (>1: host was fast)."""
        return list(self._factors)
