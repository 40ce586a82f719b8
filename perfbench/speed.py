"""Machine-speed probe for measuring on a shared host.

On a shared virtual machine the same code can run 25% slower for seconds to
minutes at a time, because other tenants load the host.  Raw pass
times then spread more between runs than any useful regression bound.  The
probe samples, from a SIGALRM handler in the measuring thread itself, how
long a fixed loop takes.  Dividing a measured time by the loop time observed
over the same interval cancels the host's speed, and multiplying by
``REFERENCE_LOOP_S`` expresses the result as seconds at a reference speed.
Raw times are always reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 20_000
#: seconds one calibration loop takes at the reference speed (about its
#: median on a 2-vCPU Xeon VM at 2.0 GHz); normalised seconds = raw seconds
#: * REFERENCE_LOOP_S / observed loop seconds
REFERENCE_LOOP_S = 1.5e-3
PERIOD_S = 0.2


def calibration_loop() -> float:
    """Seconds one fixed integer loop takes right now.

    On the host it was tuned on, this plain loop tracked the slow phases of
    the workloads better than loops that added dict, tuple or numpy work,
    which swung more than the workloads did.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs the calibration loop every ``PERIOD_S`` while active."""

    def __init__(self):
        self.at = []
        self.took = []
        self._previous = None

    def _sample(self, signum, frame):
        self.at.append(time.perf_counter())
        self.took.append(calibration_loop())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, t0: float, t1: float):
        """For the interval [t0, t1]: (raw seconds not spent probing,
        normalised seconds, loop seconds used).  The loop time is the median
        of the samples inside the interval, or of all samples when the
        interval holds fewer than three."""
        inside = [d for a, d in zip(self.at, self.took) if t0 <= a <= t1]
        pool = inside if len(inside) >= 3 else self.took or [calibration_loop()]
        loop = statistics.median(pool)
        raw = (t1 - t0) - sum(inside)
        return raw, raw * REFERENCE_LOOP_S / loop, loop
