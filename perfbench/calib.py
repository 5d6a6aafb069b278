"""Reference samples: how fast the host runs Python right now.

The host's cores are shared, and for seconds to minutes at a time they
run the same code up to twice as slowly.  A run therefore times, next to
the workload, a fixed piece of interpreter work that does not use the
package, and ``run.py`` reports the workload's times in reference
seconds: scaled by the ratio of the reference's nominal time to its time
measured while the workload ran.
"""

from __future__ import annotations

import math
import random
import signal
import time

import corpus

# A sample is the fastest of REF_TRIES runs of reference_work; while
# sampling is on, one is taken every CAL_EVERY_S.
REF_TRIES = 3
CAL_EVERY_S = 0.25
# A seed run in process is scaled by the samples taken while it ran and
# in the REF_WINDOW_S before it: one sample alone is too noisy for a
# short seed.
REF_WINDOW_S = 1.0


def reference_work() -> None:
    """Three walks of 40 steps in the E8 Weyl group, with every state
    hashed into a dict."""
    rng = random.Random(7)
    seen: dict = {}
    for _ in range(3):
        walk = corpus.Walk("E8")
        for _ in range(40):
            walk.times(rng.choice(walk.ascents()))
            key = tuple(map(tuple, walk.cols))
            seen[key] = seen.get(key, 0) + 1


class Calibrator:
    """Reference samples of one process, as (start, seconds).  ``spent``
    is the time the samples took, which the caller takes out of the
    times it measures around them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        best = math.inf
        for _ in range(REF_TRIES):
            t = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t)
        self.samples.append((t0, best))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        """Sample every CAL_EVERY_S, in between the workload's bytecodes."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def refs_since(self, t0: float) -> list[float]:
        """Samples taken from REF_WINDOW_S before ``t0`` on, and at least
        the last one before it."""
        n = next((k for k, (t, _) in enumerate(self.samples) if t >= t0), len(self.samples))
        m = next((k for k, (t, _) in enumerate(self.samples) if t >= t0 - REF_WINDOW_S), n)
        return [r for _, r in self.samples[max(min(m, n - 1), 0):]]
