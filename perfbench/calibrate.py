"""A fixed calibration task that tracks how fast this host runs at the moment.

The hosts this benchmark runs on are shared: the same fixed computation takes
up to 1.7x longer in some minutes than in others, far more than the changes
the benchmark is meant to resolve. The probe below runs between operations,
and each timed call is rescaled by REFERENCE_S / (the mean of the probes
just before and just after its operation), i.e. expressed as seconds at the
speed the host had when REFERENCE_S was measured. The probe uses only the
standard library and numpy and never calls the package, so a change to the
package reaches it only through the state it leaves in the process (heap,
caches). Raw wall seconds are kept in each run's record.

On a 2-vCPU Xeon host the speed also swings from one operation to the next,
so a rescaling by the probes around each operation tracks it better than one
by the run's median probe: over 5 seeds of cli-solve, the spread
(interquartile range over median) of the per-run medians was 0.06-0.08 with
it, 0.16-0.19 with the run's median probe and 0.14-0.17 unscaled. It tracks
the host best when probes are frequent, hence EVERY_S. It cannot track waits
on the disk, so workloads avoid them in the timed region.

Its mix mirrors the workloads': JSON parsing, small-object construction and
JSON writing for the CLI path, a stable sort, random gathers and running
maxima for the array layers.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median probe seconds on a 2-vCPU Intel Xeon with Python 3.11.7 and numpy 2.4.6
REFERENCE_S = 0.14
# least wall time between probes; ops shorter than this share a probe
EVERY_S = 0.4


class _Row:
    __slots__ = ("id", "p", "r_lo", "r_hi")

    def __init__(self, id, p, r_lo, r_hi):
        self.id, self.p, self.r_lo, self.r_hi = id, p, r_lo, r_hi


class Probe:
    """Times one fixed task per call and keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.keys = rng.integers(0, 1 << 40, 300_000)
        self.perm = rng.permutation(300_000)
        self.doc = json.dumps([{"id": i, "p": i % 97 + 1, "r_lo": 3 * i, "r_hi": 3 * i + i % 11}
                               for i in range(20_000)])
        self.samples: list[float] = []
        self._last = float("-inf")

    def __call__(self) -> None:
        t0 = time.perf_counter()
        rows = [_Row(**d) for d in json.loads(self.doc)]
        json.dumps([[r.id, r.p, r.r_lo, r.r_hi] for r in rows])
        order = np.argsort(self.keys, kind="stable")
        np.maximum.accumulate(np.cumsum(self.keys[order][self.perm]))
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe(self) -> None:
        """Run the probe if EVERY_S has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self()

    def factor(self) -> float:
        """Multiplier that turns this run's wall seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def factor_around(self, i: int) -> float:
        """The same for a span timed between sample i and the next one."""
        return REFERENCE_S / statistics.mean(self.samples[i:i + 2])
