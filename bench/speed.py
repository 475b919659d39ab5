"""Machine-speed reference: a fixed slice of work timed between requests.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by up to +-25 % over seconds to minutes.  The
drift moves the slice and the requests together (a 256 x 256 `eigvals`
and CSV formatting correlate at about 0.8 with a d = 256 `recover`), so
every timing is reported scaled to the speed at which the slice takes
``REF_SLICE_S``:

    reported = measured * REF_SLICE_S / mean(slice before, slice after)

A slice runs after every ``SLICE_EVERY_S`` of request time and after
every set-up, so the two slices bracket the timed interval.

The slice is the benchmark's own code and fixed data, independent of the
seed and of the package, so a change to the package cannot move it.  It
runs between requests, outside every timed interval; the unscaled
timings and the slice times are printed in the info line.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

# Median slice time on the 2-CPU x86_64 VM that made bench/baseline.json.
REF_SLICE_S = 0.115
# A slice runs after the request that brings the request time since the
# last slice to this many seconds.
SLICE_EVERY_S = 0.5


class SpeedProbe:
    """Times the reference slice and turns it into a speed factor."""

    def __init__(self, work: Path):
        rng = np.random.default_rng(20250128)
        self.matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.values = rng.standard_normal(24_000).tolist()
        self.path = work / "speed-slice.csv"
        self.samples: list[float] = []
        self.pending = 0.0

    def slice(self) -> float:
        """Time one slice; return the factor for the interval that it ends.

        The factor is REF_SLICE_S over the mean of this slice and the one
        before it, which bracket the interval.
        """
        t0 = time.perf_counter()
        np.linalg.eigvals(self.matrix)
        v = self.values
        with open(self.path, "w") as f:
            f.writelines(f"{v[k]!r},{v[k + 1]!r},{v[k + 2]!r}\n" for k in range(0, len(v), 3))
        self.samples.append(time.perf_counter() - t0)
        self.pending = 0.0
        return REF_SLICE_S / statistics.fmean(self.samples[-2:])

    def due(self, seconds: float) -> bool:
        """Count a request's time; true when a slice should follow it."""
        self.pending += seconds
        return self.pending >= SLICE_EVERY_S

    def info(self) -> dict:
        s = sorted(self.samples)
        return {
            "ref_slice_s": REF_SLICE_S,
            "slices": len(s),
            "slice_s_min_median_max": [s[0], statistics.median(s), s[-1]],
        }
