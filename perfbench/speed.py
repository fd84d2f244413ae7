"""Machine-speed probe: scales measured times to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds, for every process alike.  Between operations, at most every
PROBE_INTERVAL_S, a run times `SpeedProbe.probe`: a fixed numpy kernel of the
kinds the program spends its time in (a dgemm, a padded copy, a masked
elementwise pass and a pass over a 32 MB buffer; about 6 ms).  An
operation's wall time is scaled by REFERENCE_PROBE_S / (median of the probe
in effect and its two neighbours), which reports it as if the machine ran at
the speed it had when the reference was measured.

The probe does not use sgen, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 6.0e-3  # median in-run probe time on the baseline machine (README)
PROBE_INTERVAL_S = 0.5

STREAM_BYTES = 32 * 2**20  # the probe's streamed buffer, resident for a whole run


class SpeedProbe:
    """Probe samples taken between operations: (start, end, probe time) each.

    The probe's arrays, outputs included, are allocated once here: a probe
    allocates nothing, so its time does not depend on what the preceding
    operation left in the allocator.
    """

    def __init__(self):
        rng = np.random.default_rng(20181229)
        self._a = rng.random((64, 576))
        self._b = rng.random((576, 256))
        self._c = rng.random((8, 8, 48, 48))
        self._s = rng.random(STREAM_BYTES // 8)
        self._x = np.empty((64, 256))
        self._y = np.zeros((8, 8, 50, 50))
        self._z = np.empty_like(self._y)
        self.samples: list[tuple[float, float, float]] = []
        self.op_sample: list[int] = []  # per operation: the sample in effect

    def _kernel(self) -> float:
        np.matmul(self._a, self._b, out=self._x)
        self._y[:, :, 1:-1, 1:-1] = self._c
        np.multiply(self._y, 0.2, out=self._z)
        np.copyto(self._z, self._y, where=self._y > 0.5)
        np.negative(self._s, out=self._s)
        return float(self._z.sum() + self._x[0, 0] + self._s[-1])

    def probe(self) -> float:
        """Run the kernel twice and return the second run's wall time in seconds.

        The untimed first run brings the probe's arrays back into the caches
        the preceding operation evicted them from, so the probe's time depends
        on the machine, not on what ran before it.
        """
        self._kernel()
        t0 = perf_counter()
        value = self._kernel()
        t1 = perf_counter()
        if not np.isfinite(value):
            raise FloatingPointError("speed probe produced a non-finite value")
        return t1 - t0

    def before_op(self) -> None:
        """Probe if PROBE_INTERVAL_S has passed since the last probe."""
        t0 = perf_counter()
        if not self.samples or t0 - self.samples[-1][1] >= PROBE_INTERVAL_S:
            timed = self.probe()
            self.samples.append((t0, perf_counter(), timed))
        self.op_sample.append(len(self.samples) - 1)

    def factors(self) -> list[float]:
        """Per sample: REFERENCE_PROBE_S over the median of it and its neighbours."""
        d = [timed for _, _, timed in self.samples]
        return [REFERENCE_PROBE_S / statistics.median(d[max(0, i - 1):i + 2])
                for i in range(len(d))]

    def scale_ops(self, op_seconds: list[float]) -> list[float]:
        """Scale each operation by the factor of the probe in effect when it started."""
        if len(op_seconds) != len(self.op_sample):
            raise ValueError(f"{len(self.op_sample)} operations probed, "
                             f"{len(op_seconds)} timed")
        f = self.factors()
        return [s * f[i] for s, i in zip(op_seconds, self.op_sample)]

    def scale_interval(self, start: float, end: float) -> float:
        """Scaled length of [start, end] with the probes' own time left out.

        Each stretch between probes is scaled by the factor of the probe that
        opens it; the stretch before the first probe by the first factor.
        """
        if not self.samples:
            return end - start
        f = self.factors()
        total = (self.samples[0][0] - start) * f[0]
        for i, (_, probe_end, _) in enumerate(self.samples):
            stop = self.samples[i + 1][0] if i + 1 < len(self.samples) else end
            total += (stop - probe_end) * f[i]
        return total

    def busy_seconds(self) -> float:
        """Wall time spent inside the probe, warm-up runs included."""
        return sum(end - start for start, end, _ in self.samples)

    def median_seconds(self) -> float:
        return statistics.median(timed for _, _, timed in self.samples) \
            if self.samples else float("nan")
