"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by tens of percent
over tens of seconds (another tenant on the sibling hyperthread, host
frequency changes). Measured with one BLAS thread on a 2-vCPU VM, the same
crossing frames took 728 ms in one 10 s window and 1016 ms in the next,
while the ratio of frame time to the fixed kernel below stayed within 7%
(79.1 to 84.5) over the same four windows.

So a run times this kernel at regular intervals between its steps, and
every timing the benchmark reports is scaled to a machine on which the
kernel takes REF_MS: each timed step by the kernel time measured just
before it (the median of the last three samples), set-up and per-layer
times by the median kernel time of the run. The kernel is part of the
benchmark, never of the program, so a change to the program moves the
scaled numbers exactly as it moves wall time. Raw wall times and the kernel's median go into the run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 10.0
INTERVAL_S = 0.25


class SpeedProbe:
    """Times the reference kernel at most every INTERVAL_S seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(400, 400))
        self._spd = a @ a.T + 400.0 * np.eye(400)
        self._small = list(rng.normal(size=(200, 6, 6)))
        self._last = -float("inf")
        self.samples: list = []

    def _kernel(self):
        # the program's mix: dict-heavy Python, large zeroed arrays, a dense
        # Cholesky and many tiny matrix products
        d = {}
        for i in range(20000):
            d[(i % 97, i)] = i * 0.5
        h = np.zeros((660, 660))
        h[:400, :400] += self._spd
        np.linalg.cholesky(self._spd)
        for m in self._small:
            m @ m.T
        return sum(d.values()) + h[0, 0]

    def sample(self):
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - now)

    def current(self) -> float:
        """Kernel seconds now: the median of the last three samples."""
        self.sample()
        return statistics.median(self.samples[-3:])

    @staticmethod
    def scaled(step_times, step_refs):
        """Each step's wall seconds scaled by the kernel time measured just
        before it."""
        return [t * REF_MS / 1000.0 / ref for t, ref in zip(step_times, step_refs)]

    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds, from
        the median sample of the whole run."""
        if not self.samples:
            self.sample()
        return REF_MS / 1000.0 / statistics.median(self.samples)
