"""Host-calibrated seconds: measured time rescaled to one fixed host speed.

The reference host runs the same work up to 1.9x slower in phases that last
from a fraction of a second to minutes, and each phase slows all work alike.
So the raw seconds of two runs made minutes apart differ by more than a
program change is held to, however the repetitions of one run are reduced.

The benchmark therefore times a reference chunk next to the program. The
chunk is a fixed mix of interpreter and small-array numpy work, like the
program's, and uses none of the program's code. A repetition is timed in
stretches. A chunk runs at the repetition's start, at its end, and at the
first call of a SITES function after every GAP_S of it. Each stretch is
scaled by REF_S over the mean of the two chunks around it. That is the time
the stretch would take on a host where one chunk takes REF_S. The chunks'
own time counts in neither the raw nor the calibrated seconds.
"""

from __future__ import annotations

import time

import numpy as np
from tracer import LEAVES, PHASES
from workloads import patched

perf_counter = time.perf_counter

# The calibrated unit: seconds on a host where one reference chunk takes REF_S.
REF_S = 1e-3
GAP_S = 0.05
CHUNK_ITERS = 150

# The names callers resolve for the phase functions and for the per-step
# calls inside them, which come often enough to end a stretch near GAP_S.
SITES = (
    *PHASES.values(),
    *LEAVES["autodiff.meta_grad"],
    *LEAVES["autodiff.eval_with_gradient"],
    *LEAVES["tasks.generate_autoencoder_batch"],
)

_VEC = np.full(8, 0.5)
_MAT = np.full((16, 16), 1.0 / 16.0)


def reference_chunk():
    """Seconds of one run of the fixed reference work."""
    t = perf_counter()
    total = 0.0
    for i in range(CHUNK_ITERS):
        total += float((_VEC * 1.0001 + 0.1).sum())
        _MAT @ _MAT
        {"k": [i, i + 1]}
    return perf_counter() - t


def scaled(raw, chunk_before, chunk_after):
    """`raw` seconds at the host speed where one chunk takes REF_S."""
    return raw * 2.0 * REF_S / (chunk_before + chunk_after)


class Calibrator:
    """Times one repetition at a time, between `begin()` and `end()`."""

    def __init__(self):
        self._since = None

    def begin(self):
        """Start timing a repetition; returns its start time."""
        self._chunk = reference_chunk()
        self.raw = self.calibrated = 0.0
        self._since = perf_counter()
        return self._since

    def _cut(self):
        stretch = perf_counter() - self._since
        chunk = reference_chunk()
        self.raw += stretch
        self.calibrated += scaled(stretch, self._chunk, chunk)
        self._chunk = chunk
        self._since = perf_counter()

    def tick(self):
        if self._since is not None and perf_counter() - self._since >= GAP_S:
            self._cut()

    def end(self):
        """(raw, calibrated) seconds of the repetition."""
        self._cut()
        self._since = None
        return self.raw, self.calibrated

    def installed(self):
        """Cut stretches at calls of the SITES functions while inside."""

        def wrap(orig):
            def ticking(*args, **kwargs):
                self.tick()
                return orig(*args, **kwargs)

            return ticking

        return patched(SITES, wrap)
