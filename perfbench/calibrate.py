"""Machine-speed probe that steadies timings on a shared host.

On a host shared with other tenants the same operation can take 1.5x
longer for minutes at a time, so raw medians of two runs minutes apart
disagree by far more than any useful regression bound.  The probe is a
fixed ~13 ms mix of the work the program does -- small-array NumPy
gathers and reductions, dict inserts, ``SeedSequence`` generator
construction -- and it does not touch the program.  The benchmark runs
it between every two timed units (set-ups and operations) and divides
each unit's host time by the mean probe time on either side of it.
Multiplying by :data:`REFERENCE_SECONDS` turns that ratio back into
seconds: the unit's time on a host where the probe takes 12.5 ms, as it
does on the 2-core box the benchmark was tuned on when that box is
otherwise idle.

Measured over 200 s of ``stream_horizon`` operations, the median of
operation/probe ratios in 15-second windows spread by 3% (distance
between quartiles over the median), against 12% for the raw medians.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time, in seconds, that normalized timings are expressed in.
REFERENCE_SECONDS = 0.0125

_rng = np.random.default_rng(0)
_PLANE = _rng.random((16, 35))
_NEIGHBORS = _rng.integers(0, 35, (35, 3))


def probe() -> float:
    """Run the fixed reference work once; returns its host time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        gathered = _PLANE[:, _NEIGHBORS]
        low, high = gathered.min(axis=2), gathered.max(axis=2)
        mid = np.where(low < high, (low + high) * 0.5, _PLANE)
        acc += float(np.abs(mid - _PLANE).max())
    table = {}
    for i in range(3000):
        table[(i, i & 7)] = i
    for i in range(40):
        np.random.default_rng(np.random.SeedSequence([i, 1, 2, 3, 4])).uniform(0.0, 1.0)
    return time.perf_counter() - start


def normalized(seconds: float, probe_seconds: float) -> float:
    """``seconds`` rescaled to a host where the probe takes the reference time."""
    return seconds * REFERENCE_SECONDS / probe_seconds
