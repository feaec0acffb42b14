"""Sample summaries used by every workload (stdlib only).

Every reported timing is a median over many operations of one run.  A
tail percentile is only reported when enough samples sit beyond it:
``p90`` needs at least :data:`MIN_P90_SAMPLES` samples of that kind, so a
run that timed a handful of operations never prints a p90 that is really
its median.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Samples a kind needs before its p90 is reported (ten beyond the p90).
MIN_P90_SAMPLES = 100


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> Optional[float]:
    """The 90th percentile, or None below :data:`MIN_P90_SAMPLES` samples."""
    if len(values) < MIN_P90_SAMPLES:
        return None
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """``{"n", "p50", "p90"}`` of a sample (p90 None when too few)."""
    return {
        "n": len(values),
        "p50": median(values) if values else None,
        "p90": p90(values),
    }


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
