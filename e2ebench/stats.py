"""Order statistics the benchmark reports.

Every percentile here is nearest-rank: the value at 1-based rank
``ceil(p/100 * n)`` of the sorted samples, so it is always a measured
sample, never an interpolation.  A tail percentile is only trustworthy when
enough samples lie beyond it; :func:`beyond` and :func:`tail_percentile`
state that rule (at least ten samples strictly past the percentile's rank).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def nearest_rank(samples: Iterable[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``samples``."""
    ranked = sorted(samples)
    if not ranked:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    rank = max(1, math.ceil(p / 100.0 * len(ranked)))
    return ranked[rank - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie past the nearest-rank ``p``-th one."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(count: int, p: float = 95.0, tail: int = TAIL_SAMPLES) -> float:
    """The percentile to report as the tail of ``count`` samples.

    ``p`` when at least ``tail`` samples lie beyond it; otherwise the
    highest percentile that still leaves ``tail`` beyond, and never less
    than the median (a run of few long units has no measurable tail).
    """
    if beyond(count, p) >= tail:
        return p
    if count <= 0:
        return 50.0
    return max(50.0, min(p, 100.0 * (count - tail) / count))


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (the lower middle sample for even counts)."""
    return nearest_rank(samples, 50.0)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance of ``values`` as a share of their median.

    Uses :func:`statistics.quantiles` with ``n=4`` (the exclusive method),
    which is how run-to-run steadiness of the benchmark is judged.
    """
    import statistics

    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


__all__: List[str] = [
    "TAIL_SAMPLES",
    "beyond",
    "median",
    "nearest_rank",
    "quartile_spread",
    "tail_percentile",
]
