"""Space–approximation tradeoff math over flattened analysis records.

The paper's headline result is the tight bound Θ̃(m·n^{1/α}) on the space of
an α-pass O(α)-approximation streaming set cover algorithm.  This module
turns a bag of :class:`~repro.analysis.records.AnalysisRecord` into the
curves that exhibit it: records are grouped along chosen axes (by algorithm;
by algorithm × workload; ...), each group's approximation ratio / pass count
/ peak space collapse into min–median–max :class:`Envelope` summaries across
seeds and sibling cells, and :func:`theoretical_curve` evaluates the paper's
``m·n^{1/α}`` reference line on the same scale for overlay.

Example — one group, hand-checkable envelope arithmetic::

    >>> lo, mid, hi = Envelope.from_values([4.0, 1.0, 2.0])
    >>> (lo, mid, hi)
    (1.0, 2.0, 4.0)
    >>> theoretical_curve(n=64, m=10, alphas=(1, 2))   # m * n^(1/alpha)
    [(1.0, 640.0), (2.0, 80.0)]
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.records import AnalysisRecord
from repro.core.tradeoff import theorem1_space_lower_bound

GroupKey = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class Envelope:
    """Min / median / max of a metric across a group of records."""

    lo: float
    mid: float
    hi: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Envelope":
        data = sorted(float(value) for value in values)
        if not data:
            raise ValueError("cannot build an envelope from no values")
        return cls(lo=data[0], mid=float(statistics.median(data)), hi=data[-1])

    def __iter__(self):
        yield self.lo
        yield self.mid
        yield self.hi

    def format(self, spec: str = ".3g") -> str:
        """Compact ``lo / mid / hi`` display (collapses constant envelopes)."""
        if self.lo == self.hi:
            return format(self.mid, spec)
        return " / ".join(format(value, spec) for value in self)


@dataclass(frozen=True)
class TradeoffPoint:
    """One group's aggregated position in the tradeoff space."""

    group: GroupKey
    count: int
    ratio: Optional[Envelope] = None
    space: Optional[Envelope] = None
    passes: Optional[Envelope] = None

    @property
    def label(self) -> str:
        """Human-readable group label (``algorithm=x, workload=y``)."""
        return ", ".join(f"{name}={value}" for name, value in self.group)

    @property
    def short_label(self) -> str:
        """Group values only — the usual series label (``x, y``)."""
        return ", ".join(str(value) for _, value in self.group)


def _envelope_of(
    records: Sequence[AnalysisRecord], attribute: str
) -> Optional[Envelope]:
    values = [
        value
        for value in (getattr(record, attribute) for record in records)
        if value is not None
    ]
    return Envelope.from_values(values) if values else None


def aggregate(
    records: Sequence[AnalysisRecord],
    by: Sequence[str] = ("algorithm",),
) -> List[TradeoffPoint]:
    """Group records by the given attributes and summarise each group.

    Records with a ``None`` value on any grouping attribute are excluded
    (they belong to runners that do not report that axis).  Groups come back
    sorted by their key, so output order is deterministic.
    """
    groups: Dict[GroupKey, List[AnalysisRecord]] = {}
    for record in records:
        values = [getattr(record, attribute) for attribute in by]
        if any(value is None for value in values):
            continue
        key: GroupKey = tuple(zip(by, values))
        groups.setdefault(key, []).append(record)
    return [
        TradeoffPoint(
            group=key,
            count=len(members),
            ratio=_envelope_of(members, "approx_ratio"),
            space=_envelope_of(members, "peak_space_words"),
            passes=_envelope_of(members, "passes"),
        )
        for key, members in sorted(groups.items(), key=lambda item: str(item[0]))
    ]


def space_approximation_points(
    records: Sequence[AnalysisRecord],
    by: Sequence[str] = ("algorithm",),
) -> List[TradeoffPoint]:
    """The groups that landed somewhere measurable in (ratio, space) space."""
    return [
        point
        for point in aggregate(records, by=by)
        if point.ratio is not None and point.space is not None
    ]


def theoretical_curve(
    n: int, m: int, alphas: Sequence[float] = (1, 2, 3, 4, 5)
) -> List[Tuple[float, float]]:
    """``(α, m·n^{1/α})`` samples of the paper's tradeoff reference line.

    Each value is Theorem 1's bound at one pass
    (:func:`~repro.core.tradeoff.theorem1_space_lower_bound`).
    """
    return [(float(alpha), theorem1_space_lower_bound(n, m, alpha)) for alpha in alphas]


def typical_instance_shape(
    records: Sequence[AnalysisRecord],
) -> Optional[Tuple[int, int]]:
    """Median ``(n, m)`` across the records that report an instance shape."""
    shapes = [
        (record.universe_size, record.num_sets)
        for record in records
        if record.universe_size and record.num_sets
    ]
    if not shapes:
        return None
    n = int(statistics.median(sorted(shape[0] for shape in shapes)))
    m = int(statistics.median(sorted(shape[1] for shape in shapes)))
    return n, m
