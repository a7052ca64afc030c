"""Space accounting for streaming algorithms.

The paper measures space in bits / machine words of retained state.  In this
reproduction the dominant space term of every algorithm is the number of
*(set, element) incidences* it stores (projected sets, sampled elements), plus
a smaller number of auxiliary words (counters, chosen indices, the sampled
universe).  :class:`SpaceMeter` tracks both as named categories, records the
peak across the run, and can enforce a hard budget (Remark 3.9: an algorithm
can be terminated deterministically when it attempts to exceed its analysed
space bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import SpaceBudgetExceededError
from repro.telemetry import metrics


@dataclass
class SpaceReport:
    """Summary of an algorithm's space usage over a full run.

    Attributes
    ----------
    peak_words:
        Maximum total words held at any instant.
    final_words:
        Words held when the algorithm finished.
    peak_by_category:
        Peak usage broken down by the categories the algorithm declared
        (e.g. ``"stored_incidences"``, ``"sampled_universe"``, ``"solution"``).
    """

    peak_words: int = 0
    final_words: int = 0
    peak_by_category: Dict[str, int] = field(default_factory=dict)

    def dominant_category(self) -> Optional[str]:
        """Return the category with the largest peak usage, if any."""
        if not self.peak_by_category:
            return None
        return max(self.peak_by_category, key=lambda k: self.peak_by_category[k])


class SpaceMeter:
    """Tracks the words of memory a streaming algorithm currently holds.

    Algorithms call :meth:`charge` / :meth:`release` (or :meth:`set_usage` for
    absolute updates) with a category label.  The meter keeps the running
    total, per-category peaks, and the global peak, and optionally raises
    :class:`SpaceBudgetExceededError` when a hard budget is exceeded.
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self._budget = budget
        self._current: Dict[str, int] = {}
        self._total = 0  # sum(self._current.values()), kept up to date
        self._peak_by_category: Dict[str, int] = {}
        self._peak_total = 0

    # -- mutation ---------------------------------------------------------
    def charge(self, category: str, words: int) -> None:
        """Add ``words`` to the given category (words may not be negative)."""
        if words < 0:
            raise ValueError(f"charge must be non-negative, got {words}")
        self.set_usage(category, self._current.get(category, 0) + words)

    def release(self, category: str, words: Optional[int] = None) -> None:
        """Remove ``words`` from the category (all of it when ``words`` is None)."""
        held = self._current.get(category, 0)
        if words is None:
            words = held
        if words < 0:
            raise ValueError(f"release must be non-negative, got {words}")
        if words > held:
            raise ValueError(
                f"cannot release {words} words from category {category!r} holding {held}"
            )
        self.set_usage(category, held - words)

    def set_usage(self, category: str, words: int) -> None:
        """Set the absolute usage of a category, updating peaks and budget."""
        if words < 0:
            raise ValueError(f"usage must be non-negative, got {words}")
        current = self._current
        total = self._total + words - current.get(category, 0)
        current[category] = words
        self._total = total
        # A category's first update inserts its peak (0 included), so the
        # report lists categories in the order they were first used.
        peaks = self._peak_by_category
        if words > peaks.get(category, -1):
            peaks[category] = words
        if total > self._peak_total:
            self._peak_total = total
        # Telemetry gauges record the high-water series per category and in
        # total, only while a session is capturing.
        registry = metrics.active()
        if registry is not None:
            registry.gauge_set(f"space.{category}", words)
            registry.gauge_set("space.total_words", total)
        if self._budget is not None and total > self._budget:
            raise SpaceBudgetExceededError(total, self._budget)

    def reset_category(self, category: str) -> None:
        """Drop a category's current usage to zero (peak is retained)."""
        self.set_usage(category, 0)

    # -- queries ------------------------------------------------------------
    @property
    def budget(self) -> Optional[int]:
        """The hard budget in words, or None when unenforced."""
        return self._budget

    @property
    def current_words(self) -> int:
        """Total words currently held across all categories."""
        return self._total

    @property
    def peak_words(self) -> int:
        """Largest total ever held."""
        return self._peak_total

    def usage(self, category: str) -> int:
        """Current words held in one category."""
        return self._current.get(category, 0)

    def report(self) -> SpaceReport:
        """Snapshot the meter into an immutable :class:`SpaceReport`."""
        return SpaceReport(
            peak_words=self._peak_total,
            final_words=self.current_words,
            peak_by_category=dict(self._peak_by_category),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceMeter(current={self.current_words}, peak={self._peak_total}, "
            f"budget={self._budget})"
        )
