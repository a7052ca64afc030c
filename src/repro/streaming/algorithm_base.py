"""Abstract base class for multi-pass streaming set cover algorithms."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.streaming.space import SpaceMeter, SpaceReport
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_size


@dataclass
class StreamingResult:
    """Outcome of running a streaming algorithm on a stream.

    Attributes
    ----------
    solution:
        Indices of the chosen sets (empty for estimation-only algorithms).
    estimated_value:
        The algorithm's estimate of the optimal value (defaults to the
        solution size when a solution is produced).
    passes:
        Number of passes consumed over the stream.
    space:
        Space report from the algorithm's meter.
    metadata:
        Free-form per-algorithm diagnostics (e.g. sampled-universe sizes).
    """

    solution: List[int] = field(default_factory=list)
    estimated_value: Optional[float] = None
    passes: int = 0
    space: SpaceReport = field(default_factory=SpaceReport)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def solution_size(self) -> int:
        """Number of sets in the returned solution."""
        return len(self.solution)


class StreamingAlgorithm(abc.ABC):
    """Base class: a streaming algorithm consumes a :class:`SetStream`.

    Subclasses implement :meth:`run`, calling ``stream.batched_pass()`` once
    per pass (directly or through :meth:`_admission_pass`) and charging
    their retained state to ``self.space``.  The engine arms a fresh meter
    there for every run, carrying its space budget if it has one; the
    unbudgeted meter made here serves a direct :meth:`run` call.
    """

    #: Human-readable name used in experiment tables.
    name: str = "streaming-algorithm"

    def __init__(self) -> None:
        self.space = SpaceMeter()

    @abc.abstractmethod
    def run(self, stream: SetStream) -> StreamingResult:
        """Process the stream and return the result."""

    # -- helpers shared by implementations ---------------------------------
    def _finalize(
        self,
        stream: SetStream,
        solution: List[int],
        estimated_value: Optional[float] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> StreamingResult:
        """Assemble a :class:`StreamingResult` with the standard bookkeeping."""
        if estimated_value is None and solution:
            estimated_value = float(len(solution))
        return StreamingResult(
            solution=list(solution),
            estimated_value=estimated_value,
            passes=stream.passes_consumed,
            space=self.space.report(),
            metadata=dict(metadata or {}),
        )

    def _admission_pass(
        self,
        stream: SetStream,
        uncovered: int,
        threshold: float,
        chosen: Set[int],
        solution: List[int],
    ) -> int:
        """One pass admitting every set that still covers ``threshold`` elements.

        Walks :attr:`~SetStream.arrival_order` and admits each set not yet in
        ``chosen`` whose gain against the live ``uncovered`` mask is at least
        ``threshold``, charging ``solution`` on every admission, until nothing
        is left uncovered.  One kernel call computes every gain against the
        pass-entry universe: gains only shrink as picks land, so a set below
        the threshold there can never reach it, and only the survivors are
        re-checked.  Returns the uncovered mask after the pass.
        """
        system = stream.batched_pass()
        entry_gains = system.kernel().gains(uncovered)
        for set_index in stream.arrival_order:
            if uncovered == 0:
                break
            if set_index in chosen or entry_gains[set_index] < threshold:
                continue
            mask = system.mask(set_index)
            if bitset_size(mask & uncovered) >= threshold:
                chosen.add(set_index)
                solution.append(set_index)
                uncovered &= ~mask
                self.space.set_usage("solution", len(solution))
        return uncovered
