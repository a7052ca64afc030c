"""Set streams: the input presentation layer of the streaming model.

A :class:`SetStream` wraps a :class:`~repro.setcover.SetSystem` together with
an arrival order.  Orders can be adversarial (the system's native order),
uniformly random (as in Theorem 1's random arrival setting), or an explicit
permutation.  The stream counts how many passes have been consumed; that
count is the pass figure every result reports.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.resilience.faults import inject, task_scoped
from repro.service.deadline import check_deadline
from repro.setcover.instance import SetSystem
from repro.telemetry import metrics
from repro.telemetry.spans import event
from repro.utils.rng import RandomSource, SeedLike, spawn_rng


class StreamOrder(enum.Enum):
    """How sets are ordered within each pass of the stream."""

    ADVERSARIAL = "adversarial"
    RANDOM = "random"
    CUSTOM = "custom"


class SetStream:
    """A multi-pass stream of the sets of a system, in a fixed arrival order.

    Parameters
    ----------
    system:
        The underlying set system.
    order:
        Arrival order policy.  With :attr:`StreamOrder.RANDOM`, a fresh uniform
        permutation is drawn *once* (random arrival means the stream order is
        random but fixed across passes, matching the model in Section 3.3).
    permutation:
        Explicit permutation of set indices when ``order`` is CUSTOM.
    seed:
        Randomness source for the RANDOM order.
    """

    def __init__(
        self,
        system: SetSystem,
        order: StreamOrder = StreamOrder.ADVERSARIAL,
        permutation: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> None:
        self._system = system
        self._order = order
        self._passes_consumed = 0
        if order is StreamOrder.CUSTOM:
            if permutation is None:
                raise ValueError("CUSTOM order requires an explicit permutation")
            if sorted(permutation) != list(range(system.num_sets)):
                raise ValueError("permutation must cover each set index exactly once")
            self._permutation: List[int] = list(permutation)
        elif order is StreamOrder.RANDOM:
            rng: RandomSource = spawn_rng(seed)
            self._permutation = rng.permutation(system.num_sets)
        else:
            self._permutation = list(range(system.num_sets))

    # -- properties --------------------------------------------------------
    @property
    def system(self) -> SetSystem:
        """The underlying set system (the algorithms never read it directly)."""
        return self._system

    @property
    def universe_size(self) -> int:
        """Universe size n, known to the algorithm up front."""
        return self._system.universe_size

    @property
    def num_sets(self) -> int:
        """Number of sets m, known to the algorithm up front."""
        return self._system.num_sets

    @property
    def order(self) -> StreamOrder:
        """The arrival-order policy of this stream."""
        return self._order

    @property
    def arrival_order(self) -> List[int]:
        """The fixed permutation in which sets arrive each pass."""
        return list(self._permutation)

    @property
    def passes_consumed(self) -> int:
        """Number of full passes handed out so far."""
        return self._passes_consumed

    # -- passes --------------------------------------------------------------
    def batched_pass(self) -> SetSystem:
        """Consume one pass and return the underlying system for batched access.

        The only way to take a pass: an algorithm phrases the pass as kernel
        calls over the whole system (all marginal gains, all projections) and
        walks :attr:`arrival_order` where the order of arrival matters.
        Each call costs one pass, whatever the caller reads.

        Pass grants are the cooperative cancellation points of the serving
        path: when an ambient request deadline (see
        :mod:`repro.service.deadline`) has expired, the grant raises
        :class:`~repro.exceptions.DeadlineExceededError` before the pass is
        charged.  Without an armed deadline the check is one context-variable
        load — the batch path pays nothing.
        """
        check_deadline()
        # The key keeps its ``batched:`` prefix so seeded fault schedules
        # draw the same faults as when a second kind of pass existed.
        inject("engine.pass", key=task_scoped(f"batched:{self._passes_consumed + 1}"))
        self._passes_consumed += 1
        event(
            "stream.pass",
            number=self._passes_consumed,
            m=self._system.num_sets,
            backing=self._system.backing,
        )
        metrics.add("stream.passes")
        metrics.add("stream.sets_streamed", self._system.num_sets)
        return self._system
