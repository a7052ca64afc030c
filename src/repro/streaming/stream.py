"""Set streams: the input presentation layer of the streaming model.

A :class:`SetStream` wraps a :class:`~repro.setcover.SetSystem` together with
an arrival order.  Orders can be adversarial (the system's native order),
uniformly random (as in Theorem 1's random arrival setting), or an explicit
permutation.  The stream counts how many passes have been consumed so the
engine can enforce pass budgets.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Sequence, Tuple

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
    """A multi-pass stream of ``(set_index, set_mask)`` items.

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

    # -- iteration -----------------------------------------------------------
    def iterate_pass(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(original_set_index, set_mask)`` for one full pass.

        Each call counts as one pass over the stream regardless of whether the
        caller exhausts the iterator (a conservative accounting choice: partial
        passes still cost a pass, as they would in the streaming model).

        Pass grants are the cooperative cancellation points of the serving
        path: when an ambient request deadline (see
        :mod:`repro.service.deadline`) has expired, the grant raises
        :class:`~repro.exceptions.DeadlineExceededError` instead of handing
        out another full pass.  Without an armed deadline the check is one
        context-variable load — the batch path pays nothing.
        """
        check_deadline()
        inject("engine.pass", key=task_scoped(f"iterate:{self._passes_consumed + 1}"))
        self._passes_consumed += 1
        # A zero-duration event rather than a span: this is a generator, and
        # holding a span open across yields would leak its parent token into
        # the caller's context between items.
        event(
            "stream.pass",
            number=self._passes_consumed,
            mode="iterate",
            m=self._system.num_sets,
            backing=self._system.backing,
        )
        metrics.add("stream.passes")
        metrics.add("stream.sets_streamed", self._system.num_sets)
        for set_index in self._permutation:
            yield set_index, self._system.mask(set_index)

    def batched_pass(self) -> SetSystem:
        """Consume one pass and return the underlying system for batched access.

        The batched equivalent of :meth:`iterate_pass`: an algorithm that can
        phrase a whole pass as one kernel call (all marginal gains, all
        projections) reads the system directly instead of iterating
        ``(index, mask)`` pairs — but it still pays the pass, keeping the
        streaming model's accounting identical to the per-set loop.  Arrival
        order, where it matters, comes from :attr:`arrival_order`.

        Like :meth:`iterate_pass`, the grant is a cooperative cancellation
        point: an expired ambient deadline raises
        :class:`~repro.exceptions.DeadlineExceededError` before the pass is
        charged, and the check is free when no deadline is armed.
        """
        check_deadline()
        inject("engine.pass", key=task_scoped(f"batched:{self._passes_consumed + 1}"))
        self._passes_consumed += 1
        event(
            "stream.pass",
            number=self._passes_consumed,
            mode="batched",
            m=self._system.num_sets,
            backing=self._system.backing,
        )
        metrics.add("stream.passes")
        metrics.add("stream.sets_streamed", self._system.num_sets)
        return self._system

    def reset(self) -> None:
        """Reset the pass counter (the arrival order is preserved)."""
        self._passes_consumed = 0
