"""Engine for running streaming algorithms with space enforcement.

The engine is deliberately thin: it builds the stream, arms the algorithm's
space meter with the declared budget, hands it the stream, then (when asked)
verifies the result against the instance itself.  Keeping verification
outside the algorithms means an algorithm cannot accidentally report better
numbers than it achieved — in particular, an empty solution is verified like
any other, so a broken algorithm cannot report an unverified "cover" of size
0 over a nonempty universe.

The engine never inspects which compute-kernel backend the instance rides
on: a run is byte-identical whether the batched primitives execute on the
pure-Python or the NumPy kernel — the cross-backend ``StreamingResult``
parity ``tests/property/test_prop_streaming.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.service.deadline import check_deadline
from repro.setcover.instance import SetSystem
from repro.setcover.verify import verify_cover
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import SetStream, StreamOrder
from repro.telemetry import metrics
from repro.telemetry.spans import span
from repro.utils.rng import SeedLike


@dataclass
class EngineConfig:
    """Configuration for a single engine run.

    ``space_budget`` (words) is the budget of the fresh :class:`SpaceMeter`
    each run arms on the algorithm, so exceeding the analysed space bound
    raises :class:`~repro.exceptions.SpaceBudgetExceededError` mid-run
    (Remark 3.9); ``None`` leaves the meter unbudgeted.  The engine is the
    only place a budget is set.  ``verify_solution`` checks the returned
    cover against the instance — set it to ``False`` only for
    estimation-only or max-coverage algorithms whose solutions are not meant
    to be covers.
    """

    order: StreamOrder = StreamOrder.ADVERSARIAL
    seed: SeedLike = None
    space_budget: Optional[int] = None
    verify_solution: bool = True


class MultiPassEngine:
    """Runs a :class:`StreamingAlgorithm` over a :class:`SetSystem`."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()

    def run(
        self,
        algorithm: StreamingAlgorithm,
        system: SetSystem,
    ) -> StreamingResult:
        """Execute the algorithm under the configured space budget.

        Every run starts the algorithm on a fresh :class:`SpaceMeter` (with
        the configured space budget), so the result's
        :class:`~repro.streaming.space.SpaceReport` is this run's alone, and
        after a budget overrun ``algorithm.space`` holds the charges up to
        the overrun.

        Cooperative deadlines: an ambient request deadline (armed by the
        service front end via :mod:`repro.service.deadline`) is checked here
        before any work starts, at every pass grant inside
        :class:`~repro.streaming.stream.SetStream`, and again before the
        (potentially expensive) solution verification — so an expired
        request never buys another pass or a verification sweep, yet an
        algorithm is never torn down mid-kernel-call.
        """
        check_deadline()
        algorithm.space = SpaceMeter(budget=self.config.space_budget)
        stream = SetStream(
            system,
            order=self.config.order,
            seed=self.config.seed,
        )
        metrics.add("engine.runs")
        with span(
            "engine.run",
            algorithm=type(algorithm).__name__,
            n=system.universe_size,
            m=system.num_sets,
            order=self.config.order.value,
            backing=system.backing,
        ) as active:
            result = algorithm.run(stream)
            active.set(
                passes=result.passes,
                solution_size=len(result.solution),
                peak_words=result.space.peak_words if result.space else 0,
            )
        if self.config.verify_solution:
            check_deadline()
            with span("engine.verify", solution_size=len(result.solution)):
                verify_cover(system, result.solution)
        return result


def run_streaming_algorithm(
    algorithm: StreamingAlgorithm,
    system: SetSystem,
    order: StreamOrder = StreamOrder.ADVERSARIAL,
    seed: SeedLike = None,
    space_budget: Optional[int] = None,
    verify_solution: bool = True,
) -> StreamingResult:
    """One-call convenience wrapper around :class:`MultiPassEngine`."""
    engine = MultiPassEngine(
        EngineConfig(
            order=order,
            seed=seed,
            space_budget=space_budget,
            verify_solution=verify_solution,
        )
    )
    return engine.run(algorithm, system)
