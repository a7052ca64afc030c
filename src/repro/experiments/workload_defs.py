"""Workload sweeps: the paper's hard distributions as schedulable runs.

``run_workload_sweep`` is a generic experiment runner that builds one
workload instance — the adversarial lower-bound distributions D_SC / D_MC
(experiments E5–E8's hard instances) or the structured random / coverage
generators — streams it to a named set cover algorithm under a chosen
arrival order, and reports the solution quality together with the
:class:`~repro.streaming.space.SpaceReport` peaks.  Registered in the
runner registry under ``"WL"``, it is the runner behind the ``ADV``
scenario grids in :mod:`repro.runtime.scenarios`: every combination of
``{dsc, dmc, random, coverage} × {adversarial, random} × algorithm`` is one
reproducible, store/resume-cacheable task for the sharded executor.

Hard instances may be uncoverable at finite scale (a θ=0 D_SC sample can
leave elements uncovered by every set), so the engine-side verification is
replaced by an explicit feasibility column; ``space_budget`` arms the
engine's :class:`~repro.streaming.space.SpaceMeter` and a budget overrun is
reported as a row outcome instead of aborting the sweep.

A grid over one attached instance (``repro run --instance-file``) hands
every cell the same :class:`~repro.setcover.source.SourceDescriptor`.  What
depends only on that instance — the opened (and so digest-verified) source,
its system and the greedy opt guess — is computed once per process and kept
in a one-entry cache keyed by the descriptor; the executor empties it when
a run ends (:func:`release_instance_cache`).  On that path ``workload`` only
labels the rows, so the engine run is reused too: cells of one process that
share the descriptor and every other keyword (the ``ADV`` grid's four
workload labels per algorithm and order) run the engine once, and each
builds its own table, findings, title and ``outcome_row`` degradation from
the shared outcome.  The key of that shared run, :func:`outcome_key`, also
plans the executor's chunks: a pool ships a group's cells to one worker,
so the grid runs each engine computation once at any worker count.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.baselines import (
    EmekRosenSemiStreaming,
    IterativePruningSetCover,
    ProgressiveGreedyPasses,
    SahaGetoorGreedy,
    StoreEverythingSetCover,
)
from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
from repro.exceptions import InfeasibleInstanceError, SpaceBudgetExceededError
from repro.resilience.degrade import record_degradation
from repro.experiments.harness import ExperimentResult
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.setcover.source import InstanceSource, SourceDescriptor
from repro.setcover.verify import is_feasible_cover
from repro.streaming.engine import run_streaming_algorithm
from repro.streaming.space import SpaceReport
from repro.streaming.stream import StreamOrder
from repro.telemetry import metrics
from repro.telemetry.instrument import rebind_kernel
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.tables import Table
from repro.workloads.adversarial import dmc_stream_instance, dsc_stream_instance
from repro.workloads.coverage import topic_coverage_instance
from repro.workloads.random_instances import random_instance

#: The workload axis: adversarial lower-bound distributions plus the
#: structured generators, by registry key.
WORKLOAD_KINDS = ("dsc", "dmc", "random", "coverage")

#: The algorithm axis: Algorithm 1 plus the five set cover baselines of E11.
ALGORITHM_KINDS = (
    "algorithm1",
    "har_peled",
    "demaine",
    "saha_getoor",
    "emek_rosen",
    "store_everything",
)


def _build_instance(
    workload: str,
    rng: RandomSource,
    universe_size: int,
    num_sets: int,
    num_pairs: int,
    alpha: int,
    epsilon: float,
    cover_size: int,
    theta: Optional[int],
) -> SetCoverInstance:
    if workload == "dsc":
        return dsc_stream_instance(
            universe_size, num_pairs, alpha, theta=theta, seed=rng.spawn()
        )
    if workload == "dmc":
        return dmc_stream_instance(num_pairs, epsilon, theta=theta, seed=rng.spawn())
    if workload == "random":
        return random_instance(universe_size, num_sets, seed=rng.spawn())
    if workload == "coverage":
        return topic_coverage_instance(
            universe_size, num_sets, communities=max(2, cover_size), seed=rng.spawn()
        )
    raise ValueError(
        f"unknown workload {workload!r}; expected one of {WORKLOAD_KINDS}"
    )


def _offline_opt_guess(instance: SetCoverInstance) -> int:
    """Opt guess for the guess-driven algorithms: planted opt or greedy bound.

    Restricting greedy to the coverable part keeps the guess defined on hard
    instances whose union misses part of the universe.
    """
    if instance.planted_opt:
        return instance.planted_opt
    system = instance.system
    coverable = system.coverage_mask(range(system.num_sets))
    if not coverable:
        return 1
    try:
        return max(1, len(greedy_set_cover(system, required_mask=coverable)))
    except InfeasibleInstanceError:  # pragma: no cover - coverable mask given
        return 1


class _Outcome(NamedTuple):
    """What one cell's engine run produced; nothing in it depends on ``workload``."""

    solution_size: Optional[int]
    feasible: bool
    passes: Optional[int]
    space: SpaceReport
    budget_exceeded: bool = False
    infeasible: bool = False


#: The outcomes of the cells run on one instance, keyed by :func:`outcome_key`.
_Outcomes = Dict[Tuple[Any, ...], _Outcome]


class _InstanceCache:
    """The derived data of the last descriptor opened in this process.

    One entry: the open source, its :class:`SetCoverInstance`, its
    :func:`_offline_opt_guess` and the engine outcomes of the cells run on
    it, keyed by the whole descriptor (kind, shape, location and digest; a
    heap descriptor's inline bytes too).  A miss opens the descriptor,
    which verifies its bytes against its digest, so an entry only ever
    answers for the bytes its key names; it replaces (and closes) the
    previous entry, outcomes included.  A hit reopens and recomputes
    nothing; it only moves the cached kernel's meters to the hitting task's
    telemetry session.  Outcomes are keyed by :func:`outcome_key`: every
    runner keyword except ``workload``, the one input that only labels a
    cell's rows; what a cell builds from its outcome (table, findings,
    title, degradation record) is built per cell.  The cached system's
    kernel may switch strategy as cells run on it (the NumPy inverted
    index), never its answers, so no cell's result depends on the cells
    that ran before it.  A process runs one task at a time (serially, or
    one per pool worker), so the entry needs no lock.
    """

    def __init__(self) -> None:
        self._key: Optional[SourceDescriptor] = None
        self._entry: Optional[Tuple[InstanceSource, SetCoverInstance, int, _Outcomes]] = None

    def get(self, descriptor: SourceDescriptor) -> Tuple[SetCoverInstance, int, _Outcomes]:
        if self._entry is None or self._key != descriptor:
            from repro.setcover.source import open_source

            self.clear()
            source = open_source(descriptor)
            try:
                instance = SetCoverInstance(SetSystem.from_source(source))
                opt_guess = _offline_opt_guess(instance)
            except BaseException:
                source.close()
                raise
            self._key, self._entry = descriptor, (source, instance, opt_guess, {})
        else:
            rebind_kernel(self._entry[1].system.kernel())
        return self._entry[1:]

    def clear(self) -> None:
        """Drop the entry and close its source (idempotent)."""
        entry, self._key, self._entry = self._entry, None, None
        if entry is not None:
            entry[0].close()


#: The per-process instance cache: lives for one executor run in-process,
#: and until process exit in a pool worker.
_INSTANCE_CACHE = _InstanceCache()


def release_instance_cache() -> None:
    """Empty this process's instance cache, closing the source it holds."""
    _INSTANCE_CACHE.clear()


def _build_algorithm(algorithm: str, alpha: int, opt_guess: int, rng: RandomSource):
    if algorithm == "algorithm1":
        return StreamingSetCover(
            AlgorithmOneConfig(
                alpha=alpha,
                opt_guess=opt_guess,
                epsilon=0.5,
                subinstance_solver="greedy",
            ),
            seed=rng.spawn(),
        )
    if algorithm == "har_peled":
        return IterativePruningSetCover(alpha=alpha, opt_guess=opt_guess, seed=rng.spawn())
    if algorithm == "demaine":
        return ProgressiveGreedyPasses(num_passes=2 * alpha)
    if algorithm == "saha_getoor":
        return SahaGetoorGreedy()
    if algorithm == "emek_rosen":
        return EmekRosenSemiStreaming()
    if algorithm == "store_everything":
        return StoreEverythingSetCover(solver="greedy")
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_KINDS}"
    )


def _compute_cell(
    system: SetSystem,
    algorithm: str,
    alpha: int,
    opt_guess: int,
    rng: RandomSource,
    stream_order: StreamOrder,
    space_budget: Optional[int],
) -> _Outcome:
    """Build the algorithm and stream ``system`` to it: the cell's engine run."""
    runner = _build_algorithm(algorithm, alpha, opt_guess, rng)
    stream_seed = rng.spawn()
    try:
        result = run_streaming_algorithm(
            runner,
            system,
            order=stream_order,
            seed=stream_seed,
            space_budget=space_budget,
            verify_solution=False,
        )
    except SpaceBudgetExceededError:
        return _Outcome(None, False, None, runner.space.report(), budget_exceeded=True)
    except InfeasibleInstanceError:
        # A θ=0 hard instance can be uncoverable outright; algorithms with
        # offline sub-solves surface that as an exception.  It is a workload
        # outcome, not a sweep failure.
        return _Outcome(None, False, None, runner.space.report(), infeasible=True)
    return _Outcome(
        result.solution_size,
        is_feasible_cover(system, result.solution),
        result.passes,
        result.space,
    )


def outcome_key(runner: str, kwargs: Mapping[str, Any]) -> Optional[Tuple[Any, ...]]:
    """The engine run a task's cell shares with other cells, or ``None``.

    A WL cell on an attached instance shares its run with every cell that
    names the same runner, descriptor, seed and resolved keywords (defaults
    filled in) but ``workload``, which only labels its rows.  An experiment,
    or a WL cell that generates its instance, shares none.  The key names
    an outcome in the instance cache, and the executor plans its chunks by
    it, so the cells of one run reach one worker.
    """
    if runner != "WL" or kwargs.get("instance") is None:
        return None
    resolved = {**_SWEEP_DEFAULTS, **kwargs}
    return (runner,) + tuple(item for item in resolved.items() if item[0] != "workload")


def run_workload_sweep(
    workload: str = "dsc",
    algorithm: str = "algorithm1",
    order: str = "adversarial",
    universe_size: int = 96,
    num_sets: int = 24,
    num_pairs: int = 6,
    alpha: int = 2,
    epsilon: float = 0.35,
    cover_size: int = 3,
    theta: Optional[int] = None,
    space_budget: Optional[int] = None,
    seed: int = 20170,
    instance: Optional[SourceDescriptor] = None,
) -> ExperimentResult:
    """Run one workload × algorithm × arrival-order combination.

    Deterministic given ``seed``: the instance, the algorithm's internal
    randomness, and the stream-order shuffle draw from derived child
    streams.  The result table carries the space peaks (total and dominant
    category) so hard-instance sweeps through the runtime executor report
    exactly what Theorem 2's space accounting measures.

    ``instance`` short-circuits generation: a
    :class:`~repro.setcover.source.SourceDescriptor` referencing a heap,
    shared or file-backed instance, opened through the per-process instance
    cache (``workload`` then only labels the rows, and the generator knobs
    are ignored).  The instance-seed child stream is not spawned on this
    path, so two runs handed the same descriptor — on any backing,
    in-process or on the pool — draw identical algorithm and shuffle seeds
    and report identical bytes.  The engine outcome (solution size,
    feasibility, passes, space report, overrun and uncoverable flags) is
    kept in the cache entry under every keyword but ``workload``, so a
    later cell of the same process that differs only in its label reuses
    it (counted as ``workload.cells_reused``) instead of running the
    engine; the table, findings, title and ``outcome_row`` degradation
    are still built per cell.
    """
    keywords = dict(locals())  # every resolved keyword, for outcome_key
    stream_order = StreamOrder(order)
    if instance is None:
        rng = spawn_rng(seed)
        instance = _build_instance(
            workload,
            rng,
            universe_size,
            num_sets,
            num_pairs,
            alpha,
            epsilon,
            cover_size,
            theta,
        )
        opt_guess = _offline_opt_guess(instance)
        outcome = _compute_cell(
            instance.system, algorithm, alpha, opt_guess, rng, stream_order, space_budget
        )
    else:
        instance, opt_guess, outcomes = _INSTANCE_CACHE.get(instance)
        key = outcome_key("WL", keywords)
        outcome = outcomes.get(key)
        if outcome is None:
            outcome = outcomes[key] = _compute_cell(
                instance.system, algorithm, alpha, opt_guess, spawn_rng(seed),
                stream_order, space_budget,
            )
        else:
            metrics.add("workload.cells_reused")
    solution_size, feasible, passes, space, budget_exceeded, infeasible = outcome
    if budget_exceeded or infeasible:
        # Per cell, reused or not: one outcome row per overrun or
        # uncoverable cell, under this cell's workload label.
        record_degradation(
            "outcome_row",
            reason="space budget exceeded" if budget_exceeded else "instance uncoverable",
            workload=workload,
            algorithm=algorithm,
        )
    system = instance.system
    table = Table(
        [
            "workload",
            "algorithm",
            "order",
            "n",
            "m",
            "solution_size",
            "feasible",
            "passes",
            "peak_space_words",
            "dominant_category",
            "budget_exceeded",
            "instance_uncoverable",
        ],
        title="WL: workload x algorithm x arrival order",
    )
    table.add_row(
        workload,
        algorithm,
        stream_order.value,
        system.universe_size,
        system.num_sets,
        solution_size if solution_size is not None else "-",
        feasible,
        passes if passes is not None else "-",
        space.peak_words,
        space.dominant_category() or "-",
        budget_exceeded,
        infeasible,
    )
    findings: Dict[str, Any] = {
        "workload": workload,
        "algorithm": algorithm,
        "order": stream_order.value,
        "n": system.universe_size,
        "m": system.num_sets,
        "opt_guess": opt_guess,
        "solution_size": solution_size,
        "feasible": feasible,
        "passes": passes,
        # The full SpaceReport, surfaced per row so downstream analysis
        # (repro.analysis) never re-parses the rendered table.
        "peak_space_words": space.peak_words,
        "final_space_words": space.final_words,
        "dominant_category": space.dominant_category(),
        "peak_by_category": dict(space.peak_by_category),
        "stored_incidences_peak": space.peak_by_category.get("stored_incidences", 0),
        "space_budget": space_budget,
        "budget_exceeded": budget_exceeded,
        "instance_uncoverable": infeasible,
    }
    if instance.planted_opt is not None:
        findings["planted_opt"] = instance.planted_opt
    if "theta" in instance.metadata:
        findings["theta"] = instance.metadata["theta"]
    return ExperimentResult(
        experiment_id="WL",
        title=f"{workload} workload, {algorithm}, {stream_order.value} arrival",
        table=table,
        findings=findings,
    )


#: The keywords of :func:`run_workload_sweep` with their defaults.
_SWEEP_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(run_workload_sweep).parameters.items()
}

#: Runners this module contributes to the runner registry.
WORKLOAD_RUNNERS = {"WL": run_workload_sweep}
