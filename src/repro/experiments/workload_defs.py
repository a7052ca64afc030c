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
a run ends (:func:`release_instance_cache`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

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
from repro.streaming.stream import StreamOrder
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


def _resolve_instance(instance: Any) -> Tuple[SetCoverInstance, int]:
    """An instance in any of its plane representations, with its opt guess.

    ``SetCoverInstance`` passes through; a bare ``SetSystem`` is wrapped; a
    :class:`~repro.setcover.source.SourceDescriptor` (heap, shared-memory or
    container-file reference — what ``repro run --instance-file`` attaches
    to every task) is answered by the per-process instance cache.
    """
    if isinstance(instance, SourceDescriptor):
        return _INSTANCE_CACHE.get(instance)
    if isinstance(instance, SetSystem):
        instance = SetCoverInstance(instance)
    if not isinstance(instance, SetCoverInstance):
        raise TypeError(
            "instance must be a SetCoverInstance, SetSystem, or SourceDescriptor, "
            f"got {type(instance).__name__}"
        )
    return instance, _offline_opt_guess(instance)


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


class _InstanceCache:
    """The derived data of the last descriptor opened in this process.

    One entry: the open source, its :class:`SetCoverInstance` and its
    :func:`_offline_opt_guess`, keyed by the whole descriptor (kind, shape,
    location and digest; a heap descriptor's inline bytes too).  A miss
    opens the descriptor, which verifies its bytes against its digest, so
    an entry only ever answers for the bytes its key names; it replaces
    (and closes) the previous entry.  A hit reopens and recomputes nothing;
    it only moves the cached kernel's meters to the hitting task's
    telemetry session.  The cached system's kernel may switch strategy as
    cells run on it (the NumPy inverted index), never its answers, so no
    cell's result depends on the cells that ran before it.  A process runs
    one task at a time (serially, or one per pool worker), so the entry
    needs no lock.
    """

    def __init__(self) -> None:
        self._key: Optional[SourceDescriptor] = None
        self._entry: Optional[Tuple[InstanceSource, SetCoverInstance, int]] = None

    def get(self, descriptor: SourceDescriptor) -> Tuple[SetCoverInstance, int]:
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
            self._key, self._entry = descriptor, (source, instance, opt_guess)
        else:
            rebind_kernel(self._entry[1].system.kernel())
        return self._entry[1], self._entry[2]

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
        return IterativePruningSetCover(
            alpha=alpha, opt_guess=opt_guess, subinstance_solver="greedy", seed=rng.spawn()
        )
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
    instance: Optional[Any] = None,
) -> ExperimentResult:
    """Run one workload × algorithm × arrival-order combination.

    Deterministic given ``seed``: the instance, the algorithm's internal
    randomness, and the stream-order shuffle draw from derived child
    streams.  The result table carries the space peaks (total and dominant
    category) so hard-instance sweeps through the runtime executor report
    exactly what Theorem 2's space accounting measures.

    ``instance`` short-circuits generation: pass a concrete
    :class:`SetCoverInstance` / :class:`SetSystem` (the caller keeps
    ownership of it), or a :class:`~repro.setcover.source.SourceDescriptor`
    referencing a heap, shared or file-backed instance, opened through the
    per-process instance cache (``workload`` then only labels the rows, and
    the generator knobs are ignored).  The instance-seed child stream is
    not spawned on this path, so two runs handed the same descriptor — on
    any backing, in-process or on the pool — draw identical algorithm
    and shuffle seeds and report identical bytes.
    """
    stream_order = StreamOrder(order)
    rng = spawn_rng(seed)
    if instance is not None:
        instance, opt_guess = _resolve_instance(instance)
    else:
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
    system = instance.system
    runner = _build_algorithm(algorithm, alpha, opt_guess, rng)
    stream_seed = rng.spawn()

    budget_exceeded = False
    infeasible = False
    try:
        result = run_streaming_algorithm(
            runner,
            system,
            order=stream_order,
            seed=stream_seed,
            space_budget=space_budget,
            verify_solution=False,
        )
        solution_size: Optional[int] = result.solution_size
        feasible = is_feasible_cover(system, result.solution)
        passes = result.passes
        space = result.space
    except SpaceBudgetExceededError:
        budget_exceeded = True
        solution_size = None
        feasible = False
        passes = None
        space = runner.space.report()
        record_degradation(
            "outcome_row",
            reason="space budget exceeded",
            workload=workload,
            algorithm=algorithm,
        )
    except InfeasibleInstanceError:
        # A θ=0 hard instance can be uncoverable outright; algorithms with
        # offline sub-solves surface that as an exception.  It is a workload
        # outcome, not a sweep failure.
        infeasible = True
        solution_size = None
        feasible = False
        passes = None
        space = runner.space.report()
        record_degradation(
            "outcome_row",
            reason="instance uncoverable",
            workload=workload,
            algorithm=algorithm,
        )

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


#: Runners this module contributes to the runner registry.
WORKLOAD_RUNNERS = {"WL": run_workload_sweep}
