"""Declarative scenario registry for the experiment runtime.

A *scenario* names one reproducible workload: which experiment runner to
call, with which parameter overrides, how many repetitions, and under which
root seed.  A *grid* is a cartesian product of parameter axes that expands
into one scenario per combination.  Registered scenarios are what the
executor shards across workers and what the result store fingerprints, so a
new workload sweep is a one-liner registration here rather than a new script.

The twelve paper experiments (E1–E12) are auto-registered at import time,
wrapping :data:`repro.experiments.experiment_defs.EXPERIMENT_REGISTRY`, so
``repro scenarios`` always lists at least the paper's claims.  On top of
them the adversarial workload axis registers as first-class grids: ``ADV``
expands ``{dsc, dmc, random, coverage} × {adversarial, random} arrival ×
{Algorithm 1, all five baselines}`` over the ``WL`` runner (tags
``adversarial`` / ``workload``), so the paper's hard instances sweep through
the sharded executor, the result store, and the shared-memory instance
backing like any other workload.

Example — a 2×1 grid expands into one registered scenario per cell::

    >>> specs = register_grid("scenario-doc-demo", runner="WL",
    ...                       axes={"workload": ["dsc", "dmc"]}, seed=3)
    >>> [spec.name for spec in specs]
    ['scenario-doc-demo[workload=dsc]', 'scenario-doc-demo[workload=dmc]']
    >>> get_scenario("scenario-doc-demo[workload=dmc]").kwargs()
    {'workload': 'dmc'}
    >>> for spec in specs:
    ...     unregister_scenario(spec.name)
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.experiment_defs import (
    EXPERIMENT_DESCRIPTIONS,
    EXPERIMENT_REGISTRY,
)
from repro.experiments.runners import RUNNER_REGISTRY
from repro.experiments.workload_defs import ALGORITHM_KINDS, WORKLOAD_KINDS

ParamItems = Tuple[Tuple[str, Any], ...]


def freeze_params(params: Optional[Mapping[str, Any]]) -> ParamItems:
    """Normalise a params mapping into a hashable, sorted tuple of items.

    Lists become tuples (recursively) so specs stay hashable and picklable;
    sorting makes the representation — and therefore the fingerprint —
    independent of insertion order.  Dict-*valued* params are rejected: they
    have no faithful hashable encoding (a frozen dict would be
    indistinguishable from a tuple of pairs when thawed back into runner
    kwargs), and no experiment runner takes one.
    """
    if not params:
        return ()
    return tuple(sorted((key, _freeze_value(value)) for key, value in params.items()))


def _freeze_value(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    if isinstance(value, dict):
        raise TypeError(
            "dict-valued scenario params are not supported; flatten the dict "
            "into separate top-level parameters"
        )
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One schedulable workload: an experiment runner plus its configuration.

    Attributes
    ----------
    name:
        Unique registry key (``"E5"``, ``"E1/n-sweep[n=4096]"`` ...).
    runner:
        Key into :data:`~repro.experiments.runners.RUNNER_REGISTRY` naming
        the experiment function.  Keeping a *name* instead of the function
        keeps specs picklable and lets worker processes re-resolve the
        callable after a fork/spawn.
    params:
        Frozen keyword overrides passed to the runner.
    seed:
        Root seed of the scenario, or ``None`` to use the runner's built-in
        default (so ``repro run E5`` without ``--seed`` keeps E5's own).
    repetitions:
        Number of independent repetitions; repetition ``r`` runs with
        :func:`repro.runtime.seeding.repetition_seed`.
    """

    name: str
    runner: str
    params: ParamItems = ()
    seed: Optional[int] = None
    repetitions: int = 1
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.runner not in RUNNER_REGISTRY:
            raise KeyError(
                f"scenario {self.name!r} references unknown runner {self.runner!r}"
            )
        if self.repetitions < 1:
            raise ValueError(
                f"scenario {self.name!r} needs >= 1 repetition, got {self.repetitions}"
            )

    def kwargs(self) -> Dict[str, Any]:
        """The runner keyword overrides as a plain dict."""
        return dict(self.params)


@dataclass(frozen=True)
class ScenarioGrid:
    """A cartesian product of parameter axes expanding into scenarios.

    ``axes`` maps parameter names to value sequences; :meth:`expand` yields
    one :class:`ScenarioSpec` per combination, named
    ``"<name>[k1=v1,k2=v2]"`` with keys in sorted order so the expansion is
    deterministic.
    """

    name: str
    runner: str
    axes: ParamItems = ()
    base_params: ParamItems = ()
    seed: Optional[int] = None
    repetitions: int = 1
    description: str = ""
    tags: Tuple[str, ...] = ()

    def expand(self) -> List[ScenarioSpec]:
        """Materialise the grid as concrete scenario specs."""
        axis_items = sorted(self.axes)
        keys = [key for key, _ in axis_items]
        value_lists = [list(values) for _, values in axis_items]
        specs: List[ScenarioSpec] = []
        for combo in itertools.product(*value_lists):
            label = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
            params = dict(self.base_params)
            params.update(zip(keys, combo))
            specs.append(
                ScenarioSpec(
                    name=f"{self.name}[{label}]" if label else self.name,
                    runner=self.runner,
                    params=freeze_params(params),
                    seed=self.seed,
                    repetitions=self.repetitions,
                    description=self.description,
                    tags=self.tags,
                )
            )
        return specs


#: All registered scenarios, keyed by name.  Mutated only through
#: :func:`register_scenario` / :func:`register_grid`.
SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    runner: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    repetitions: int = 1,
    description: str = "",
    tags: Sequence[str] = (),
    replace: bool = False,
) -> ScenarioSpec:
    """Create and register a scenario; returns the registered spec."""
    spec = ScenarioSpec(
        name=name,
        runner=runner,
        params=freeze_params(params),
        seed=seed,
        repetitions=repetitions,
        description=description,
        tags=tuple(tags),
    )
    if not replace and name in SCENARIO_REGISTRY:
        raise KeyError(f"scenario {name!r} is already registered")
    SCENARIO_REGISTRY[name] = spec
    return spec


def register_grid(
    name: str,
    runner: str,
    axes: Mapping[str, Sequence[Any]],
    base_params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    repetitions: int = 1,
    description: str = "",
    tags: Sequence[str] = (),
    replace: bool = False,
) -> List[ScenarioSpec]:
    """Expand and register a scenario grid; returns the expanded specs."""
    grid = ScenarioGrid(
        name=name,
        runner=runner,
        axes=freeze_params(axes),
        base_params=freeze_params(base_params),
        seed=seed,
        repetitions=repetitions,
        description=description,
        tags=tuple(tags),
    )
    specs = grid.expand()
    clashes = [spec.name for spec in specs if spec.name in SCENARIO_REGISTRY]
    if clashes and not replace:
        raise KeyError(f"grid {name!r} clashes with registered scenarios: {clashes}")
    for spec in specs:
        SCENARIO_REGISTRY[spec.name] = spec
    return specs


def unregister_scenario(name: str) -> None:
    """Remove a scenario from the registry (used by tests)."""
    SCENARIO_REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by exact (case-sensitive) then upper-cased name."""
    if name in SCENARIO_REGISTRY:
        return SCENARIO_REGISTRY[name]
    upper = name.upper()
    if upper in SCENARIO_REGISTRY:
        return SCENARIO_REGISTRY[upper]
    raise KeyError(f"unknown scenario {name!r}")


def natural_sort_key(name: str) -> Tuple[Any, ...]:
    """Sort key treating digit runs numerically, so ``E2`` orders before ``E10``."""
    parts = re.split(r"(\d+)", name)
    return tuple(int(part) if part.isdigit() else part for part in parts)


def iter_scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """All registered scenarios in natural-name order, optionally tag-filtered."""
    specs = [
        spec
        for _, spec in sorted(SCENARIO_REGISTRY.items(), key=lambda kv: natural_sort_key(kv[0]))
        if tag is None or tag in spec.tags
    ]
    return specs


def _register_builtin_experiments() -> None:
    """Wrap every E1–E12 experiment as a scenario named after its id."""
    for experiment_id in EXPERIMENT_REGISTRY:
        if experiment_id in SCENARIO_REGISTRY:
            continue
        register_scenario(
            experiment_id,
            runner=experiment_id,
            description=EXPERIMENT_DESCRIPTIONS.get(experiment_id, ""),
            tags=("paper",),
        )


#: Root seed of the adversarial workload grids (arbitrary but fixed, so the
#: result store fingerprints are stable across runs and machines).
ADVERSARIAL_GRID_SEED = 20170517


def _register_workload_scenarios() -> None:
    """Register the workload axis: the default WL scenario plus the ADV grid.

    ``ADV`` is the full adversarial-workload cartesian product — every
    workload kind under both arrival orders against Algorithm 1 and all five
    baselines — each cell a store/resume-cacheable task for the sharded
    executor that reports its :class:`~repro.streaming.space.SpaceReport`
    peaks.
    """
    if "WL" not in SCENARIO_REGISTRY:
        register_scenario(
            "WL",
            runner="WL",
            seed=ADVERSARIAL_GRID_SEED,
            description="one workload x algorithm x arrival-order run (default: dsc)",
            tags=("workload",),
        )
    if not any(name.startswith("ADV[") for name in SCENARIO_REGISTRY):
        register_grid(
            "ADV",
            runner="WL",
            axes={
                "workload": list(WORKLOAD_KINDS),
                "order": ["adversarial", "random"],
                "algorithm": list(ALGORITHM_KINDS),
            },
            seed=ADVERSARIAL_GRID_SEED,
            description="adversarial workload grid: workload x arrival order x algorithm",
            tags=("adversarial", "workload"),
        )


_register_builtin_experiments()
_register_workload_scenarios()
