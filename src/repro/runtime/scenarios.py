"""Declarative scenario registry for the experiment runtime.

A *scenario* names one reproducible task: which experiment runner to call,
with which parameter overrides, under which seed.  A *grid* is a cartesian
product of parameter axes that registers one scenario per combination.
Registered scenarios are what the executor shards across workers and what
the result store fingerprints, so a new workload sweep is a one-liner
registration here rather than a new script.

The twelve paper experiments (E1–E12) are auto-registered at import time,
wrapping :data:`repro.experiments.experiment_defs.EXPERIMENT_REGISTRY`, so
``repro scenarios`` always lists at least the paper's claims.  On top of
them the adversarial workload axis registers as first-class grids: ``ADV``
expands ``{dsc, dmc, random, coverage} × {adversarial, random} arrival ×
{Algorithm 1, all five baselines}`` over the ``WL`` runner (tags
``adversarial`` / ``workload``), so the paper's hard instances sweep through
the sharded executor, the result store, and the shared-memory instance
backing like any other workload.

:func:`resolve_scenarios` is what a name on the command line means:
``repro run``, ``repro chaos``, ``repro report --grid`` and ``repro
scenarios`` all expand their names through it.

Example — a 2×1 grid registers one scenario per cell, and its name resolves
to the cells in natural order::

    >>> specs = register_grid("scenario-doc-demo", runner="WL",
    ...                       axes={"workload": ["dsc", "dmc"]}, seed=3)
    >>> [spec.name for spec in resolve_scenarios("scenario-doc-demo")]
    ['scenario-doc-demo[workload=dmc]', 'scenario-doc-demo[workload=dsc]']
    >>> dict(get_scenario("scenario-doc-demo[workload=dmc]").params)
    {'workload': 'dmc'}
    >>> for spec in specs:
    ...     del SCENARIO_REGISTRY[spec.name]
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
        Seed of the scenario, or ``None`` to use the runner's built-in
        default (so ``repro run E5`` without ``--seed`` keeps E5's own).
    """

    name: str
    runner: str
    params: ParamItems = ()
    seed: Optional[int] = None
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.runner not in RUNNER_REGISTRY:
            raise KeyError(
                f"scenario {self.name!r} references unknown runner {self.runner!r}"
            )


#: All registered scenarios, keyed by name.  Mutated only through
#: :func:`register_scenario` / :func:`register_grid`.
SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    runner: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    description: str = "",
    tags: Sequence[str] = (),
) -> ScenarioSpec:
    """Create and register a scenario; returns the registered spec."""
    if name in SCENARIO_REGISTRY:
        raise KeyError(f"scenario {name!r} is already registered")
    spec = ScenarioSpec(
        name=name,
        runner=runner,
        params=freeze_params(params),
        seed=seed,
        description=description,
        tags=tuple(tags),
    )
    SCENARIO_REGISTRY[name] = spec
    return spec


def register_grid(
    name: str,
    runner: str,
    axes: Mapping[str, Sequence[Any]],
    seed: Optional[int] = None,
    description: str = "",
    tags: Sequence[str] = (),
) -> List[ScenarioSpec]:
    """Register one scenario per combination of axis values; returns them.

    A cell is named ``"<name>[k1=v1,k2=v2]"`` with its keys in sorted order,
    so the expansion is deterministic; empty ``axes`` register ``name``
    itself.
    """
    axis_items = freeze_params(axes)
    keys = [key for key, _ in axis_items]
    specs: List[ScenarioSpec] = []
    for combo in itertools.product(*(values for _, values in axis_items)):
        label = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
        specs.append(
            ScenarioSpec(
                name=f"{name}[{label}]" if label else name,
                runner=runner,
                params=freeze_params(dict(zip(keys, combo))),
                seed=seed,
                description=description,
                tags=tuple(tags),
            )
        )
    clashes = [spec.name for spec in specs if spec.name in SCENARIO_REGISTRY]
    if clashes:
        raise KeyError(f"grid {name!r} clashes with registered scenarios: {clashes}")
    for spec in specs:
        SCENARIO_REGISTRY[spec.name] = spec
    return specs


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


def resolve_scenarios(name: str) -> List[ScenarioSpec]:
    """The scenarios a name on the command line stands for, in run order.

    Tries, in turn:

    1. ``all`` (any case): the paper experiments E1–E12, in numeric order;
    2. a scenario name, as given or upper-cased (:func:`get_scenario`);
    3. a tag: every scenario carrying it, in natural-name order;
    4. a grid prefix: ``ADV`` is every ``ADV[...]`` cell, in natural-name
       order.

    Raises :class:`KeyError` with a one-line message when nothing matches.
    """
    if name.lower() == "all":
        ids = sorted(EXPERIMENT_REGISTRY, key=natural_sort_key)
        return [SCENARIO_REGISTRY[eid] for eid in ids]
    try:
        return [get_scenario(name)]
    except KeyError:
        pass
    specs = iter_scenarios(tag=name)
    if not specs:
        specs = [spec for spec in iter_scenarios() if spec.name.startswith(f"{name}[")]
    if not specs:
        raise KeyError(
            f"unknown scenario, experiment id, tag or grid {name!r}; "
            "run 'repro scenarios' to see the options"
        )
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
