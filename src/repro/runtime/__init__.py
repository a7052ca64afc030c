"""Parallel experiment runtime: scenarios, seeding, sharded execution, caching.

The runtime turns the ad-hoc experiment scripts into a schedulable workload
engine:

* :mod:`repro.runtime.scenarios` — declarative registry of workloads
  (:class:`ScenarioSpec`, :class:`ScenarioGrid`), with E1–E12 pre-registered;
* :mod:`repro.runtime.seeding` — hierarchical deterministic seed streams
  (``scenario seed → repetition seed → named subsystem streams``);
* :mod:`repro.runtime.tasks` — the picklable unit of work and its worker
  entry point;
* :mod:`repro.runtime.executor` — in-process or chunked process-pool
  execution with submission-order merging (parallel output ≡ serial
  output);
* :mod:`repro.runtime.store` — content-addressed on-disk result cache giving
  skip/resume semantics for repeated runs.

Example — declare a two-repetition scenario and expand its tasks::

    >>> spec = register_scenario("runtime-doc-demo", runner="WL", seed=7,
    ...                          repetitions=2)
    >>> [task.key for task in tasks_from_scenario(spec)]
    ['runtime-doc-demo#r0', 'runtime-doc-demo#r1']
    >>> unregister_scenario("runtime-doc-demo")
"""

from repro.runtime.executor import (
    RunReport,
    STATUS_CACHED,
    STATUS_COMPUTED,
    TaskExecutor,
    TaskOutcome,
    default_chunksize,
)
from repro.runtime.scenarios import (
    SCENARIO_REGISTRY,
    ScenarioGrid,
    ScenarioSpec,
    freeze_params,
    get_scenario,
    iter_scenarios,
    register_grid,
    register_scenario,
    unregister_scenario,
)
from repro.runtime.seeding import (
    DEFAULT_ROOT_SEED,
    SeedStreams,
    repetition_seed,
    scenario_seed,
    stream_seed,
)
from repro.runtime.store import STORE_FORMAT_VERSION, ResultStore, task_fingerprint
from repro.runtime.tasks import RuntimeTask, execute_task, tasks_from_scenario

__all__ = [
    "DEFAULT_ROOT_SEED",
    "RunReport",
    "RuntimeTask",
    "STATUS_CACHED",
    "STATUS_COMPUTED",
    "STORE_FORMAT_VERSION",
    "SCENARIO_REGISTRY",
    "ScenarioGrid",
    "ScenarioSpec",
    "SeedStreams",
    "ResultStore",
    "TaskExecutor",
    "TaskOutcome",
    "execute_task",
    "freeze_params",
    "get_scenario",
    "iter_scenarios",
    "default_chunksize",
    "register_grid",
    "register_scenario",
    "repetition_seed",
    "scenario_seed",
    "stream_seed",
    "task_fingerprint",
    "tasks_from_scenario",
    "unregister_scenario",
]
