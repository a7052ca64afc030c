"""Parallel experiment runtime: scenarios, sharded execution, caching.

The runtime turns the ad-hoc experiment scripts into a schedulable workload
engine:

* :mod:`repro.runtime.scenarios` — declarative registry of workloads
  (:class:`ScenarioSpec`, :func:`register_grid`), with E1–E12
  pre-registered, and :func:`resolve_scenarios`, what a command-line name
  means;
* :mod:`repro.runtime.tasks` — the picklable unit of work and its worker
  entry point;
* :mod:`repro.runtime.executor` — in-process or chunked process-pool
  execution with submission-order merging (parallel output ≡ serial
  output);
* :mod:`repro.runtime.store` — content-addressed on-disk result cache giving
  skip/resume semantics for repeated runs.

Example — declare a scenario and expand it into its one task::

    >>> spec = register_scenario("runtime-doc-demo", runner="WL", seed=7)
    >>> [(task.key, task.seed) for task in tasks_from_scenario(spec)]
    [('runtime-doc-demo', 7)]
    >>> del SCENARIO_REGISTRY["runtime-doc-demo"]
"""

from repro.runtime.executor import (
    RunReport,
    STATUS_CACHED,
    STATUS_COMPUTED,
    TaskExecutor,
    TaskOutcome,
    default_chunksize,
    default_workers,
)
from repro.runtime.scenarios import (
    SCENARIO_REGISTRY,
    ScenarioSpec,
    freeze_params,
    get_scenario,
    iter_scenarios,
    register_grid,
    register_scenario,
    resolve_scenarios,
)
from repro.runtime.store import STORE_FORMAT_VERSION, ResultStore, task_fingerprint
from repro.runtime.tasks import RuntimeTask, execute_task, tasks_from_scenario

__all__ = [
    "RunReport",
    "RuntimeTask",
    "STATUS_CACHED",
    "STATUS_COMPUTED",
    "STORE_FORMAT_VERSION",
    "SCENARIO_REGISTRY",
    "ScenarioSpec",
    "ResultStore",
    "TaskExecutor",
    "TaskOutcome",
    "execute_task",
    "freeze_params",
    "get_scenario",
    "iter_scenarios",
    "default_chunksize",
    "default_workers",
    "register_grid",
    "register_scenario",
    "resolve_scenarios",
    "task_fingerprint",
    "tasks_from_scenario",
]
