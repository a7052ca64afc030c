"""The unit of schedulable work: one experiment run with fixed inputs.

A :class:`RuntimeTask` is a frozen, picklable description of a single runner
invocation — scenario name, parameter overrides, resolved seed.  Tasks
reference their experiment by registry *name* so a worker process can
re-resolve the callable after ``fork``/``spawn``; :func:`execute_task` is the
module-level entry point the process pool maps over.

Example — a task is its runner name plus frozen kwargs and a seed::

    >>> task = RuntimeTask(key="WL", runner="WL",
    ...                    params=(("workload", "dsc"),), seed=3)
    >>> task.kwargs()
    {'workload': 'dsc', 'seed': 3}
    >>> task.fingerprint_payload()["runner"]
    'WL'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.experiments.report import result_to_dict
from repro.experiments.runners import RUNNER_REGISTRY
from repro.runtime.scenarios import ParamItems, ScenarioSpec


@dataclass(frozen=True)
class RuntimeTask:
    """One independent experiment invocation.

    ``key`` is the stable identity used for ordering and display:
    parallel execution merges outcomes back in task-key submission order, so
    a sharded run reports results exactly like the serial one.
    """

    key: str
    runner: str
    params: ParamItems = ()
    seed: Optional[int] = None

    def kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the experiment runner (seed included)."""
        kwargs: Dict[str, Any] = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def fingerprint_payload(self) -> Dict[str, Any]:
        """The identity the result store hashes: runner + params + seed.

        Deliberately excludes ``key`` — the same computation requested under
        two scenario names still hits the same cache entry.
        """
        return {
            "runner": self.runner,
            "params": [[name, _listify(value)] for name, value in self.params],
            "seed": self.seed,
        }


def _listify(value: Any) -> Any:
    """Convert frozen tuples back to lists for canonical JSON hashing.

    A :class:`~repro.setcover.source.SourceDescriptor` parameter (a task
    that carries a reference to a heap, shared or file-backed instance) is
    fingerprinted by its content digest and shape — a few dozen bytes in
    the store instead of the instance, and the same for every backing of
    the same bytes, so a sweep over an mmap-backed instance hits exactly the
    cache entries a heap-backed run wrote, which is what makes skip/resume
    backing-independent.
    """
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    from repro.setcover.source import SourceDescriptor

    if isinstance(value, SourceDescriptor):
        digest = value.digest
        if digest is None:
            from repro.setcover.source import open_source

            with open_source(value) as source:
                digest = source.digest()
        return {
            "__set_system__": digest,
            "universe_size": value.universe_size,
            "num_sets": value.num_sets,
        }
    return value


def tasks_from_scenario(
    spec: ScenarioSpec, seed_override: Optional[int] = None
) -> List[RuntimeTask]:
    """A scenario's one task, keyed by its name, as a list to extend with.

    The task runs under ``seed_override`` when given, else the scenario's
    own seed; a scenario without one keeps ``seed=None`` so the runner's
    built-in default applies.
    """
    seed = seed_override if seed_override is not None else spec.seed
    return [RuntimeTask(key=spec.name, runner=spec.runner, params=spec.params, seed=seed)]


def execute_task(task: RuntimeTask) -> Dict[str, Any]:
    """Run one task and return its result as a JSON-serialisable dict.

    Runs in-process or in a forked pool worker; the dict form crosses the
    worker's pipe and is what the result store persists.
    """
    runner = RUNNER_REGISTRY[task.runner]
    result = runner(**task.kwargs())
    return result_to_dict(result)
