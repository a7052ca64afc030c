"""The runner registry: every function the runtime can schedule, by name.

Scenarios, tasks, and the result store reference experiment functions by
*name* so work stays picklable and workers can re-resolve callables after a
fork/spawn.  The paper's twelve experiments live in
:data:`~repro.experiments.experiment_defs.EXPERIMENT_REGISTRY`; this module
merges them with the workload runners of
:mod:`repro.experiments.workload_defs` into the single registry the runtime
layer consumes.  ``EXPERIMENT_REGISTRY`` itself stays exactly the paper's
E1–E12 (the CLI's ``run all`` contract).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.experiments.experiment_defs import EXPERIMENT_REGISTRY
from repro.experiments.workload_defs import WORKLOAD_RUNNERS

#: Every schedulable runner: the paper experiments plus the workload sweeps.
RUNNER_REGISTRY: Dict[str, Callable[..., Any]] = {
    **EXPERIMENT_REGISTRY,
    **WORKLOAD_RUNNERS,
}
