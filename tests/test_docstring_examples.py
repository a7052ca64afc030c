"""Run the runnable examples in the audited module docstrings.

The docstring audit (repro.runtime, repro.kernels, repro.analysis) promises
every public module a module docstring *with a runnable example*; this suite
executes those examples via :mod:`doctest` so they cannot rot.
"""

import doctest
import importlib

import pytest

from repro.kernels import HAS_NUMPY

AUDITED_MODULES = [
    "repro.runtime",
    "repro.runtime.executor",
    "repro.runtime.scenarios",
    "repro.runtime.store",
    "repro.runtime.tasks",
    "repro.kernels",
    "repro.kernels.base",
    "repro.kernels.pyint",
    pytest.param(
        "repro.kernels.numpy_backend",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy"),
    ),
    "repro.resilience",
    "repro.resilience.chaos",
    "repro.service",
    "repro.service.cache",
    "repro.service.client",
    "repro.service.deadline",
    "repro.service.instances",
    "repro.service.protocol",
    "repro.service.requests",
    "repro.resilience.degrade",
    "repro.resilience.durability",
    "repro.resilience.faults",
    "repro.resilience.policy",
    "repro.telemetry",
    "repro.telemetry.instrument",
    "repro.telemetry.metrics",
    "repro.telemetry.profiling",
    "repro.telemetry.schema",
    "repro.telemetry.session",
    "repro.telemetry.spans",
    "repro.utils.env",
    "repro.analysis",
    "repro.analysis.figures",
    "repro.analysis.loader",
    "repro.analysis.records",
    "repro.analysis.render",
    "repro.analysis.tradeoff",
]


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_docstring_example_runs(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} docstring has no runnable example"
    assert results.failed == 0


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_docstring_mentions_its_role(module_name):
    """Every audited docstring opens with a one-line summary sentence."""
    module = importlib.import_module(module_name)
    first_line = module.__doc__.strip().splitlines()[0]
    assert first_line.endswith((".", ":")) and len(first_line) > 20
