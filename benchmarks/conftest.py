"""Shared helpers for the benchmark harness.

Every claim target (``bench_eNN_*.py``, ``bench_ext_*.py``) wraps one
experiment from :mod:`repro.experiments` in a pytest-benchmark target, runs
it once (the experiments are already internally repeated / swept), prints
the resulting table — the reproduction of the paper's quantitative claim —
and asserts the claim's *shape* on the findings.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline).  The targets are named ``bench_*.py`` so that the tier-1
suite, which collects ``test_*.py``, never runs them; the collection hook
below picks them up whenever this directory is collected.  The other
``bench_*.py`` files are the micro-benchmark gate scripts, run as programs.
"""

from __future__ import annotations

import re

import pytest

#: File names of the claim targets.
CLAIM_TARGET = re.compile(r"bench_(e\d\d|ext)_\w+\.py")


def pytest_collect_file(file_path, parent):
    """Collect the claim targets as test modules.

    A target named on the command line is already collected by pytest
    itself, so only the ones found by walking the directory are added here.
    """
    if CLAIM_TARGET.fullmatch(file_path.name) and not parent.session.isinitpath(file_path):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(result.render())
    return result


@pytest.fixture
def experiment_runner(benchmark):
    """Fixture exposing :func:`run_once` bound to the active benchmark."""

    def _run(func, *args, **kwargs):
        return run_once(benchmark, func, *args, **kwargs)

    return _run
