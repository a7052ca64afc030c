"""Property-based tests for the offline set cover solvers.

The exact solver's returned index lists are also pinned by one golden digest
over a seeded grid (``tests/data/exact_cover_golden.json``).  Regenerate it
only when the solver's answers are meant to change::

    PYTHONPATH=src python tests/property/test_prop_setcover.py
"""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleInstanceError
from repro.setcover.exact import brute_force_set_cover, exact_set_cover
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import exact_max_coverage, greedy_max_coverage
from repro.setcover.verify import is_feasible_cover
from repro.workloads.random_instances import (
    plant_cover_instance,
    random_instance,
    random_set_system,
)

EXACT_GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "exact_cover_golden.json"


@st.composite
def coverable_systems(draw, max_universe=10, max_sets=6):
    """Small random systems patched to be coverable."""
    n = draw(st.integers(min_value=1, max_value=max_universe))
    m = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    covered = set().union(*sets) if sets else set()
    missing = set(range(n)) - covered
    if missing:
        sets[0] = set(sets[0]) | missing
    return SetSystem(n, sets)


@st.composite
def systems_with_targets(draw, max_universe=8, max_sets=5):
    """Unpatched small systems with an arbitrary target mask.

    Nothing forces coverability, so some targets hold elements no set
    contains.
    """
    n = draw(st.integers(min_value=1, max_value=max_universe))
    m = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    target = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return SetSystem(n, sets), target


def exact_golden_cases():
    """The seeded grid the golden digest pins: ``(label, system, target)``.

    Random coverable instances, planted instances, unpatched fixed-size
    systems (some infeasible) and partial targets drawn per instance.
    """
    for seed in range(6):
        for n, m in ((10, 8), (24, 14), (40, 20)):
            system = random_instance(n, m, seed=seed).system
            yield f"random/{n}/{m}/{seed}", system, None
            picker = random.Random(f"partial/{n}/{m}/{seed}")
            for draw in range(3):
                target = picker.getrandbits(n)
                yield f"partial/{n}/{m}/{seed}/{draw}", system, target
        for n, m, size in ((12, 10, 2), (30, 16, 6)):
            system = random_set_system(n, m, set_size=size, seed=seed)
            yield f"fixed/{n}/{m}/{size}/{seed}", system, None
        for n, m, cover in ((48, 24, 3), (64, 32, 4)):
            system = plant_cover_instance(n, m, cover, seed=seed).system
            yield f"planted/{n}/{m}/{cover}/{seed}", system, None


def exact_golden_digest():
    """SHA-256 over every case's label and returned index list (or None)."""
    answers = []
    for label, system, target in exact_golden_cases():
        try:
            answer = exact_set_cover(system, target_mask=target)
        except InfeasibleInstanceError:
            answer = None
        answers.append([label, answer])
    payload = json.dumps(answers, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest(), len(answers)


class TestGreedyProperties:
    @given(coverable_systems())
    @settings(max_examples=40, deadline=None)
    def test_greedy_feasible(self, system):
        solution = greedy_set_cover(system)
        assert is_feasible_cover(system, solution)

    @given(coverable_systems())
    @settings(max_examples=40, deadline=None)
    def test_greedy_no_duplicates(self, system):
        solution = greedy_set_cover(system)
        assert len(solution) == len(set(solution))

    @given(coverable_systems())
    @settings(max_examples=40, deadline=None)
    def test_greedy_within_ln_n_of_opt(self, system):
        greedy = greedy_set_cover(system)
        opt = exact_set_cover(system)
        n = system.universe_size
        assert len(greedy) <= max(1, math.ceil(len(opt) * (math.log(n) + 1)))


class TestExactProperties:
    @given(coverable_systems(max_universe=8, max_sets=5))
    @settings(max_examples=30, deadline=None)
    def test_exact_matches_brute_force(self, system):
        assert len(exact_set_cover(system)) == len(brute_force_set_cover(system))

    @given(coverable_systems())
    @settings(max_examples=40, deadline=None)
    def test_exact_feasible_and_minimal_vs_greedy(self, system):
        exact = exact_set_cover(system)
        assert is_feasible_cover(system, exact)
        assert len(exact) <= len(greedy_set_cover(system))

    @given(systems_with_targets())
    @settings(max_examples=80, deadline=None)
    def test_partial_target_matches_brute_force(self, case):
        system, target = case
        if target & ~system.coverage_mask(range(system.num_sets)):
            with pytest.raises(InfeasibleInstanceError):
                exact_set_cover(system, target_mask=target)
            with pytest.raises(InfeasibleInstanceError):
                brute_force_set_cover(system, target_mask=target)
            return
        exact = exact_set_cover(system, target_mask=target)
        assert target & ~system.coverage_mask(exact) == 0
        assert len(exact) == len(set(exact))
        assert len(exact) == len(brute_force_set_cover(system, target_mask=target))

    @given(systems_with_targets(max_universe=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_uncoverable_target_raises_in_both(self, case, data):
        system, target = case
        union = system.coverage_mask(range(system.num_sets))
        outside = [e for e in range(system.universe_size) if not union >> e & 1]
        assume(outside)
        target |= 1 << data.draw(st.sampled_from(outside))
        with pytest.raises(InfeasibleInstanceError):
            exact_set_cover(system, target_mask=target)
        with pytest.raises(InfeasibleInstanceError):
            brute_force_set_cover(system, target_mask=target)

    def test_index_lists_match_golden(self):
        golden = json.loads(EXACT_GOLDEN_PATH.read_text())
        digest, cases = exact_golden_digest()
        assert cases == golden["cases"]
        assert digest == golden["digest"], (
            "exact_set_cover returned different index lists on the golden grid"
        )


class TestMaxCoverageProperties:
    @given(coverable_systems(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_exact_at_least_greedy(self, system, k):
        _, greedy_value = greedy_max_coverage(system, k)
        _, exact_value = exact_max_coverage(system, k)
        assert exact_value >= greedy_value

    @given(coverable_systems(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_coverage_monotone_in_k(self, system, k):
        _, smaller = exact_max_coverage(system, k)
        _, larger = exact_max_coverage(system, k + 1)
        assert larger >= smaller

    @given(coverable_systems(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_greedy_guarantee(self, system, k):
        _, greedy_value = greedy_max_coverage(system, k)
        _, exact_value = exact_max_coverage(system, k)
        assert greedy_value >= (1 - 1 / math.e) * exact_value - 1e-9


if __name__ == "__main__":
    digest, cases = exact_golden_digest()
    EXACT_GOLDEN_PATH.write_text(
        json.dumps({"cases": cases, "digest": digest}, indent=1) + "\n"
    )
    print(f"wrote {EXACT_GOLDEN_PATH} ({cases} cases)")
