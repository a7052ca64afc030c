"""Reusable cross-backend kernel conformance harness.

Every :class:`~repro.kernels.base.Kernel` backend — current and future — must
be *bit-identical* to the pure-Python reference
(:class:`~repro.kernels.pyint.PyIntKernel`) on every protocol method.  This
module is the single place that contract lives: it enumerates an adversarial
shape grid (empty systems, universes not divisible by 64, single-word rows,
dense/sparse extremes, tie-break-heavy duplicates), a grid of query masks and
claim-key patterns (including keys past the int64 scoring range), and a full
replay of the stateful :class:`~repro.kernels.base.GainTracker` contract —
then asserts equality observable by observable.  The replay also runs with
the packed-matrix trackers' rescan budget pinned so that their switch from
rescans to the inverted index lands at every position of it.

Backend test files *import* this harness instead of re-implementing parity:

* ``tests/test_kernel_conformance.py`` parameterizes it over
  :data:`SWEPT_BACKENDS` — every backend in
  :func:`repro.kernels.kernel_registry`, so registering a new backend makes
  it conformance-gated automatically;
* property suites reuse :func:`assert_kernel_conformance` on hypothesis-drawn
  systems.

Not itself collected by pytest (no ``test_`` prefix) — it is a library.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.kernels import kernel_registry, registered_backends
from repro.kernels.base import Kernel
from repro.kernels.pyint import PyIntKernel
from repro.utils.rng import RandomSource


def _random_masks(n: int, m: int, seed: int) -> List[int]:
    rng = RandomSource(seed)
    return [rng.randbits(n) for _ in range(m)]


def _universe(n: int) -> int:
    return (1 << n) - 1


#: ``name -> (universe_size, masks)``: the adversarial shape grid.  Shapes
#: target the places packed-word backends get boundary arithmetic wrong —
#: word edges, padding bits, empty extremes, and tie-breaking.
CONFORMANCE_CASES: Dict[str, Tuple[int, List[int]]] = {
    "empty-system": (0, []),
    "empty-universe-with-sets": (0, [0, 0, 0]),
    "no-sets": (7, []),
    "all-empty-rows": (9, [0, 0, 0, 0]),
    "single-element-universe": (1, [1, 0, 1]),
    "n-not-div-64": (37, _random_masks(37, 7, 11)),
    "single-word-exact": (64, _random_masks(64, 6, 12)),
    "word-boundary-65": (65, _random_masks(65, 6, 13)),
    "two-words-minus-one": (127, _random_masks(127, 5, 14)),
    "three-words": (130, _random_masks(130, 8, 15)),
    "dense-full-rows": (70, [_universe(70)] * 5),
    "sparse-singletons": (130, [1 << 0, 1 << 63, 1 << 64, 1 << 129, 0]),
    "tie-break-duplicates": (48, [_random_masks(48, 1, 16)[0]] * 6),
    "mixed-random": (96, _random_masks(96, 12, 17)),
}


def query_masks(n: int) -> List[int]:
    """Uncovered/keep masks that probe word edges and padding bits."""
    universe = _universe(n)
    masks = [0, universe]
    if n:
        alternating = sum(1 << i for i in range(0, n, 2))
        masks.extend(
            [
                alternating & universe,
                (universe >> max(0, n // 2)) & universe,  # low half
                (1 << (n - 1)),  # highest element only
                _random_masks(n, 1, 19)[0],
            ]
        )
    return masks


def key_patterns(m: int) -> List[Tuple[str, List[int]]]:
    """Claim-key vectors that stress every tie-break and range branch."""
    patterns = [
        ("all-zero", [0] * m),
        ("all-equal", [7] * m),
        ("descending", [m - i for i in range(m)]),
        ("ascending", [i + 1 for i in range(m)]),
        ("tie-heavy", [(i % 2) + 1 for i in range(m)]),
        ("with-negatives", [(-1) ** i * (i + 1) for i in range(m)]),
        # Past the int64 scoring range: backends must route to an exact path.
        ("huge-keys", [(1 << 70) + (i % 3) for i in range(m)]),
    ]
    return patterns


def _tracker_cover_schedule(n: int, seed: int = 23) -> List[int]:
    """A deterministic sequence of cover masks (disjointness applied later)."""
    rng = RandomSource(seed)
    return [rng.randbits(n) for _ in range(5)] + [0]


#: A rescan budget no test run reaches: trackers never leave rescans.
NEVER_INDEX = 10**9

#: Rescan budgets the greedy handover tests pin: the index from the first
#: pick, after one, two and seven rescans, and never.
HANDOVER_BUDGETS = (0, 1, 2, 7, NEVER_INDEX)


@contextmanager
def rescan_budget(budget: int) -> Iterator[None]:
    """Pin how many rescans a kernel's trackers serve before it builds the
    inverted index (``numpy_backend._RESCANS_BEFORE_INDEX``).

    Inside the block a kernel's trackers switch once it has served
    ``budget`` rescans; without NumPy there is no index to switch to and the
    body runs as is.
    """
    try:
        from repro.kernels import numpy_backend
    except ImportError:
        yield
        return
    previous = numpy_backend._RESCANS_BEFORE_INDEX
    numpy_backend._RESCANS_BEFORE_INDEX = budget
    try:
        yield
    finally:
        numpy_backend._RESCANS_BEFORE_INDEX = previous


#: The backends the suites sweep: every registered backend, ``python`` first.
SWEPT_BACKENDS = registered_backends()


def build_kernel(backend: str, universe_size: int, masks: Sequence[int]) -> Kernel:
    """Build a raw (unmetered) kernel for a registered backend."""
    return kernel_registry()[backend](universe_size, list(masks))


def assert_kernel_conformance(
    kernel: Kernel, universe_size: int, masks: Sequence[int]
) -> None:
    """Assert ``kernel`` is bit-identical to the PyInt reference everywhere.

    One call covers the entire :class:`~repro.kernels.base.Kernel` protocol:
    shape properties, single and batched gains, argmax tie-breaks,
    projections, frequencies, union, sizes, element unpacking (full and
    index-restricted), claim resolution under every key pattern, the
    stateful gain-tracker replay, and the ``prefers_tracker`` probe type.
    """
    reference = PyIntKernel(universe_size, list(masks))
    m = len(masks)
    label = f"{kernel.backend} (n={universe_size}, m={m})"

    assert kernel.universe_size == reference.universe_size, label
    assert kernel.num_sets == reference.num_sets, label
    assert kernel.union() == reference.union(), label
    assert kernel.set_sizes() == reference.set_sizes(), label
    assert kernel.element_frequencies() == reference.element_frequencies(), label
    assert kernel.element_lists() == reference.element_lists(), label
    if m:
        subset = list(range(0, m, 2))
        assert kernel.element_lists(subset) == reference.element_lists(subset), label
        assert kernel.element_lists([]) == reference.element_lists([]), label

    for query in query_masks(universe_size):
        assert kernel.gains(query) == reference.gains(query), (label, query)
        assert kernel.best_gain_index(query) == reference.best_gain_index(query), (
            label,
            query,
        )
        assert kernel.restrict(query) == reference.restrict(query), (label, query)
        for index in range(m):
            assert kernel.gain(index, query) == reference.gain(index, query), (
                label,
                index,
            )

    for pattern_name, keys in key_patterns(m):
        assert kernel.claim_resolution(keys) == reference.claim_resolution(keys), (
            label,
            pattern_name,
        )

    assert isinstance(kernel.prefers_tracker(), bool), label
    _assert_tracker_conformance(kernel, reference, universe_size)


def _assert_tracker_conformance(
    kernel: Kernel, reference: PyIntKernel, universe_size: int
) -> int:
    """Replay a cover schedule through both trackers, comparing every pick.

    Returns how many times the replay asked ``kernel``'s trackers for a pick.
    """
    picks = 0
    for start in (0, _universe(universe_size)):
        uncovered = start
        tracker = kernel.gain_tracker(uncovered)
        ref_tracker = reference.gain_tracker(uncovered)
        assert tracker.best() == ref_tracker.best(), kernel.backend
        picks += 1
        for raw in _tracker_cover_schedule(universe_size):
            newly = raw & uncovered  # the disjoint-subset precondition
            tracker.cover(newly)
            ref_tracker.cover(newly)
            uncovered &= ~newly
            assert tracker.best() == ref_tracker.best(), kernel.backend
            # The tracker must also agree with a fresh batched argmax.
            assert tracker.best() == reference.best_gain_index(uncovered), (
                kernel.backend
            )
            picks += 2
    return picks


def assert_tracker_handover_conformance(
    backend: str, universe_size: int, masks: Sequence[int]
) -> None:
    """Replay the tracker schedule once per position of the index switch.

    A fresh kernel per rescan budget, from 0 (the index from the first
    pick) through one past the replay's last pick (rescans throughout),
    so the packed-matrix trackers switch at every pick of the replay —
    including between two picks with no cover in between — and must stay
    pick-for-pick identical to the pure-Python reference at each.
    """
    reference = PyIntKernel(universe_size, list(masks))
    with rescan_budget(NEVER_INDEX):
        picks = _assert_tracker_conformance(
            build_kernel(backend, universe_size, masks), reference, universe_size
        )
    for budget in range(picks + 1):
        with rescan_budget(budget):
            kernel = build_kernel(backend, universe_size, masks)
            _assert_tracker_conformance(kernel, reference, universe_size)


def assert_backend_conformance(backend: str) -> None:
    """Run the full shape grid for one registered backend."""
    for universe_size, masks in CONFORMANCE_CASES.values():
        kernel = build_kernel(backend, universe_size, masks)
        assert_kernel_conformance(kernel, universe_size, masks)
