"""The :class:`Kernel` protocol: batched coverage arithmetic behind a seam.

A kernel owns the incidence structure of a :class:`~repro.setcover.SetSystem`
(m subsets of the universe ``[n]``) and exposes the *batched* primitives the
solver stack and the streaming layer are hot on: per-set marginal gains
against an uncovered mask, batched projection onto an element subset,
per-element frequencies, per-set sizes, and per-element claim resolution (the
"which set is responsible for this element" argmax the one-pass baselines are
built on).  All masks cross the boundary as plain Python integers (bit ``i``
set means element ``i`` present), so every backend is interchangeable and
callers never see the internal representation.

The backend tier ladder implements the protocol (see
:func:`repro.kernels.kernel_registry` for what is registered in the current
environment):

* :class:`~repro.kernels.pyint.PyIntKernel` — the seed implementation's pure
  Python int-bitset arithmetic, always available, and the conformance
  *reference* every other backend is compared against.
* :class:`~repro.kernels.numpy_backend.NumpyKernel` — a packed ``uint64``
  matrix of shape ``(m, ceil(n/64))`` with vectorized word-popcount gains,
  used automatically on large systems when NumPy is installed.
* :class:`~repro.kernels.compiled.CompiledKernel` — numba-jitted parallel
  sweeps over the same packed matrix, registered when numba is installed.
* :class:`~repro.kernels.chunked.ChunkedKernel` — the out-of-core flavour,
  windowing any :class:`~repro.setcover.source.InstanceSource`.

Every backend must be *output-identical*: same gains, same projections, same
frequencies, same claim winners for the same inputs.  The reusable
conformance harness in ``tests/kernel_conformance.py`` enforces this bit for
bit over every registered backend and an adversarial shape grid; the
property suites in ``tests/property/`` extend the same parity to random
systems, whole greedy runs, and whole streaming runs.

Example — any object with the batched primitives satisfies the protocol::

    >>> from repro.kernels.pyint import PyIntKernel
    >>> isinstance(PyIntKernel(4, [0b0011]), Kernel)
    True
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, runtime_checkable


@runtime_checkable
class Kernel(Protocol):
    """Interchangeable compute backend for a fixed set system."""

    #: The concrete backend name (``"python"``, ``"numpy"`` or ``"compiled"``).
    backend: str

    @property
    def universe_size(self) -> int:
        """Size n of the universe."""

    @property
    def num_sets(self) -> int:
        """Number m of sets."""

    def gain(self, index: int, uncovered: int) -> int:
        """Marginal gain of one set: ``|S_index ∩ uncovered|``."""

    def gains(self, uncovered: int) -> List[int]:
        """Marginal gains of *all* sets against ``uncovered``, by set index."""

    def best_gain_index(self, uncovered: int) -> "tuple[int, int]":
        """The smallest index maximising the gain, and that gain.

        One batched argmax — the greedy pick rule.  Ties break to the lowest
        set index; an empty system returns ``(-1, 0)``.  Callers must treat a
        returned gain of 0 as "no useful set" (the index is then arbitrary).
        """

    def restrict(self, keep: int) -> List[int]:
        """Project every set onto ``keep``: ``[mask & keep for mask in sets]``."""

    def element_frequencies(self) -> List[int]:
        """For each element of the universe, the number of sets containing it."""

    def union(self) -> int:
        """The union of all sets as a bitset."""

    def set_sizes(self) -> List[int]:
        """Cardinality of each set, by set index."""

    def element_lists(self, indices: "Sequence[int] | None" = None) -> List[List[int]]:
        """Element identities per set, as ascending lists of plain ints.

        The batched unpack replacing per-set ``iter_bits`` walks when an
        algorithm genuinely needs element identities (e.g. sketching)
        rather than counts.  ``indices`` restricts the unpack to those sets
        (result aligned to ``indices`` order); None unpacks every set.
        """

    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        """Per-element argmax over the sets containing it, scored by ``keys``.

        ``keys`` assigns every set a non-negative priority; the result holds,
        for each element of the universe, the index of the containing set
        with the largest *positive* key — ties break to the smallest set
        index — or ``-1`` when no containing set has a positive key (sets
        with key 0 never claim anything).  This is the batched core of the
        one-pass per-element bookkeeping baselines (Emek–Rosén): fold the
        arrival-order tie-break into the key and the whole pass collapses
        into one call.
        """

    def gain_tracker(self, uncovered: int) -> "GainTracker":
        """Stateful exact-gain maintenance for one greedy run.

        The tracker starts with every set's gain against ``uncovered`` and
        keeps the gains *exact* as the caller reports covered elements, so
        :meth:`GainTracker.best` is always the seed pick rule (max gain,
        smallest index).  Backends choose their maintenance strategy: the
        pure-Python tracker rescans on demand; the NumPy tracker decrements
        through an inverted element→sets index, making a whole greedy run
        cost O(total incidences) instead of O(picks · m · n/64).
        """

    def prefers_tracker(self) -> bool:
        """Whether greedy should start on the tracker, skipping lazy pops.

        True once a backend has already paid for tracker infrastructure on
        this system (e.g. a previous greedy run here degenerated into mass
        staleness and built the inverted index) — picking through the
        tracker is then cheaper from the first pick.  Both strategies
        implement the same pick rule, so this only affects wall-clock.
        """


@runtime_checkable
class GainTracker(Protocol):
    """Exact per-set gains under a monotonically shrinking uncovered mask."""

    def best(self) -> "tuple[int, int]":
        """Current ``(smallest argmax index, max gain)``; ``(-1, 0)`` if empty."""

    def cover(self, newly: int) -> None:
        """Report elements that just became covered.

        ``newly`` must be disjoint from everything reported before and a
        subset of the tracker's initial uncovered mask (greedy's
        ``mask & uncovered`` before shrinking guarantees both).
        """
