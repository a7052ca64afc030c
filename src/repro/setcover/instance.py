"""Set system / set cover instance representation.

A :class:`SetSystem` is a collection of ``m`` subsets of a universe
``{0, ..., n-1}``.  Internally each set is stored as a bitset (Python integer)
which makes unions and uncovered-element counts cheap; the public API accepts
and returns ordinary iterables and frozensets so callers never need to touch
the bitset representation.

Batched coverage arithmetic (per-set marginal gains, projections, element
frequencies) is delegated to a pluggable compute kernel from
:mod:`repro.kernels`: pure-Python int bitsets by default, a packed
``uint64`` NumPy matrix on large systems when NumPy is installed.  The
``backend=`` parameter pins the choice per system in this process
(``"auto"``/``"python"``/``"numpy"``); the packed and pickled forms carry
no request, so a system rebuilt elsewhere resolves its own.  All backends
are output-identical bit for bit.

This is the shared substrate for the offline solvers, the streaming
algorithms, the workload generators, and the lower-bound distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.utils.bitset import (
    bitset_from_iterable,
    bitset_size,
    bitset_to_set,
    bitset_union,
    universe_mask,
)


def packed_row_bytes(universe_size: int) -> int:
    """Bytes per set row in the packed incidence buffer (uint64-aligned).

    Matches the NumPy kernel's row layout exactly, so a packed buffer can be
    adopted by :class:`~repro.kernels.numpy_backend.NumpyKernel` without any
    repacking.
    """
    return max(1, (universe_size + 63) // 64) * 8


@dataclass(frozen=True)
class PackedSetSystem:
    """The compact wire form of a :class:`SetSystem`.

    One contiguous little-endian incidence buffer (``num_sets`` rows of
    :func:`packed_row_bytes` bytes each) plus the scalars needed to rebuild —
    what crosses process boundaries and shared-memory segments instead of
    per-set Python objects.  ``names`` is None when the system uses the
    default ``S0, S1, ...`` naming, so the common case ships no strings.
    """

    universe_size: int
    num_sets: int
    buffer: bytes
    names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        expected = self.num_sets * packed_row_bytes(self.universe_size)
        if len(self.buffer) != expected:
            raise ValueError(
                f"packed buffer holds {len(self.buffer)} bytes, expected {expected} "
                f"for {self.num_sets} sets over a universe of {self.universe_size}"
            )


class SetSystem:
    """An indexed collection of subsets of the universe ``[n]``.

    Parameters
    ----------
    universe_size:
        Number of elements in the universe; elements are ``0..n-1``.
    sets:
        Iterable of element iterables, one per set, in stream order.
    names:
        Optional human-readable names per set (defaults to ``S0, S1, ...``).
    backend:
        Compute-kernel pin for this process (``"auto"``, ``"python"`` or
        ``"numpy"``; see :func:`repro.kernels.resolve_backend`).  Resolved
        lazily on the first batched query, so constructing a system never
        requires NumPy.  Derived systems keep it; the packed and pickled
        forms do not.
    """

    def __init__(
        self,
        universe_size: int,
        sets: Iterable[Iterable[int]],
        names: Optional[Sequence[str]] = None,
        backend: str = "auto",
    ) -> None:
        if universe_size < 0:
            raise ValueError(f"universe size must be non-negative, got {universe_size}")
        self._n = universe_size
        self._backend = backend
        self._kernel = None
        self._packed: Optional[bytes] = None
        self._universe_mask = universe_mask(universe_size)
        self._masks: List[int] = []
        for index, elements in enumerate(sets):
            mask = elements if isinstance(elements, int) else bitset_from_iterable(elements)
            if mask & ~self._universe_mask:
                raise ValueError(
                    f"set {index} contains elements outside the universe [0, {universe_size})"
                )
            self._masks.append(mask)
        if names is not None:
            if len(names) != len(self._masks):
                raise ValueError("names must have one entry per set")
            self._names = list(names)
        else:
            self._names = [f"S{i}" for i in range(len(self._masks))]

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_masks(
        cls,
        universe_size: int,
        masks: Sequence[int],
        names: Optional[Sequence[str]] = None,
        backend: str = "auto",
    ) -> "SetSystem":
        """Build a system directly from bitset masks (no per-element copying)."""
        system = cls(universe_size, [], backend=backend)
        full = universe_mask(universe_size)
        for index, mask in enumerate(masks):
            if mask & ~full:
                raise ValueError(
                    f"mask {index} contains elements outside the universe [0, {universe_size})"
                )
            system._masks.append(mask)
        if names is not None:
            if len(names) != len(masks):
                raise ValueError("names must have one entry per set")
            system._names = list(names)
        else:
            system._names = [f"S{i}" for i in range(len(masks))]
        return system

    # -- basic accessors ------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Size n of the universe."""
        return self._n

    @property
    def num_sets(self) -> int:
        """Number m of sets in the system."""
        return len(self._masks)

    @property
    def names(self) -> List[str]:
        """Per-set human readable names (copy)."""
        return list(self._names)

    @property
    def backend(self) -> str:
        """The concrete kernel backend this system resolves to."""
        return self.kernel().backend

    def kernel(self):
        """The compute kernel for this system (built lazily, then cached)."""
        if self._kernel is None:
            from repro.kernels import make_kernel

            self._kernel = make_kernel(
                self._n, self._masks, self._backend, packed=self._packed
            )
        return self._kernel

    def mask(self, index: int) -> int:
        """Return the bitset mask of the set at ``index``."""
        return self._masks[index]

    def masks(self) -> List[int]:
        """Return all masks in stream order (copy)."""
        return list(self._masks)

    def elements(self, index: int) -> FrozenSet[int]:
        """Return the set at ``index`` as a frozenset of element indices."""
        return frozenset(bitset_to_set(self._masks[index]))

    def set_size(self, index: int) -> int:
        """Return the cardinality of the set at ``index``."""
        return bitset_size(self._masks[index])

    def name(self, index: int) -> str:
        """Return the name of the set at ``index``."""
        return self._names[index]

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        for index in range(len(self._masks)):
            yield self.elements(index)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self.elements(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._masks)))

    # -- packed transport -------------------------------------------------
    def _default_names(self) -> bool:
        return all(
            name == f"S{index}" for index, name in enumerate(self._names)
        )

    def to_packed(self) -> PackedSetSystem:
        """Serialise into the compact packed form (see :class:`PackedSetSystem`).

        A system built :meth:`from_packed` keeps its transported buffer and
        returns it here unchanged (masks are immutable after construction,
        so the cached bytes can never go stale) — round-tripping through the
        packed form costs zero copies.  Otherwise the already-built NumPy
        kernel exports its matrix, or each mask is written as one
        fixed-width little-endian row.  The inverse is :meth:`from_packed`.
        """
        if self._packed is not None:
            buffer = self._packed
        elif self._kernel is not None and hasattr(self._kernel, "packed_bytes"):
            buffer = self._kernel.packed_bytes()
        else:
            stride = packed_row_bytes(self._n)
            buffer = b"".join(mask.to_bytes(stride, "little") for mask in self._masks)
        return PackedSetSystem(
            universe_size=self._n,
            num_sets=len(self._masks),
            buffer=buffer,
            names=None if self._default_names() else tuple(self._names),
        )

    @classmethod
    def from_packed(cls, packed: PackedSetSystem) -> "SetSystem":
        """Rebuild a system from its packed form.

        The packed buffer is retained so a NumPy kernel can adopt it without
        repacking (one ``frombuffer`` over the transported bytes).
        """
        stride = packed_row_bytes(packed.universe_size)
        buffer = packed.buffer
        masks = [
            int.from_bytes(buffer[row * stride : (row + 1) * stride], "little")
            for row in range(packed.num_sets)
        ]
        system = cls.from_masks(
            packed.universe_size,
            masks,
            list(packed.names) if packed.names is not None else None,
        )
        # Adopt the transported bytes without copying (memoryviews and
        # bytearrays still get one defensive copy); the NumPy kernel later
        # adopts the same object via frombuffer, so unpickle → kernel is
        # zero-copy end to end.
        system._packed = buffer if isinstance(buffer, bytes) else bytes(buffer)
        return system

    @classmethod
    def from_source(cls, source) -> "SetSystem":
        """Build a system over an :class:`~repro.setcover.source.InstanceSource`.

        Heap sources rebuild through the ordinary :meth:`from_packed` path
        (the buffer is already resident bytes); windowed sources (shared
        memory, mmap) come back as a
        :class:`~repro.setcover.source.SourceBackedSetSystem` whose masks
        decode lazily and whose batched queries run on the chunked kernel,
        so no single query materialises more than a bounded window.
        """
        if getattr(source, "windowed", False):
            from repro.setcover.source import SourceBackedSetSystem

            return SourceBackedSetSystem(source)
        return cls.from_packed(source.to_packed())

    def content_digest(self) -> str:
        """SHA-256 of the packed incidence buffer — the system's identity.

        The exact digest task fingerprinting uses, stable across processes,
        compute backends, and source backings (file-backed systems answer
        from their header without rescanning the buffer).
        """
        import hashlib

        return hashlib.sha256(self.to_packed().buffer).hexdigest()

    @property
    def backing(self) -> str:
        """Which backing holds the incidence buffer (``heap`` here)."""
        return "heap"

    def __getstate__(self) -> Dict[str, object]:
        # Ship the packed incidence buffer, not the per-set Python integers:
        # one bytes object crosses the process boundary (pickle cost O(m·n/8)
        # in a single memcpy-friendly blob) and the receiving side's NumPy
        # kernel adopts it zero-copy.  The kernel and any kernel pin stay
        # behind: the other side resolves its own lazily.
        packed = self.to_packed()
        return {
            "universe_size": packed.universe_size,
            "num_sets": packed.num_sets,
            "buffer": packed.buffer,
            "names": packed.names,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        if "source" in state:
            # A source-backed system pickled as its descriptor: reattach to
            # the same segment/file on this side instead of shipping bytes.
            from repro.setcover.source import open_source

            rebuilt = SetSystem.from_source(open_source(state["source"]))  # type: ignore[arg-type]
            self.__dict__.update(rebuilt.__dict__)
            return
        rebuilt = SetSystem.from_packed(PackedSetSystem(**state))  # type: ignore[arg-type]
        self.__dict__.update(rebuilt.__dict__)

    def __repr__(self) -> str:
        return f"SetSystem(n={self._n}, m={self.num_sets})"

    # -- coverage queries -----------------------------------------------
    def coverage_mask(self, indices: Iterable[int]) -> int:
        """Return the bitset covered by the union of the sets at ``indices``."""
        return bitset_union(*(self._masks[i] for i in indices)) if indices else 0

    def coverage(self, indices: Iterable[int]) -> int:
        """Return the number of universe elements covered by ``indices``."""
        index_list = list(indices)
        if not index_list:
            return 0
        return bitset_size(self.coverage_mask(index_list))

    def covers_universe(self, indices: Iterable[int]) -> bool:
        """Return True iff the sets at ``indices`` cover the whole universe."""
        index_list = list(indices)
        if not index_list:
            return self._n == 0
        return self.coverage_mask(index_list) == self._universe_mask

    def uncovered_mask(self, indices: Iterable[int]) -> int:
        """Return the bitset of elements NOT covered by ``indices``."""
        index_list = list(indices)
        covered = self.coverage_mask(index_list) if index_list else 0
        return self._universe_mask & ~covered

    def element_frequencies(self) -> List[int]:
        """Return, for each element, the number of sets containing it."""
        return self.kernel().element_frequencies()

    def is_coverable(self) -> bool:
        """Return True iff the union of all sets is the whole universe."""
        return self.covers_universe(range(self.num_sets))

    # -- transformations -------------------------------------------------
    def restrict_to_elements(self, elements: Iterable[int]) -> "SetSystem":
        """Project every set onto the given element subset (same universe).

        Used by the element-sampling step of Algorithm 1: the projected system
        keeps the original element indices so covers translate back directly.
        ``elements`` may be an iterable of indices or an already-built bitset.
        """
        keep_mask = elements if isinstance(elements, int) else bitset_from_iterable(elements)
        return SetSystem.from_masks(
            self._n,
            self.kernel().restrict(keep_mask),
            self._names,
            backend=self._backend,
        )

    def with_patched_mask(self, index: int, extra_mask: int) -> "SetSystem":
        """Return a new system with ``extra_mask`` OR-ed into one set.

        The explicit constructor for the generators' coverability patches
        ("union the missing elements into some set"): it never mutates this
        system or any list derived from it, so the patch stays correct even
        if :meth:`masks` ever returns a shared view instead of a copy.
        """
        if not 0 <= index < self.num_sets:
            raise ValueError(f"set index {index} out of range [0, {self.num_sets})")
        if extra_mask & ~self._universe_mask:
            raise ValueError(
                f"extra mask contains elements outside the universe [0, {self._n})"
            )
        patched = list(self._masks)
        patched[index] |= extra_mask
        return SetSystem.from_masks(self._n, patched, self._names, backend=self._backend)

    def subsystem(self, indices: Sequence[int]) -> "SetSystem":
        """Return a new system containing only the sets at ``indices``."""
        return SetSystem.from_masks(
            self._n,
            [self._masks[i] for i in indices],
            [self._names[i] for i in indices],
            backend=self._backend,
        )


class SetCoverInstance:
    """A set cover instance: a :class:`SetSystem` plus solution bookkeeping.

    Keeps an optional record of the planted optimal value (for synthetic
    workloads where the generator knows ``opt``), which the experiment harness
    uses to report approximation ratios without invoking the exact solver on
    large instances.
    """

    def __init__(
        self,
        system: SetSystem,
        planted_opt: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        if planted_opt is not None and planted_opt <= 0:
            raise ValueError("planted_opt must be a positive integer when provided")
        self.system = system
        self.planted_opt = planted_opt
        self.metadata: Dict[str, object] = dict(metadata or {})

    @property
    def universe_size(self) -> int:
        """Universe size n."""
        return self.system.universe_size

    @property
    def num_sets(self) -> int:
        """Number of sets m."""
        return self.system.num_sets

    def __repr__(self) -> str:
        return (
            f"SetCoverInstance(n={self.universe_size}, m={self.num_sets}, "
            f"planted_opt={self.planted_opt})"
        )
