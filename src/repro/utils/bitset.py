"""Bitset helpers for representing subsets of the universe ``[n]``.

Sets over the universe ``{0, ..., n-1}`` are stored as Python integers where
bit ``i`` set means element ``i`` is present.  This representation makes the
inner loops of the streaming algorithms (union, intersection, uncovered-count)
O(n/64) machine words instead of per-element hashing, which matters when the
benchmarks sweep the universe size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set


def bitset_from_iterable(elements: Iterable[int]) -> int:
    """Build a bitset from an iterable of non-negative element indices."""
    mask = 0
    for element in elements:
        if element < 0:
            raise ValueError(f"elements must be non-negative, got {element}")
        mask |= 1 << element
    return mask


def bitset_from_indices(indices: Iterable[int]) -> int:
    """Bulk bitset constructor from an iterable of non-negative indices.

    Output-identical to :func:`bitset_from_iterable`, but sets bits in a
    byte buffer and converts once — O(k + max/8) instead of k big-int
    shift-and-or operations, which is what the batched instance generators
    need when k is the whole set.
    """
    items = indices if isinstance(indices, (list, tuple)) else list(indices)
    if not items:
        return 0
    highest = max(items)
    if highest < 0:
        raise ValueError(f"elements must be non-negative, got {highest}")
    buffer = bytearray(highest // 8 + 1)
    for element in items:
        if element < 0:
            raise ValueError(f"elements must be non-negative, got {element}")
        buffer[element >> 3] |= 1 << (element & 7)
    return int.from_bytes(bytes(buffer), "little")


def masks_from_bool_rows(bits) -> "list[int]":
    """Convert a boolean ``(rows, n)`` NumPy matrix to one int mask per row.

    The bulk companion of :func:`bitset_from_indices` for the batched
    instance generators: one ``packbits`` call packs every row's membership
    vector, then each row converts with a single ``int.from_bytes`` —
    output-identical to building each mask element by element.
    """
    import numpy as np

    if bits.shape[1] == 0:
        return [0] * bits.shape[0]
    packed = np.packbits(bits, axis=1, bitorder="little")
    data = packed.tobytes()
    stride = packed.shape[1]
    return [
        int.from_bytes(data[row * stride : (row + 1) * stride], "little")
        for row in range(packed.shape[0])
    ]


def mask_from_bools(bits) -> int:
    """Pack a boolean length-``n`` NumPy vector into a single int mask."""
    import numpy as np

    if len(bits) == 0:
        return 0
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def bitset_to_set(mask: int) -> Set[int]:
    """Expand a bitset into a plain Python set of element indices.

    The elements are inserted in ascending order, so the set's iteration
    order (which seeded samplers draw in) depends only on the mask.
    """
    return set(iter_bits(mask))


#: ``_BYTE_BITS[value]``: the positions of the set bits of one byte, ascending.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)

#: Decoder crossover (docs/performance.md, "Decoding a mask"): the byte
#: table wins from 48 set bits at any length, and below that once a mask
#: holds two set bits more than one per 24 bits of its length.  The loop's
#: cost per set bit grows with the mask's length and the table's does not;
#: the two bits pay for the table's fixed cost on short masks.
_TABLE_BITS_PER_SET_BIT = 24
_TABLE_FIXED_SET_BITS = 2
_TABLE_MIN_SET_BITS = 48


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the indices of set bits in increasing order.

    Two decoders give the same sequence, and the mask's own popcount picks
    one.  A dense mask is read from its little-endian bytes through a
    256-entry table of bit positions: O(n/8 + popcount) for an n-bit mask.
    A sparse one keeps the lowest-set-bit loop (``mask & -mask`` isolates
    the lowest set bit, ``bit_length`` names it), which costs O(n/64) words
    per set bit and so wins only while the set bits are few.
    """
    count = bitset_size(mask)
    excess = count - _TABLE_FIXED_SET_BITS
    if count >= _TABLE_MIN_SET_BITS or excess * _TABLE_BITS_PER_SET_BIT >= mask.bit_length():
        return iter(_table_bits(mask))
    return _lowest_bits(mask)


def _table_bits(mask: int) -> List[int]:
    """Ascending set-bit indices of ``mask``, one table lookup per byte."""
    positions: List[int] = []
    append = positions.append
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                append(base + bit)
        base += 8
    return positions


def _lowest_bits(mask: int) -> Iterator[int]:
    """Ascending set-bit indices of ``mask``, peeling the lowest bit each step."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount_fallback(mask: int) -> int:
    """Portable popcount for Python < 3.10 (no ``int.bit_count``)."""
    return bin(mask).count("1")


_popcount = getattr(int, "bit_count", None) or _popcount_fallback


def bitset_size(mask: int) -> int:
    """Return the number of elements in the bitset (popcount)."""
    return _popcount(mask)


def bitset_union(*masks: int) -> int:
    """Return the union of the given bitsets."""
    result = 0
    for mask in masks:
        result |= mask
    return result


#: The largest universe size n any instance input may declare: instance
#: text, container headers, ``repro serve`` instance specs and
#: ``gen-instance``.  Each parser checks it before building a mask, since a
#: mask of n bits costs n/8 bytes however short the text declaring it (see
#: docs/robustness.md, "Hostile instance input").
MAX_UNIVERSE_SIZE = 1 << 24

#: The most mask bits an instance read from instance text or built from a
#: ``repro serve`` spec may hold: n·m, with each set counted in whole 64-bit
#: words (at least one), as its packed row stores it.  A header declaring m
#: costs a few bytes whatever m is, while m masks stay resident (see
#: docs/robustness.md, "Hostile instance input").
MAX_INSTANCE_BITS = 1 << 27


def check_instance_bits(universe_size: int, num_sets: int) -> None:
    """Raise ``ValueError`` when an n × m instance exceeds :data:`MAX_INSTANCE_BITS`.

    Called with the declared sizes before any mask is built.
    """
    bits = num_sets * max(1, (universe_size + 63) // 64) * 64
    if bits > MAX_INSTANCE_BITS:
        raise ValueError(
            f"instance of n={universe_size}, m={num_sets} needs {bits} mask bits, "
            f"over the limit {MAX_INSTANCE_BITS}"
        )


def universe_mask(n: int) -> int:
    """Return the bitset representing the full universe {0, ..., n-1}."""
    if n < 0:
        raise ValueError(f"universe size must be non-negative, got {n}")
    return (1 << n) - 1
