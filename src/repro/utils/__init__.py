"""Shared utilities: RNG management, bitset helpers, table rendering."""

from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.bitset import (
    bitset_from_iterable,
    bitset_to_set,
    bitset_size,
    bitset_union,
    universe_mask,
    iter_bits,
)
from repro.utils.tables import Table, format_table

__all__ = [
    "RandomSource",
    "spawn_rng",
    "bitset_from_iterable",
    "bitset_to_set",
    "bitset_size",
    "bitset_union",
    "universe_mask",
    "iter_bits",
    "Table",
    "format_table",
]
