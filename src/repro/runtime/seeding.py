"""Hierarchical deterministic seed derivation for the experiment runtime.

Implements the seed protocol the runtime relies on for parallel/serial parity
(modelled on the Proteus seed protocol, PT-002):

1. every scenario owns a root ``scenario seed``;
2. repetition ``r`` of a scenario runs with
   ``repetition_seed(scenario_seed, r)``;
3. inside one run, the runner seeds one
   :class:`~repro.utils.rng.RandomSource` from that seed and hands each
   subsystem its own child generator (``rng.spawn()``, in a fixed order).

All derivation goes through :func:`repro.utils.rng.derive_seed`, which hashes
the ``(root, path)`` pair — so a repetition's seed depends only on its
scenario and index, not on which other tasks ran before it or where.  That
isolation contract is what makes a sharded parallel run byte-identical to the
serial one: each task re-derives exactly its own seed.

Example — repetition seeds are stable and distinct::

    >>> root = scenario_seed(None, "E5")
    >>> repetition_seed(root, 0) == repetition_seed(scenario_seed(None, "E5"), 0)
    True
    >>> repetition_seed(root, 0) != repetition_seed(root, 1)
    True
"""

from __future__ import annotations

from typing import Optional

from repro.utils.rng import derive_seed

#: Default root used when a scenario declares no explicit seed but the
#: runtime still needs a deterministic per-repetition derivation.
DEFAULT_ROOT_SEED = 0x5E7C0F3A


def scenario_seed(root: Optional[int], scenario_name: str) -> int:
    """Resolve a scenario's root seed, deriving one from its name if unset."""
    if root is not None:
        return int(root)
    return derive_seed(DEFAULT_ROOT_SEED, "scenario", scenario_name)


def repetition_seed(scenario_root: int, repetition: int) -> int:
    """Derive the seed for repetition ``r`` of a scenario run."""
    if repetition < 0:
        raise ValueError(f"repetition index must be non-negative, got {repetition}")
    return derive_seed(scenario_root, "rep", repetition)
