"""Hierarchical deterministic seed derivation for the experiment runtime.

Implements the seed protocol the runtime relies on for parallel/serial parity
(modelled on the Proteus seed protocol, PT-002):

1. every scenario owns a root ``scenario seed``;
2. repetition ``r`` of a scenario runs with
   ``repetition_seed(scenario_seed, r)``;
3. inside one run, each subsystem draws randomness only from its own *named
   stream*, obtained from a single :class:`SeedStreams` manager.

All derivation goes through :func:`repro.utils.rng.derive_seed`, which hashes
the ``(root, path)`` pair — so a derived stream depends only on its name, not
on the order streams are created or on how much randomness other streams have
consumed.  That isolation contract is what makes a sharded parallel run
byte-identical to the serial one: each task re-derives exactly the streams it
needs from its own task seed.

Example — streams are cached per name and independent of creation order::

    >>> streams = SeedStreams(base_seed=7)
    >>> streams.stream("instance") is streams.stream("instance")
    True
    >>> streams.seed_for("arrival") == stream_seed(7, "arrival")
    True
    >>> repetition_seed(scenario_seed(None, "E5"), 0) == repetition_seed(
    ...     scenario_seed(None, "E5"), 0)
    True
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.utils.rng import RandomSource, derive_seed

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


def stream_seed(base_seed: int, name: str) -> int:
    """Derive the seed of the named subsystem stream under ``base_seed``."""
    return derive_seed(base_seed, "stream", name)


class SeedStreams:
    """One run's named RNG streams, all derived from a single base seed.

    Each subsystem asks for its stream by a stable name (``"instance"``,
    ``"algorithm"``, ``"arrival"``, ...) and draws randomness only from it.
    Streams are created lazily and cached, and — because the seed of a stream
    depends only on ``(base_seed, name)`` — extra draws on one stream never
    perturb the sequence produced by another, nor does the order in which
    streams are first requested.
    """

    def __init__(self, base_seed: int) -> None:
        self.base_seed = int(base_seed)
        self._streams: Dict[str, RandomSource] = {}

    def stream(self, name: str) -> RandomSource:
        """Return (creating if needed) the named stream."""
        if name not in self._streams:
            self._streams[name] = RandomSource(stream_seed(self.base_seed, name))
        return self._streams[name]

    def seed_for(self, name: str) -> int:
        """Return the integer seed of the named stream without creating it."""
        return stream_seed(self.base_seed, name)

    def names(self) -> Tuple[str, ...]:
        """Names of the streams created so far, in sorted order."""
        return tuple(sorted(self._streams))

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedStreams(base_seed={self.base_seed}, streams={self.names()})"
