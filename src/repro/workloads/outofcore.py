"""Out-of-core workload generation: instances written straight to disk.

:func:`generate_to_file` produces the **same bytes** as
:func:`~repro.workloads.random_instances.random_set_system` for the same
parameters and seed — the RNG draws are consumed sequentially regardless of
how rows are windowed (see
:func:`~repro.workloads.random_instances.bernoulli_masks` for densities and
:meth:`~repro.utils.rng.RandomSource.subset_masks` for fixed set sizes,
both of which leave the stream exactly where per-row draws would), so
generating ``chunk_rows`` sets at a time and appending them to a
:class:`~repro.setcover.source.ContainerWriter` is bit-identical to building
the whole system in memory and dumping it.  Peak memory is bounded by one
row window (``chunk_rows × row_bytes`` packed plus the transient draw
buffer), independent of m — which is what makes the m ≥ 10⁶ regime
generable on an ordinary machine.

The result is a :class:`~repro.setcover.source.SourceDescriptor` for the
written container: hand it to ``repro run --instance-file``, reopen it via
:func:`~repro.setcover.source.open_source`, or pass it straight into the
workload runners as their ``instance`` parameter.

Example — file generation matches in-memory generation byte for byte::

    >>> import tempfile, os
    >>> from repro.setcover.source import open_source
    >>> from repro.workloads.random_instances import random_set_system
    >>> path = os.path.join(tempfile.mkdtemp(), "gen.repro")
    >>> descriptor = generate_to_file(path, 32, 300, seed=7, chunk_rows=64)
    >>> in_memory = random_set_system(32, 300, seed=7)
    >>> descriptor.digest == in_memory.content_digest()
    True
"""

from __future__ import annotations

import math
from typing import Optional

from repro.setcover.source import (
    DEFAULT_CHUNK_ROWS,
    ContainerWriter,
    SourceDescriptor,
)
from repro.utils.bitset import MAX_UNIVERSE_SIZE
from repro.utils.rng import SeedLike, spawn_rng
from repro.workloads.random_instances import bernoulli_masks


def generate_to_file(
    path: str,
    universe_size: int,
    num_sets: int,
    *,
    set_size: Optional[int] = None,
    density: Optional[float] = None,
    seed: SeedLike = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> SourceDescriptor:
    """Generate a random set system directly into a container file.

    Parameter semantics are exactly
    :func:`~repro.workloads.random_instances.random_set_system` — one of
    ``set_size`` / ``density``, with the same default density and the same
    seed handling — and the written buffer is bit-identical to what the
    in-memory generator would pack for the same arguments.  Unlike
    :func:`~repro.workloads.random_instances.random_instance` no
    coverability patch is applied: a patch needs the union of *all* rows
    before deciding, which is exactly the full-buffer pass an out-of-core
    writer must not take.  Callers that require coverability check it
    through the chunked kernel after the fact (one windowed union).
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    if universe_size > MAX_UNIVERSE_SIZE:
        raise ValueError(
            f"universe size {universe_size} exceeds the limit {MAX_UNIVERSE_SIZE}"
        )
    rng = spawn_rng(seed)
    if set_size is not None and density is not None:
        raise ValueError("provide at most one of set_size and density")
    if set_size is not None and not 0 <= set_size <= universe_size:
        raise ValueError(
            f"set_size must lie in [0, {universe_size}], got {set_size}"
        )
    if set_size is None and density is None:
        density = min(1.0, 4.0 * math.log(max(universe_size, 2)) / max(universe_size, 1))
    if density is not None and not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")

    writer = ContainerWriter(path, universe_size, num_sets)
    try:
        for start in range(0, num_sets, chunk_rows):
            rows = min(chunk_rows, num_sets - start)
            if set_size is not None:
                window = rng.subset_masks(universe_size, set_size, rows)
            else:
                window = bernoulli_masks(rng, rows, universe_size, density)
            writer.append_masks(window)
    except BaseException:
        writer.abort()
        raise
    return writer.close()


__all__ = ["generate_to_file"]
