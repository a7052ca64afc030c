"""Offline set cover / maximum coverage substrate.

This package provides the classical (non-streaming) machinery the paper builds
on: the instance representation, the greedy ``ln n``-approximation, an exact
branch-and-bound solver used as ground truth in tests and experiments, and the
offline maximum coverage solvers.
"""

from repro.setcover.instance import (
    PackedSetSystem,
    SetCoverInstance,
    SetSystem,
    packed_row_bytes,
)
from repro.setcover.source import (
    ContainerWriter,
    HeapSource,
    InstanceSource,
    MmapSource,
    SharedMemorySource,
    SourceBackedSetSystem,
    SourceDescriptor,
    open_source,
    read_container_header,
    write_container,
)
from repro.setcover.greedy import greedy_set_cover, greedy_cover_trace
from repro.setcover.exact import exact_set_cover, exact_cover_value, brute_force_set_cover
from repro.setcover.maxcover import greedy_max_coverage, exact_max_coverage
from repro.setcover.verify import is_feasible_cover, verify_cover

__all__ = [
    "PackedSetSystem",
    "SetSystem",
    "SetCoverInstance",
    "packed_row_bytes",
    "ContainerWriter",
    "HeapSource",
    "InstanceSource",
    "MmapSource",
    "SharedMemorySource",
    "SourceBackedSetSystem",
    "SourceDescriptor",
    "open_source",
    "read_container_header",
    "write_container",
    "greedy_set_cover",
    "greedy_cover_trace",
    "exact_set_cover",
    "exact_cover_value",
    "brute_force_set_cover",
    "greedy_max_coverage",
    "exact_max_coverage",
    "is_feasible_cover",
    "verify_cover",
]
