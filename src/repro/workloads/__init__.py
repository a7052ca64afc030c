"""Workload generators for the experiments and examples.

Synthetic set systems with controllable structure: uniform random sets,
planted small covers (known ``opt``), Zipfian element popularity (a proxy for
the data-mining / information-retrieval workloads the paper's introduction
motivates), and coverage-style workloads for the maximum coverage experiments.
"""

from repro.workloads.random_instances import (
    random_set_system,
    random_instance,
    plant_cover_instance,
    zipfian_instance,
    disjoint_blocks_instance,
)
from repro.workloads.coverage import topic_coverage_instance
from repro.workloads.adversarial import (
    dsc_stream_instance,
    dmc_stream_instance,
)
from repro.workloads.io import (
    dump_instance,
    dumps_instance,
    loads_instance,
    save_instance,
    load_instance,
)
from repro.workloads.outofcore import generate_to_file

__all__ = [
    "random_set_system",
    "random_instance",
    "plant_cover_instance",
    "zipfian_instance",
    "disjoint_blocks_instance",
    "topic_coverage_instance",
    "dsc_stream_instance",
    "dmc_stream_instance",
    "dump_instance",
    "dumps_instance",
    "generate_to_file",
    "loads_instance",
    "save_instance",
    "load_instance",
]
