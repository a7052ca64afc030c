"""repro — reproduction of Assadi's tight multi-pass streaming set cover tradeoff.

The package reproduces *"Tight Space-Approximation Tradeoff for the Multi-Pass
Streaming Set Cover Problem"* (Sepehr Assadi, PODS 2017): the (α+ε)-approximate
(2α+1)-pass streaming algorithm (Algorithm 1 / Theorem 2), the hard input
distributions behind the Ω̃(m·n^{1/α}) and Ω̃(m/ε²) lower bounds (Theorems 1,
3, 4, 5), the two-party communication and information-complexity machinery the
proofs use, and the prior streaming set cover / max coverage algorithms the
paper positions itself against.

Quickstart
----------
>>> from repro import plant_cover_instance, OptGuessingSetCover, run_streaming_algorithm
>>> instance = plant_cover_instance(universe_size=128, num_sets=40, cover_size=4, seed=7)
>>> algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=7)
>>> result = run_streaming_algorithm(algorithm, instance.system)
>>> result.solution_size <= 3 * instance.planted_opt
True
"""

from repro.setcover import (
    SetSystem,
    SetCoverInstance,
    greedy_set_cover,
    exact_set_cover,
    exact_cover_value,
    greedy_max_coverage,
    exact_max_coverage,
    is_feasible_cover,
    verify_cover,
)
from repro.streaming import (
    SetStream,
    StreamOrder,
    SpaceMeter,
    StreamingAlgorithm,
    StreamingResult,
    MultiPassEngine,
    run_streaming_algorithm,
)
from repro.core import (
    StreamingSetCover,
    AlgorithmOneConfig,
    OptGuessingSetCover,
    StreamingMaxCoverage,
    element_sample,
    sampling_probability,
)
from repro.workloads import (
    random_set_system,
    plant_cover_instance,
    zipfian_instance,
)
from repro.kernels import (
    HAS_NUMPY,
    PyIntKernel,
    make_kernel,
    registered_backends,
    resolve_backend,
)

__version__ = "1.0.0"

__all__ = [
    "SetSystem",
    "SetCoverInstance",
    "greedy_set_cover",
    "exact_set_cover",
    "exact_cover_value",
    "greedy_max_coverage",
    "exact_max_coverage",
    "is_feasible_cover",
    "verify_cover",
    "SetStream",
    "StreamOrder",
    "SpaceMeter",
    "StreamingAlgorithm",
    "StreamingResult",
    "MultiPassEngine",
    "run_streaming_algorithm",
    "StreamingSetCover",
    "AlgorithmOneConfig",
    "OptGuessingSetCover",
    "StreamingMaxCoverage",
    "element_sample",
    "sampling_probability",
    "random_set_system",
    "plant_cover_instance",
    "zipfian_instance",
    "HAS_NUMPY",
    "PyIntKernel",
    "make_kernel",
    "registered_backends",
    "resolve_backend",
    "__version__",
]
