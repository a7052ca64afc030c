"""Single-pass (1 − 1/e)-approximate maximum coverage (McGregor–Vu style).

McGregor and Vu (ICDT 2017) — cited by the paper as [42] — give single-pass
max-coverage algorithms in Õ(m) space with a (1 − 1/e)-approximation, and
show that beating (1 − 1/e) requires Ω̃(m) space while a (1 − ε) guarantee
needs the full m/ε² (the paper's Result 2 pins the ε-dependence down).

This baseline implements the Õ(m)-space flavour: every set is replaced by a
fixed-size uniform *sketch* of its elements (plus its true cardinality) and
greedy runs over the sketches.  With k = O(1) and logarithmic sketch sizes
the guarantee degrades gracefully, which is what E10-style comparisons need —
a small-space algorithm that cannot reach (1 − ε) for small ε.
"""

from __future__ import annotations

from typing import Dict, List

from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import greedy_max_coverage
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_from_iterable, bitset_size
from repro.utils.rng import SeedLike, spawn_rng


class McGregorVuMaxCoverage(StreamingAlgorithm):
    """Single-pass max coverage over per-set element sketches.

    Parameters
    ----------
    k:
        Number of sets to select.
    sketch_size:
        Elements retained per set (the Õ(1) per-set space of the Õ(m)-space
        regime).  Larger sketches improve the estimate towards greedy's
        (1−1/e) guarantee.
    """

    name = "mcgregor-vu-maxcover"

    def __init__(
        self,
        k: int,
        sketch_size: int = 32,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if sketch_size < 1:
            raise ValueError(f"sketch_size must be >= 1, got {sketch_size}")
        self.k = k
        self.sketch_size = sketch_size
        self._rng = spawn_rng(seed)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        sketches: List[int] = [0] * m
        true_sizes: Dict[int, int] = {}
        stored = 0
        system = stream.batched_pass()
        kernel = system.kernel()
        sizes = kernel.set_sizes()
        # Element identities are only needed for the sets that actually get
        # down-sampled; everything at or under the sketch size keeps its mask
        # verbatim.  One batched unpack serves exactly the oversized sets.
        oversized = [i for i in range(m) if sizes[i] > self.sketch_size]
        element_lists = (
            dict(zip(oversized, kernel.element_lists(oversized))) if oversized else {}
        )
        for set_index in stream.arrival_order:
            size = sizes[set_index]
            true_sizes[set_index] = size
            if size > self.sketch_size:
                # The seed draws the sample from the iteration order of a
                # Python set built by ascending insertion; rebuilding that
                # set from the kernel's ascending element list reproduces
                # the exact order, hence the exact rng.sample stream.
                elements = list(set(element_lists[set_index]))
                elements = self._rng.sample(elements, self.sketch_size)
                sketches[set_index] = bitset_from_iterable(elements)
                stored += self.sketch_size + 1
            else:
                sketches[set_index] = system.mask(set_index)
                stored += size + 1
            self.space.set_usage("sketches", stored)

        sketch_system = SetSystem.from_masks(n, sketches)
        chosen, sketch_value = greedy_max_coverage(sketch_system, self.k)

        # Rescale the sketch coverage: each chosen set's sketch represents
        # true_size / sketch_len of its elements.  This is a biased estimate
        # (overlaps are under-counted), reported as-is — the point of the
        # baseline is its small space, not estimate quality.
        estimate = 0.0
        seen = 0
        for index in chosen:
            sketch_len = bitset_size(sketches[index]) or 1
            new_in_sketch = bitset_size(sketches[index] & ~seen)
            estimate += new_in_sketch * (true_sizes.get(index, 0) / sketch_len)
            seen |= sketches[index]
        metadata = {
            "k": self.k,
            "sketch_size": self.sketch_size,
            "sketch_coverage": sketch_value,
        }
        return self._finalize(
            stream, chosen, estimated_value=estimate, metadata=metadata
        )
