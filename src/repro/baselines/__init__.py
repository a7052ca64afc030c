"""Prior streaming algorithms the paper positions its bounds against.

* :class:`SahaGetoorGreedy` — the single-pass "keep a set if it improves the
  current cover" heuristic of Saha and Getoor (SDM 2009).
* :class:`EmekRosenSemiStreaming` — a semi-streaming one-pass algorithm in the
  spirit of Emek and Rosén (ICALP 2014): keep, for every element, one small
  set responsible for it.
* :class:`IterativePruningSetCover` — the Har-Peled et al. (PODS 2016) style
  multi-pass algorithm with *iterative* pruning, the algorithm whose space
  bound ``Õ(m·n^{Θ(1/α)})`` (constant > 2 in the exponent) the paper sharpens
  to exactly ``1/α`` via one-shot pruning.
* :class:`ProgressiveGreedyPasses` — the Demaine et al. (DISC 2014) flavour of
  multi-pass thresholded greedy.
* :class:`StoreEverythingSetCover` — the trivial "store the whole input, solve
  offline" baseline (space Θ(mn), one pass) marking the upper end of the
  space axis in E1/E11.
"""

from repro.baselines.saha_getoor import SahaGetoorGreedy
from repro.baselines.emek_rosen import EmekRosenSemiStreaming
from repro.baselines.har_peled import IterativePruningSetCover
from repro.baselines.demaine import ProgressiveGreedyPasses
from repro.baselines.full_storage import StoreEverythingSetCover
from repro.baselines.mcgregor_vu import McGregorVuMaxCoverage

__all__ = [
    "SahaGetoorGreedy",
    "EmekRosenSemiStreaming",
    "IterativePruningSetCover",
    "ProgressiveGreedyPasses",
    "StoreEverythingSetCover",
    "McGregorVuMaxCoverage",
]
