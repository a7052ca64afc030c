"""The paper's lower-bound constructions and their empirical verifiers.

* Mapping-extensions (Definition 3).
* The hard set cover distribution ``D_SC`` (Section 3.1) and its random
  partitioning ``D_SC^rnd`` (Section 3.3).
* The hard maximum coverage distribution ``D_MC`` (Section 4.2) and its
  random partitioning.
* The reduction protocols of Lemma 3.4 (solving Disj via a SetCover protocol)
  and Lemma 4.5 (solving GHD via a MaxCover protocol).
* Monte-Carlo verifiers of the supporting lemmas (Lemma 2.2, Lemma 3.2,
  Claim 3.3, Lemma 4.3, Claim 4.4, Lemma 3.7's good-index count).
"""

from repro.lowerbound.mapping_extension import MappingExtension, random_mapping_extension
from repro.lowerbound.dsc import (
    DSCInstance,
    DSCParameters,
    sample_dsc,
    sample_dsc_random_partition,
)
from repro.lowerbound.dmc import (
    DMCInstance,
    DMCParameters,
    sample_dmc,
)
from repro.lowerbound.covering_lemma import (
    coverage_shortfall_trial,
    lemma_2_2_bound,
    estimate_uncovered_probability,
)
from repro.lowerbound.properties import (
    check_remark_3_1,
    dsc_opt_gap,
    dmc_value_gap,
    good_indices,
)
from repro.lowerbound.reduction import (
    DisjViaSetCoverProtocol,
    GHDViaMaxCoverProtocol,
)

__all__ = [
    "MappingExtension",
    "random_mapping_extension",
    "DSCInstance",
    "DSCParameters",
    "sample_dsc",
    "sample_dsc_random_partition",
    "DMCInstance",
    "DMCParameters",
    "sample_dmc",
    "coverage_shortfall_trial",
    "lemma_2_2_bound",
    "estimate_uncovered_probability",
    "check_remark_3_1",
    "dsc_opt_gap",
    "dmc_value_gap",
    "good_indices",
    "DisjViaSetCoverProtocol",
    "GHDViaMaxCoverProtocol",
]
