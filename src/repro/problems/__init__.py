"""Communication problem gadgets used by the lower-bound constructions.

* Set disjointness ``Disj_t`` with the hard distribution ``D_Disj`` of
  Section 2.2 (and its Yes / No conditionals).
* Gap-Hamming-Distance ``GHD_t`` with the ``D_GHD^{Y/N}`` conditionals of
  Section 4.1, drawn from the size-conditioned uniform ``U(a, b)``.
"""

from repro.problems.disjointness import (
    DisjointnessInstance,
    sample_ddisj,
    sample_ddisj_yes,
    sample_ddisj_no,
)
from repro.problems.ghd import (
    GHDInstance,
    ghd_answer,
    sample_dghd,
    sample_dghd_yes,
    sample_dghd_no,
)

__all__ = [
    "DisjointnessInstance",
    "sample_ddisj",
    "sample_ddisj_yes",
    "sample_ddisj_no",
    "GHDInstance",
    "ghd_answer",
    "sample_dghd",
    "sample_dghd_yes",
    "sample_dghd_no",
]
