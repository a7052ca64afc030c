"""Concrete two-party protocols.

* Disjointness / GHD: the trivial one-way protocols (baselines for the
  communication-cost experiments).
* Set cover: the full-exchange exact protocol and a two-party simulation of
  Algorithm 1 whose communication matches the paper's upper bound shape
  ``Õ(α · m · n^{1/α})``.
* Maximum coverage: full exchange.
"""

from repro.communication.protocols.disjointness import (
    TrivialDisjProtocol,
    IntersectionProbeProtocol,
)
from repro.communication.protocols.ghd import TrivialGHDProtocol
from repro.communication.protocols.setcover_protocol import (
    FullExchangeSetCoverProtocol,
    TwoPartyAlgorithmOneProtocol,
    SetCoverInput,
)
from repro.communication.protocols.maxcover_protocol import FullExchangeMaxCoverProtocol

__all__ = [
    "TrivialDisjProtocol",
    "IntersectionProbeProtocol",
    "TrivialGHDProtocol",
    "FullExchangeSetCoverProtocol",
    "TwoPartyAlgorithmOneProtocol",
    "SetCoverInput",
    "FullExchangeMaxCoverProtocol",
]
