"""Streaming model substrate.

Implements the multi-pass set-streaming model of the paper: the sets of a
:class:`~repro.setcover.SetSystem` arrive one at a time, the algorithm may make
several passes, and only its *space* (what it retains between set arrivals) is
restricted — computation per item is free, exactly as in the paper's model.
"""

from repro.streaming.space import SpaceMeter, SpaceReport
from repro.streaming.stream import SetStream, StreamOrder
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.engine import MultiPassEngine, run_streaming_algorithm

__all__ = [
    "SpaceMeter",
    "SpaceReport",
    "SetStream",
    "StreamOrder",
    "StreamingAlgorithm",
    "StreamingResult",
    "MultiPassEngine",
    "run_streaming_algorithm",
]
