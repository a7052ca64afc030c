"""Coverage-style workloads for the maximum coverage experiments and examples.

Models the blog-watch scenario of Saha and Getoor (the paper's original
motivation for streaming coverage problems): items (blogs / hosts / queries)
each cover a set of topics, topics have community structure, and we want k
items covering as many topics as possible.
"""

from __future__ import annotations

from typing import List

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.utils.rng import SeedLike, spawn_rng


def topic_coverage_instance(
    num_topics: int,
    num_items: int,
    communities: int = 4,
    within_community_rate: float = 0.4,
    cross_community_rate: float = 0.02,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """Items cover topics with community structure.

    Topics are split into ``communities`` groups; each item belongs to one
    community and covers topics inside it at ``within_community_rate`` and
    outside it at ``cross_community_rate``.  Good k-covers therefore need one
    item per community — the structure the greedy and streaming max-coverage
    algorithms must discover.
    """
    if communities < 1:
        raise ValueError(f"communities must be >= 1, got {communities}")
    rng = spawn_rng(seed)
    topic_community = [t % communities for t in range(num_topics)]
    sets: List[List[int]] = []
    for item in range(num_items):
        community = item % communities
        covered = []
        for topic in range(num_topics):
            rate = (
                within_community_rate
                if topic_community[topic] == community
                else cross_community_rate
            )
            if rng.bernoulli(rate):
                covered.append(topic)
        sets.append(covered)
    system = SetSystem(num_topics, sets)
    return SetCoverInstance(
        system,
        metadata={
            "kind": "topic-coverage",
            "communities": communities,
            "item_community": [i % communities for i in range(num_items)],
        },
    )
