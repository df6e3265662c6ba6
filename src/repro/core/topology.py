"""Overlay topology reconstruction and degree analysis (paper §4, Fig. 7).

From a crawl snapshot we learn the complete k-buckets (all outgoing DHT
connections) of every crawled node; in-degree is estimated by a node's
presence in other peers' buckets, which undercounts because not every
node is crawlable.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.crawler import CrawlSnapshot
from repro.ids.peerid import PeerID


def build_undirected(snapshot: CrawlSnapshot) -> Dict[PeerID, Set[PeerID]]:
    """The undirected interpretation used by the resilience experiment
    (all observable connections usable for communication, §4).

    Nodes are every discovered peer, then any bucket entry not yet seen,
    in ``snapshot.edges`` order; an edge joins each crawled peer to each
    of its outgoing bucket entries (``snapshot.edges``, the directed
    graph).  Uncrawlable peers appear as leaves reached only through
    other peers' buckets — exactly the paper's graph.  The adjacency is
    symmetric and has no self-loops.
    """
    adjacency: Dict[PeerID, Set[PeerID]] = {peer: set() for peer in snapshot.observations}
    for peer, neighbors in snapshot.edges.items():
        adjacency.setdefault(peer, set())
        for neighbor in neighbors:
            adjacency[peer].add(neighbor)
            adjacency.setdefault(neighbor, set()).add(peer)
    for peer, neighbors in adjacency.items():
        neighbors.discard(peer)
    return adjacency


def out_degrees(snapshot: CrawlSnapshot) -> Dict[PeerID, int]:
    """Out-degree of every *crawled* node (complete buckets)."""
    return {peer: len(neighbors) for peer, neighbors in snapshot.edges.items()}


def estimated_in_degrees(snapshot: CrawlSnapshot) -> Dict[PeerID, int]:
    """In-degree estimated from presence in crawled peers' buckets."""
    counts: Counter = Counter()
    for neighbors in snapshot.edges.values():
        counts.update(neighbors)
    return {peer: counts.get(peer, 0) for peer in snapshot.observations}


def degree_cdf(degrees: Sequence[int]) -> List[Tuple[int, float]]:
    """``(degree, P[X <= degree])`` points of the empirical CDF."""
    if not degrees:
        return []
    ordered = sorted(degrees)
    total = len(ordered)
    cdf: List[Tuple[int, float]] = []
    for index, value in enumerate(ordered, start=1):
        if index == total or ordered[index] != value:
            cdf.append((value, index / total))
    return cdf


def percentile(degrees: Sequence[int], fraction: float) -> float:
    """The ``fraction`` percentile (0..1) of a degree sample."""
    if not degrees:
        raise ValueError("empty degree sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(degrees)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[index])


def degree_summary(snapshot: CrawlSnapshot) -> Dict[str, float]:
    """The Fig. 7 headline numbers for one snapshot."""
    outs = list(out_degrees(snapshot).values())
    ins = list(estimated_in_degrees(snapshot).values())
    return {
        "out_mean": sum(outs) / len(outs) if outs else 0.0,
        "out_p10": percentile(outs, 0.10) if outs else 0.0,
        "out_p90": percentile(outs, 0.90) if outs else 0.0,
        "in_median": percentile(ins, 0.50) if ins else 0.0,
        "in_p90": percentile(ins, 0.90) if ins else 0.0,
        "in_max": float(max(ins)) if ins else 0.0,
    }
