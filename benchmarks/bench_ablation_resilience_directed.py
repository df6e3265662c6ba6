"""Ablation — directed vs undirected resilience graphs.

§4 caveat: the paper simplifies the graph to be undirected, which lets
Bitswap use every edge but ignores edge direction.  Comparing the
undirected interpretation against the strongly-connected view of the
directed graph bounds the effect of that simplification.
"""

import pytest

from repro.core import topology
from repro.core.resilience import targeted_removal

from _bench_utils import show


def test_ablation_directed_vs_undirected(benchmark, campaign):
    nx = pytest.importorskip("networkx")
    snapshot = campaign.crawls.snapshots[-1]

    def compare():
        digraph = nx.DiGraph()
        digraph.add_nodes_from(snapshot.observations)
        for peer, neighbors in snapshot.edges.items():
            for neighbor in neighbors:
                digraph.add_edge(peer, neighbor)
        targeted = targeted_removal(topology.build_undirected(snapshot))
        return {
            "scc_share": max(map(len, nx.strongly_connected_components(digraph)))
            / digraph.number_of_nodes(),
            # The trace starts with the intact graph's LCC share.
            "undirected_lcc": targeted.lcc_share[0],
            "partition_point": targeted.partition_point(),
        }

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    show(
        "Ablation — directed vs undirected graph",
        [
            ("largest SCC share (directed)", results["scc_share"], float("nan")),
            ("LCC share (undirected)", results["undirected_lcc"], 1.0),
            ("targeted partition point (undirected)", results["partition_point"], 0.60),
        ],
    )
    # The undirected view is (weakly) more connected by construction: the
    # uncrawlable leaves have no out-edges, so they sit outside the SCC.
    assert results["undirected_lcc"] >= results["scc_share"]
    # The directed core still spans the crawlable network.
    crawlable_share = snapshot.num_crawlable / snapshot.num_discovered
    assert results["scc_share"] > 0.8 * crawlable_share
