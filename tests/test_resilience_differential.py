"""Differential checks of the union-find removal experiments (Fig. 8).

The oracle below is the straightforward algorithm: remove one victim at
a time from a copy of the graph and search the components again at every
recorded step.  ``repro.core.resilience`` must reproduce it bit for bit —
same victims for the same seed, same ``max``-first tie-break, same float
ratios.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import resilience


def _largest_component(graph):
    seen = set()
    largest = 0
    for start in graph:
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        size = 0
        while frontier:
            node = frontier.pop()
            size += 1
            for neighbor in graph[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        largest = max(largest, size)
    return largest


def _oracle(adjacency, pick, record_every=None):
    graph = {node: set(neighbors) - {node} for node, neighbors in adjacency.items()}
    total = len(graph)
    step = record_every or max(1, total // 100)

    def share():
        return _largest_component(graph) / len(graph) if graph else 0.0

    trace = resilience.RemovalTrace([0.0], [share()])
    removed = 0
    while len(graph) > 1:
        victim = pick(graph)
        for neighbor in graph.pop(victim):
            graph[neighbor].discard(victim)
        removed += 1
        if removed % step == 0 or len(graph) <= 1:
            trace.removed_fraction.append(removed / total)
            trace.lcc_share.append(share())
    return trace


def oracle_random(adjacency, rng, record_every=None):
    return _oracle(adjacency, lambda graph: rng.choice(list(graph)), record_every)


def oracle_targeted(adjacency, record_every=None):
    return _oracle(adjacency, lambda graph: max(graph, key=lambda node: len(graph[node])), record_every)


@st.composite
def graphs(draw, max_nodes=14):
    """Small loop-free graphs with scrambled node labels, so node order
    differs from label order; ties and isolated nodes are common."""
    n = draw(st.integers(0, max_nodes))
    labels = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adjacency = {label: set() for label in labels}
    for a, b in edges:
        adjacency[labels[a]].add(labels[b])
        adjacency[labels[b]].add(labels[a])
    return adjacency


@st.composite
def graphs_and_steps(draw):
    graph = draw(graphs())
    step = draw(st.none() | st.integers(1, max(1, len(graph))))
    return graph, step


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_steps(), st.integers(0, 2**32 - 1))
    def test_random_removal(self, case, seed):
        graph, step = case
        got = resilience.random_removal(graph, random.Random(seed), step)
        assert got == oracle_random(graph, random.Random(seed), step)

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_steps())
    def test_targeted_removal(self, case):
        graph, step = case
        assert resilience.targeted_removal(graph, step) == oracle_targeted(graph, step)

    @settings(max_examples=40, deadline=None)
    @given(graphs(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_confidence_interval_uses_per_repetition_seeds(self, graph, seed, repetitions):
        fractions, means, _ = resilience.random_removal_with_ci(
            graph, repetitions=repetitions, rng=random.Random(seed)
        )
        parent = random.Random(seed)
        traces = [
            oracle_random(graph, random.Random(parent.randrange(2**32)))
            for _ in range(repetitions)
        ]
        assert fractions == traces[0].removed_fraction
        for index, mean in enumerate(means):
            values = [trace.lcc_share[index] for trace in traces]
            assert mean == sum(values) / len(values)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        graph = {node: set() for node in range(n)}
        if n == 2:
            graph = {0: {1}, 1: {0}}
        assert resilience.targeted_removal(graph) == oracle_targeted(graph)
        assert resilience.random_removal(graph, random.Random(1)) == oracle_random(
            graph, random.Random(1)
        )

    def test_degree_ties_go_to_the_earliest_node(self):
        # "z" and "a" both have the top degree 3; "z" comes first in node
        # order, so it goes first and leaves the 4-node side {a, c, d, e}.
        graph = {
            "z": {"p", "q", "a"}, "a": {"z", "c", "d"}, "p": {"z"}, "q": {"z"},
            "c": {"a"}, "d": {"a", "e"}, "e": {"d"},
        }
        trace = resilience.targeted_removal(graph, record_every=1)
        assert trace == oracle_targeted(graph, record_every=1)
        assert trace.lcc_share[1] == 4 / 6

    def test_self_loops_are_ignored(self):
        graph = {0: {0, 1}, 1: {0}, 2: {2}}
        assert resilience.targeted_removal(graph, 1) == oracle_targeted(graph, 1)


def _networkx_reference(nx, graph, pick, record_every=None):
    """The remove-then-search algorithm on a networkx graph copy."""
    work = graph.copy()
    total = work.number_of_nodes()
    step = record_every or max(1, total // 100)

    def share():
        largest = max((len(c) for c in nx.connected_components(work)), default=0)
        return largest / work.number_of_nodes()

    trace = resilience.RemovalTrace([0.0], [share()])
    removed = 0
    while work.number_of_nodes() > 1:
        work.remove_node(pick(work))
        removed += 1
        if removed % step == 0 or work.number_of_nodes() <= 1:
            trace.removed_fraction.append(removed / total)
            trace.lcc_share.append(share())
    return trace


class TestAgainstNetworkx:
    @pytest.mark.parametrize("family", ["ba", "gnp"])
    def test_reference_graphs(self, family):
        nx = pytest.importorskip("networkx")
        if family == "ba":
            graph = nx.barabasi_albert_graph(300, 3, seed=11)
        else:
            graph = nx.gnp_random_graph(250, 0.03, seed=12)
        plain = {node: set(graph[node]) for node in graph}

        def highest_degree(work):
            return max(work.degree, key=lambda item: item[1])[0]

        targeted = _networkx_reference(nx, graph, highest_degree)
        assert resilience.targeted_removal(graph) == targeted
        assert resilience.targeted_removal(plain) == targeted

        rng = random.Random(13)
        random_trace = _networkx_reference(nx, graph, lambda work: rng.choice(list(work.nodes)))
        assert resilience.random_removal(graph, random.Random(13)) == random_trace
        assert resilience.random_removal(plain, random.Random(13)) == random_trace
