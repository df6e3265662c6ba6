"""Node-removal resilience experiments (paper §4, Fig. 8).

Two removal strategies over the undirected snapshot graph: *random*
(uniform node) and *targeted* (highest current degree).  After each
removal the share of remaining nodes inside the largest connected
component is recorded.  Random removal barely dents the network (scale-
free robustness); targeted removal fully partitions it after ≈60 % of
nodes are gone.

A graph is any mapping from node to its neighbours, iterated in node
order: the ``Dict[node, Set[node]]`` of
:func:`repro.core.topology.build_undirected`, or a ``networkx.Graph``.
It must be symmetric; self-loops are ignored and the input is never
mutated.  Each experiment interns the nodes to ints, derives the whole
removal order, then computes the LCC curve in one union-find pass over
the reverse order instead of a component search per recorded step.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Mapping, Optional, Tuple

Graph = Mapping[Hashable, Iterable[Hashable]]


@dataclass
class RemovalTrace:
    """LCC share after each removal step.

    :ivar removed_fraction: x-axis, fraction of original nodes removed.
    :ivar lcc_share: fraction of *remaining* nodes in the largest
        component (the paper's y-axis).
    """

    removed_fraction: List[float] = field(default_factory=list)
    lcc_share: List[float] = field(default_factory=list)

    def share_at(self, fraction: float) -> float:
        """LCC share at the removal fraction closest below ``fraction``."""
        best = 1.0
        for x, y in zip(self.removed_fraction, self.lcc_share):
            if x <= fraction:
                best = y
            else:
                break
        return best

    def partition_point(self, threshold: float = 0.05) -> float:
        """First removal fraction at which the LCC share drops below
        ``threshold`` (≈ complete partitioning); 1.0 if never."""
        for x, y in zip(self.removed_fraction, self.lcc_share):
            if y < threshold:
                return x
        return 1.0


def _intern(graph: Graph) -> List[List[int]]:
    """Neighbour lists over node indices ``0..n-1`` in node order."""
    index = {node: i for i, node in enumerate(graph)}
    adjacency = [list(map(index.__getitem__, graph[node])) for node in graph]
    for node, neighbors in enumerate(adjacency):
        if node in neighbors:
            neighbors.remove(node)
    return adjacency


def _random_order(n: int, rng: random.Random) -> List[int]:
    """All ``n`` nodes in removal order: ``n - 1`` uniformly random
    victims, then the survivor.

    ``rng.choice(range(len(alive)))`` makes the same draw as
    ``rng.choice(alive)`` and yields the position to pop, so the victims
    equal those of picking among the remaining nodes in node order.
    """
    alive = list(range(n))
    return [alive.pop(rng.choice(range(len(alive)))) for _ in range(n - 1)] + alive


def _targeted_order(adjacency: List[List[int]]) -> List[int]:
    """All nodes in highest-current-degree-first order; ties go to the
    earliest node, as ``max`` over the node order does.

    A lazy max-heap on ``(-degree, index)``: every degree drop pushes a
    fresh entry and outdated ones are skipped when popped.
    """
    degree = [len(neighbors) for neighbors in adjacency]
    heap = [(-d, node) for node, d in enumerate(degree)]
    heapq.heapify(heap)
    removed = [False] * len(adjacency)
    order: List[int] = []
    while heap:
        negative, victim = heapq.heappop(heap)
        if removed[victim] or -negative != degree[victim]:
            continue
        removed[victim] = True
        order.append(victim)
        for neighbor in adjacency[victim]:
            if not removed[neighbor]:
                degree[neighbor] -= 1
                heapq.heappush(heap, (-degree[neighbor], neighbor))
    return order


def _trace(adjacency: List[List[int]], order: List[int], record_every: int) -> RemovalTrace:
    """The LCC curve of removing ``order`` one node at a time until one
    node is left.

    Adds the nodes back in reverse order under union-find, so
    ``largest[k]`` is the largest component once ``k`` nodes are gone.
    """
    total = len(adjacency)
    if total == 0:
        return RemovalTrace([0.0], [0.0])
    parent = list(range(total))
    size = [1] * total
    present = [False] * total
    largest = [0] * total
    biggest = 0
    for removed in range(total - 1, -1, -1):
        node = order[removed]
        present[node] = True
        root = node
        for neighbor in adjacency[node]:
            if not present[neighbor]:
                continue
            while parent[neighbor] != neighbor:
                parent[neighbor] = parent[parent[neighbor]]
                neighbor = parent[neighbor]
            if neighbor != root:
                if size[root] < size[neighbor]:
                    root, neighbor = neighbor, root
                parent[neighbor] = root
                size[root] += size[neighbor]
        if size[root] > biggest:
            biggest = size[root]
        largest[removed] = biggest
    trace = RemovalTrace([0.0], [largest[0] / total])
    for removed in range(1, total):
        left = total - removed
        if removed % record_every == 0 or left <= 1:
            trace.removed_fraction.append(removed / total)
            trace.lcc_share.append(largest[removed] / left)
    return trace


def _step(n: int, record_every: Optional[int]) -> int:
    return record_every or max(1, n // 100)


def random_removal(
    graph: Graph, rng: Optional[random.Random] = None, record_every: Optional[int] = None
) -> RemovalTrace:
    """Remove uniformly random nodes until one node is left."""
    adjacency = _intern(graph)
    order = _random_order(len(adjacency), rng or random.Random(0))
    return _trace(adjacency, order, _step(len(adjacency), record_every))


def targeted_removal(graph: Graph, record_every: Optional[int] = None) -> RemovalTrace:
    """Repeatedly remove the node with the highest current degree."""
    adjacency = _intern(graph)
    return _trace(adjacency, _targeted_order(adjacency), _step(len(adjacency), record_every))


def random_removal_with_ci(
    graph: Graph,
    repetitions: int = 10,
    rng: Optional[random.Random] = None,
    record_every: Optional[int] = None,
) -> Tuple[List[float], List[float], List[float]]:
    """The paper's protocol: repeat random removal 10 times and report a
    95 % confidence interval around the mean LCC share.

    Returns ``(fractions, mean_share, halfwidth_95)`` aligned per step.
    """
    rng = rng or random.Random(0)
    adjacency = _intern(graph)
    step = _step(len(adjacency), record_every)
    traces = [
        _trace(adjacency, _random_order(len(adjacency), random.Random(rng.randrange(2**32))), step)
        for _ in range(repetitions)
    ]
    length = min(len(trace.lcc_share) for trace in traces)
    fractions = traces[0].removed_fraction[:length]
    means: List[float] = []
    halfwidths: List[float] = []
    for index in range(length):
        values = [trace.lcc_share[index] for trace in traces]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
        std_error = (variance / len(values)) ** 0.5
        means.append(mean)
        halfwidths.append(1.96 * std_error)
    return fractions, means, halfwidths
