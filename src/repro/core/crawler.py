"""The DHT crawler (paper §3).

It is possible to enumerate all DHT connections of a node through crafted
FIND_NODE messages, sweeping the address space towards the target node's
own address.  The crawler BFS-walks the network from bootstrap peers; for
every connectable peer it sweeps each k-bucket with a crafted key and
unions the responses, yielding the peer's complete outbound DHT view.
Unconnectable peers remain in the snapshot as discovered-but-uncrawlable
leaves.

The crawl itself is factored into two halves so that repeated crawls can
run on a process pool (see :mod:`repro.exec`):

* :func:`freeze_crawl_task` captures the overlay state a crawl can
  observe into a compact, picklable :class:`CrawlTask` (peers are
  interned to integer indices; only digests, DHT keys, addresses,
  dialability and routing-table edges travel);
* :func:`execute_crawl_task` is a *pure function* of that task.  All
  randomness comes from the task's own derived seed, and every internal
  set holds ``int`` indices (whose iteration order, unlike ``bytes``
  hashes, does not depend on ``PYTHONHASHSEED``), so the resulting
  snapshot is bit-identical no matter which process executes it.

:func:`execute_crawl_task_observed` runs the same function with private
observer sinks chosen by a :class:`Capture` and ships what they
collected back with the snapshot.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.exec.seeds import derive_seed
from repro.ids.keys import KEY_BITS, random_key_in_bucket
from repro.ids.peerid import PeerID
from repro.netsim.network import Overlay
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import DEFAULT_CAPACITY, Tracer

#: The paper's crawl connection timeout (3 minutes).
DEFAULT_TIMEOUT = 180.0

#: Concurrent connection workers modelled for the duration estimate.
CRAWL_PARALLELISM = 1000


@dataclass
class CrawlObservation:
    """One peer as seen in one crawl."""

    peer: PeerID
    ips: Tuple[str, ...]
    crawlable: bool


@dataclass
class CrawlSnapshot:
    """One full sweep of the DHT."""

    crawl_id: int
    started_at: float
    duration: float = 0.0
    observations: Dict[PeerID, CrawlObservation] = field(default_factory=dict)
    #: outgoing DHT edges of every *crawled* peer.
    edges: Dict[PeerID, Tuple[PeerID, ...]] = field(default_factory=dict)
    requests_sent: int = 0

    @property
    def num_discovered(self) -> int:
        return len(self.observations)

    @property
    def num_crawlable(self) -> int:
        return sum(1 for obs in self.observations.values() if obs.crawlable)

    def peer_ip_rows(self) -> Iterator[Tuple[int, PeerID, str]]:
        """(crawl_id, peer, ip) rows — the Table 1 dataset shape."""
        for obs in self.observations.values():
            for ip in obs.ips:
                yield self.crawl_id, obs.peer, ip


@dataclass
class CrawlDataset:
    """All snapshots of a crawling campaign."""

    snapshots: List[CrawlSnapshot] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)

    def add(self, snapshot: CrawlSnapshot) -> None:
        self.snapshots.append(snapshot)

    @classmethod
    def merge(cls, shards: Iterable[Sequence[CrawlSnapshot]]) -> "CrawlDataset":
        """K-way merge of per-worker snapshot shards into crawl order.

        Each shard must be internally ordered by ``crawl_id`` (true for
        any worker that processed tasks in submission order); the merge
        then restores the global campaign order exactly, mirroring the
        sequence-number heap-merge of
        :class:`repro.store.shard.ShardedBackend`.
        """
        merged = heapq.merge(*shards, key=lambda snapshot: snapshot.crawl_id)
        return cls(snapshots=list(merged))

    def rows(self) -> Iterator[Tuple[int, PeerID, str]]:
        for snapshot in self.snapshots:
            yield from snapshot.peer_ip_rows()

    # -- §3 summary statistics ------------------------------------------------

    def avg_discovered(self) -> float:
        if not self.snapshots:
            return 0.0
        return sum(s.num_discovered for s in self.snapshots) / len(self.snapshots)

    def avg_crawlable(self) -> float:
        if not self.snapshots:
            return 0.0
        return sum(s.num_crawlable for s in self.snapshots) / len(self.snapshots)

    def unique_peer_ids(self) -> int:
        peers: Set[PeerID] = set()
        for snapshot in self.snapshots:
            peers.update(snapshot.observations)
        return len(peers)

    def unique_ips(self) -> int:
        ips: Set[str] = set()
        for snapshot in self.snapshots:
            for obs in snapshot.observations.values():
                ips.update(obs.ips)
        return len(ips)

    def avg_ips_per_peer(self) -> float:
        """Average number of distinct non-local IPs a peer announced
        across all crawls (the paper reports 1.82)."""
        per_peer: Dict[PeerID, Set[str]] = {}
        for snapshot in self.snapshots:
            for obs in snapshot.observations.values():
                per_peer.setdefault(obs.peer, set()).update(obs.ips)
        if not per_peer:
            return 0.0
        return sum(len(ips) for ips in per_peer.values()) / len(per_peer)


# ---------------------------------------------------------------------------
# the pure crawl task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrawlTask:
    """Everything one crawl can observe, frozen into picklable plain data.

    Peers are interned: index ``i`` everywhere refers to the peer with
    digest ``peer_digests[i]`` and Kademlia key ``dht_keys[i]``.
    """

    crawl_id: int
    #: per-crawl derived seed (never shared RNG state).
    seed: int
    started_at: float
    timeout: float
    bootstrap_size: int
    k: int
    #: online DHT-server count at freeze time (drives the sweep depth).
    oracle_size: int
    peer_digests: Tuple[bytes, ...]
    dht_keys: Tuple[int, ...]
    #: last-announced non-circuit IPs per peer (stale peers keep theirs).
    ips: Tuple[Tuple[str, ...], ...]
    #: online DHT servers: index -> (reachable, response latency).
    servers: Dict[int, Tuple[bool, float]]
    #: routing-table contents of every online DHT server.
    tables: Dict[int, Tuple[int, ...]]
    #: bootstrap candidates: stable (platform) servers, and all servers.
    stable_pool: Tuple[int, ...]
    server_pool: Tuple[int, ...]


def freeze_crawl_task(
    overlay: Overlay,
    crawl_id: int,
    *,
    seed: int,
    timeout: float = DEFAULT_TIMEOUT,
    bootstrap_size: int = 8,
) -> CrawlTask:
    """Capture the crawl-observable overlay state at the current instant.

    Pure read — the overlay is not mutated and no shared RNG is drawn,
    so freezing is insensitive to how many crawls ran before.
    """
    index_of: Dict[PeerID, int] = {}
    peers: List[PeerID] = []

    def intern(peer: PeerID) -> int:
        index = index_of.get(peer)
        if index is None:
            index = len(peers)
            index_of[peer] = index
            peers.append(peer)
        return index

    servers: Dict[int, Tuple[bool, float]] = {}
    tables: Dict[int, Tuple[int, ...]] = {}
    stable_pool: List[int] = []
    server_pool: List[int] = []
    for node in overlay.online_servers():
        index = intern(node.peer)
        server_pool.append(index)
        if node.spec.platform is not None:
            stable_pool.append(index)
        servers[index] = (node.reachable, node.response_latency)
        table = node.routing_table
        tables[index] = (
            tuple(intern(peer) for peer in table.peers()) if table is not None else ()
        )

    # ``peers`` keeps growing while tables intern stale entries, so the
    # address pass runs over the final interning.
    ips: List[Tuple[str, ...]] = []
    for peer in peers:
        info = overlay.last_info(peer)
        if info is None:
            ips.append(())
        else:
            ips.append(
                tuple(sorted({addr.ip for addr in info.addrs if not addr.is_circuit}))
            )

    return CrawlTask(
        crawl_id=crawl_id,
        seed=seed,
        started_at=overlay.now,
        timeout=timeout,
        bootstrap_size=bootstrap_size,
        k=overlay.k,
        oracle_size=len(overlay.oracle),
        peer_digests=tuple(peer.digest for peer in peers),
        dht_keys=tuple(peer.dht_key for peer in peers),
        ips=tuple(ips),
        servers=servers,
        tables=tables,
        stable_pool=tuple(stable_pool),
        server_pool=tuple(server_pool),
    )


def execute_crawl_task(task: CrawlTask) -> CrawlSnapshot:
    """Run one crawl as a pure function of its frozen task.

    BFS and bucket sweeps operate entirely on integer peer indices;
    :class:`PeerID` objects are only materialised for the final snapshot.
    """
    rng = random.Random(task.seed)
    keys = task.dht_keys
    pool = (
        task.stable_pool
        if len(task.stable_pool) >= task.bootstrap_size
        else task.server_pool
    )
    bootstrap = rng.sample(pool, min(task.bootstrap_size, len(pool))) if pool else []

    queue = deque(bootstrap)
    seen: Set[int] = set(bootstrap)
    #: index -> crawlable, in BFS discovery order.
    observations: Dict[int, bool] = {}
    edges: Dict[int, Tuple[int, ...]] = {}
    requests_sent = 0
    responsive_work = 0.0
    timeouts = 0
    had_unresponsive = False
    depth = int(math.log2(max(task.oracle_size, 2))) + 6

    probe = obs.get_probe()
    with probe.span("crawl", crawl=task.crawl_id) as crawl_span:
        while queue:
            index = queue.popleft()
            requests_sent += 1
            server = task.servers.get(index)
            if server is None or not server[0] or server[1] > task.timeout:
                had_unresponsive = True
                timeouts += 1
                observations[index] = False
                if probe.tracing:
                    probe.event("crawl.peer", index=index, crawlable=False)
                continue
            responsive_work += server[1]
            own_key = keys[index]
            table = task.tables.get(index, ())
            neighbors: Set[int] = set()
            previous_size = -1
            for bucket_idx in range(min(depth, KEY_BITS)):
                crafted = random_key_in_bucket(own_key, bucket_idx, rng)
                for neighbor in sorted(table, key=lambda t: keys[t] ^ crafted)[: task.k]:
                    neighbors.add(neighbor)
                if len(neighbors) == previous_size and bucket_idx > depth - 4:
                    break
                previous_size = len(neighbors)
            neighbors.discard(index)
            requests_sent += max(1, len(neighbors) // task.k)
            observations[index] = True
            edges[index] = tuple(neighbors)
            if probe.tracing:
                probe.event(
                    "crawl.peer", index=index, crawlable=True, neighbors=len(neighbors)
                )
            for neighbor in edges[index]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if probe.tracing:
            crawl_span.note(
                discovered=len(observations),
                crawlable=len(edges),
                requests=requests_sent,
                timeouts=timeouts,
            )

    snapshot = CrawlSnapshot(crawl_id=task.crawl_id, started_at=task.started_at)
    peer_cache: Dict[int, PeerID] = {}

    def peer_at(index: int) -> PeerID:
        peer = peer_cache.get(index)
        if peer is None:
            peer = PeerID(task.peer_digests[index])
            peer_cache[index] = peer
        return peer

    for index, crawlable in observations.items():
        peer = peer_at(index)
        snapshot.observations[peer] = CrawlObservation(peer, task.ips[index], crawlable)
    for index, neighbor_indices in edges.items():
        snapshot.edges[peer_at(index)] = tuple(
            peer_at(neighbor) for neighbor in neighbor_indices
        )
    snapshot.requests_sent = requests_sent
    # Duration model: responsive work spreads over the worker pool; the
    # final worker batch waits out one full timeout on unresponsive
    # peers (matching the paper's "latter half spent waiting").
    snapshot.duration = responsive_work / CRAWL_PARALLELISM + (
        task.timeout if had_unresponsive else 0.0
    )
    crawlable = len(edges)
    probe.inc("crawl.crawls")
    probe.inc("crawl.requests", requests_sent)
    probe.inc("crawl.timeouts", timeouts)
    probe.inc("crawl.discovered", len(observations))
    probe.inc("crawl.crawlable", crawlable)
    probe.observe("crawl.contacted_peers", crawlable + timeouts)
    return snapshot


@dataclass(frozen=True)
class Capture:
    """Which observer channels a crawl task collects, and how."""

    metrics: bool = False
    trace: bool = False
    stream: bool = False
    trace_sample: int = 1
    trace_capacity: int = DEFAULT_CAPACITY


class Captured(NamedTuple):
    """What one crawl task collected (``None`` for channels that were off)."""

    metrics: Optional[Dict[str, object]]
    trace: Optional[List[Dict[str, object]]]
    sketch: Optional[Dict[str, object]]


def execute_crawl_task_observed(task: CrawlTask, capture: Capture):
    """Run one crawl with private observer sinks; returns ``(snapshot, captured)``.

    The sinks are per task, so nothing mixes with whatever probe a
    worker inherited at fork: the registry is fresh, the tracer's origin
    is ``crawl-<id>``, its seed derives from the task's own seed and its
    sim clock is frozen at the freeze instant, and the sketch state is
    derived from the finished snapshot (no extra randomness, no change
    to the crawl).  Every part is therefore a pure function of the task,
    and the parent merges the bundles in ``crawl_id`` order, which makes
    the merged outputs independent of worker count and completion order
    (the same contract as the sharded-log heap-merge).  With metrics and
    trace both off nothing is installed, and the crawl reports to the
    active probe like :func:`execute_crawl_task`.
    """
    registry = MetricsRegistry() if capture.metrics else None
    tracer = None
    if capture.trace:
        tracer = Tracer(
            origin=f"crawl-{task.crawl_id}",
            seed=derive_seed(task.seed, "trace"),
            sample=capture.trace_sample,
            capacity=capture.trace_capacity,
            clock=lambda: task.started_at,
        )
    with obs.install(metrics=registry, tracer=tracer):
        snapshot = execute_crawl_task(task)
    return snapshot, Captured(
        metrics=registry.snapshot() if registry is not None else None,
        trace=tracer.records() if tracer is not None else None,
        sketch=crawl_stream_state(snapshot) if capture.stream else None,
    )


def crawl_stream_state(
    snapshot: CrawlSnapshot, quantile_k: int = 256
) -> Dict[str, object]:
    """One crawl's contribution to the streaming sketches, as plain state.

    The out-degree sketch (Fig. 7's CCDF quantity) is built in BFS
    discovery order — the iteration order of ``snapshot.edges`` — so the
    state is a pure function of the snapshot; the campaign merges the
    per-crawl states in crawl order
    (:meth:`repro.obs.stream.StreamAnalytics.merge_crawl_state`), making
    the merged sketch bit-identical at any worker count.
    """
    degree = QuantileSketch(quantile_k)
    for neighbors in snapshot.edges.values():
        degree.update(float(len(neighbors)))
    return {
        "degree": degree.to_state(),
        "crawls": 1,
        "discovered": snapshot.num_discovered,
        "crawlable": len(snapshot.edges),
    }


class DHTCrawler:
    """Crawls the simulated overlay exactly like the trudi-group crawler.

    Every crawl draws from its own RNG stream derived as
    ``derive_seed(root_seed, crawl_id)``, so crawl ``i`` is independent
    of how many crawls ran before it — the property that lets a campaign
    fan crawls out over worker processes without changing the science.
    """

    def __init__(
        self,
        overlay: Overlay,
        timeout: float = DEFAULT_TIMEOUT,
        bootstrap_size: int = 8,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.overlay = overlay
        self.timeout = timeout
        self.bootstrap_size = bootstrap_size
        if seed is None:
            # Back-compat: callers that passed an rng get a root seed
            # drawn from it once; the default ties to the world seed.
            seed = (
                rng.getrandbits(64)
                if rng is not None
                else overlay.world.profile.seed + 9
            )
        self.seed = seed

    def task(self, crawl_id: int) -> CrawlTask:
        """Freeze the crawl task for ``crawl_id`` at the current instant."""
        return freeze_crawl_task(
            self.overlay,
            crawl_id,
            seed=derive_seed(self.seed, "crawl", crawl_id),
            timeout=self.timeout,
            bootstrap_size=self.bootstrap_size,
        )

    def crawl(self, crawl_id: int) -> CrawlSnapshot:
        """One snapshot: BFS from the bootstrap peers."""
        return execute_crawl_task(self.task(crawl_id))

    def campaign(
        self, num_crawls: int, interval_seconds: float, run_between=None
    ) -> CrawlDataset:
        """Run ``num_crawls`` crawls spaced ``interval_seconds`` apart.

        ``run_between(crawl_index)`` lets the caller advance the simulated
        world between snapshots (churn, traffic, ...).
        """
        dataset = CrawlDataset()
        for index in range(num_crawls):
            dataset.add(self.crawl(index))
            if index < num_crawls - 1:
                if run_between is not None:
                    run_between(index)
                else:
                    self.overlay.scheduler.run_until(self.overlay.now + interval_seconds)
        return dataset
