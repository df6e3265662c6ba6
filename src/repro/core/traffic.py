"""Traffic analyses (paper §5, Figs. 9-13).

Operates on the Hydra-booster DHT log and the Bitswap monitor log:
traffic classification, identifier lifetimes, centralization Pareto
charts, cloud shares by count and by volume, and platform attribution
through reverse DNS.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.pareto import pareto_curve, top_share
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, TrafficClass
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.netsim.clock import SECONDS_PER_DAY
from repro.world.clouddb import CloudIPDatabase
from repro.world.rdns import ReverseDNS

# ---------------------------------------------------------------------------
# §5 headline: message-class split
# ---------------------------------------------------------------------------


def traffic_class_shares(log: Iterable[MessageEnvelope]) -> Dict[str, float]:
    """Download / advertisement / other shares of the DHT log."""
    tallies = Counter(entry.traffic_class.value for entry in log)
    total = sum(tallies.values())
    if not total:
        return {}
    return {label: count / total for label, count in tallies.items()}


@dataclass
class TrafficSummary:
    """Every per-entry aggregate of the DHT log, computed in one pass.

    The figure reports each re-scan the log; with a disk-backed
    :class:`~repro.store.eventlog.EventLog` every scan streams from
    storage, so computing the shared aggregates together matters.
    """

    total: int = 0
    class_counts: Counter = field(default_factory=Counter)
    peerid_volumes: Counter = field(default_factory=Counter)
    ip_volumes: Counter = field(default_factory=Counter)
    unique_cids: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None

    @property
    def class_shares(self) -> Dict[str, float]:
        if not self.total:
            return {}
        return {label: count / self.total for label, count in self.class_counts.items()}


def summarize_traffic(log: Iterable[MessageEnvelope]) -> TrafficSummary:
    """Single-pass streaming summary of a (possibly disk-backed) log."""
    summary = TrafficSummary()
    cids: Set = set()
    for entry in log:
        summary.total += 1
        summary.class_counts[entry.traffic_class.value] += 1
        summary.peerid_volumes[entry.sender] += 1
        summary.ip_volumes[entry.sender_ip] += 1
        if entry.target_cid is not None:
            cids.add(entry.target_cid)
        if summary.first_timestamp is None:
            summary.first_timestamp = entry.timestamp
        summary.last_timestamp = entry.timestamp
    summary.unique_cids = len(cids)
    return summary


# ---------------------------------------------------------------------------
# Figs. 10-11: centralization Pareto charts
# ---------------------------------------------------------------------------


def peerid_volumes(log: Sequence[MessageEnvelope]) -> Dict[PeerID, float]:
    volumes: Counter = Counter(entry.sender for entry in log)
    return dict(volumes)


def ip_volumes(log: Sequence[MessageEnvelope]) -> Dict[str, float]:
    volumes: Counter = Counter(entry.sender_ip for entry in log)
    return dict(volumes)


def bitswap_peerid_volumes(log: Sequence[BitswapLogEntry]) -> Dict[PeerID, float]:
    return dict(Counter(entry.sender for entry in log))


def bitswap_ip_volumes(log: Sequence[BitswapLogEntry]) -> Dict[str, float]:
    return dict(Counter(entry.sender_ip for entry in log))


@dataclass
class ParetoReport:
    """One curve of Fig. 10/11 plus its headline aggregates."""

    curve: List[Tuple[float, float]]
    top5_share: float
    #: share of total volume from the highlighted subgroup (gateways in
    #: Fig. 10, cloud IPs in Fig. 11).
    subgroup_share: float


def peerid_pareto(
    volumes: Dict[PeerID, float], gateway_peers: Set[PeerID]
) -> ParetoReport:
    total = sum(volumes.values())
    gateway_volume = sum(v for peer, v in volumes.items() if peer in gateway_peers)
    return ParetoReport(
        curve=pareto_curve(volumes),
        top5_share=top_share(volumes, 0.05),
        subgroup_share=gateway_volume / total if total else 0.0,
    )


def ip_pareto(volumes: Dict[str, float], cloud_db: CloudIPDatabase) -> ParetoReport:
    total = sum(volumes.values())
    cloud_volume = sum(v for ip, v in volumes.items() if cloud_db.is_cloud(ip))
    return ParetoReport(
        curve=pareto_curve(volumes),
        top5_share=top_share(volumes, 0.05),
        subgroup_share=cloud_volume / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Fig. 9: identifier lifetimes (days seen)
# ---------------------------------------------------------------------------


def _day_of(timestamp: float) -> int:
    return int(timestamp // SECONDS_PER_DAY)


#: The identifier kinds of Fig. 9, in panel order.
IDENTIFIER_KINDS: Tuple[str, ...] = ("cid", "ip", "peerid")


def days_seen_by_identifier(
    log: Iterable[MessageEnvelope],
) -> Dict[str, Dict[object, int]]:
    """identifier → bitmask of the days it was seen, for every kind of
    :data:`IDENTIFIER_KINDS`, in one scan.

    Each distinct day of the log gets one bit, numbered in first-seen
    order, so a mask's popcount is the number of days seen and its size
    is bounded by the log's day count whatever the timestamps' epoch.  A
    mask is a small int where a set of days would cost ~200 bytes per
    identifier.  Each map keeps its identifiers in first-seen order;
    entries without a target CID count towards ``"ip"`` and
    ``"peerid"`` only.
    """
    by_cid: Dict[object, int] = {}
    by_ip: Dict[object, int] = {}
    by_peerid: Dict[object, int] = {}
    bits: Dict[int, int] = {}
    for entry in log:
        day = _day_of(entry.timestamp)
        bit = bits.get(day)
        if bit is None:
            bit = bits[day] = 1 << len(bits)
        cid = entry.target_cid
        if cid is not None:
            by_cid[cid] = by_cid.get(cid, 0) | bit
        by_ip[entry.sender_ip] = by_ip.get(entry.sender_ip, 0) | bit
        by_peerid[entry.sender] = by_peerid.get(entry.sender, 0) | bit
    return {"cid": by_cid, "ip": by_ip, "peerid": by_peerid}


def days_histogram(days_by_id: Dict[object, int]) -> Dict[int, int]:
    """days-seen → number of identifiers (x-axis of Fig. 9)."""
    return dict(Counter(days.bit_count() for days in days_by_id.values()))


def cloud_share_by_days(
    days_by_ip: Dict[str, int], cloud_db: CloudIPDatabase
) -> Dict[int, float]:
    """Cloud share among IPs seen exactly N days — the Fig. 9 overlay
    showing that long-lived IPs skew cloud."""
    totals: Counter = Counter()
    cloud: Counter = Counter()
    for ip, days in days_by_ip.items():
        bucket = days.bit_count()
        totals[bucket] += 1
        if cloud_db.is_cloud(ip):
            cloud[bucket] += 1
    return {bucket: cloud[bucket] / totals[bucket] for bucket in totals}


def days_seen_histogram(
    log: Iterable[MessageEnvelope], identifier: str
) -> Dict[int, int]:
    """Fig. 9 histogram for one kind: ``"cid"``, ``"ip"`` or ``"peerid"``."""
    if identifier not in IDENTIFIER_KINDS:
        raise ValueError(f"unknown identifier kind: {identifier}")
    return days_histogram(days_seen_by_identifier(log)[identifier])


# ---------------------------------------------------------------------------
# Fig. 12: cloud per traffic type, by IP count and by volume
# ---------------------------------------------------------------------------


@dataclass
class CloudTrafficReport:
    """The two panels of Fig. 12 for one traffic subset."""

    cloud_share_by_ip_count: float
    cloud_share_by_volume: float
    provider_shares_by_ip_count: Dict[str, float] = field(default_factory=dict)
    provider_shares_by_volume: Dict[str, float] = field(default_factory=dict)


def _report_from_ip_volumes(
    volume_by_ip: Dict[str, float], provider_by_ip: Dict[str, str]
) -> CloudTrafficReport:
    total_ips = len(volume_by_ip)
    total_volume = sum(volume_by_ip.values())
    if total_ips == 0:
        return CloudTrafficReport(0.0, 0.0)
    by_count: Counter = Counter(provider_by_ip[ip] for ip in volume_by_ip)
    by_volume: Counter = Counter()
    for ip, volume in volume_by_ip.items():
        by_volume[provider_by_ip[ip]] += volume
    return CloudTrafficReport(
        cloud_share_by_ip_count=1.0 - by_count["non-cloud"] / total_ips,
        cloud_share_by_volume=1.0 - by_volume["non-cloud"] / total_volume,
        provider_shares_by_ip_count={
            provider: count / total_ips for provider, count in by_count.items()
        },
        provider_shares_by_volume={
            provider: volume / total_volume for provider, volume in by_volume.items()
        },
    )


def cloud_traffic_report(
    log: Iterable[MessageEnvelope],
    cloud_db: CloudIPDatabase,
    traffic_class: Optional[TrafficClass] = None,
) -> CloudTrafficReport:
    """Cloud and per-provider shares of the (optionally filtered) log."""
    provider_by_ip: Dict[str, str] = {}
    volume_by_ip: Counter = Counter()
    for entry in log:
        if traffic_class is not None and entry.traffic_class is not traffic_class:
            continue
        volume_by_ip[entry.sender_ip] += 1
        if entry.sender_ip not in provider_by_ip:
            provider_by_ip[entry.sender_ip] = cloud_db.lookup(entry.sender_ip) or "non-cloud"
    return _report_from_ip_volumes(volume_by_ip, provider_by_ip)


def cloud_traffic_reports_by_class(
    log: Iterable[MessageEnvelope], cloud_db: CloudIPDatabase
) -> Dict[Optional[TrafficClass], CloudTrafficReport]:
    """The overall report plus one per traffic class, in a single pass.

    Equivalent to calling :func:`cloud_traffic_report` once per class
    (keyed ``None`` for the unfiltered report) but scanning the log —
    and resolving each IP against the cloud database — only once, which
    is what Fig. 12 wants from a disk-backed log.
    """
    provider_by_ip: Dict[str, str] = {}
    volumes: Dict[Optional[TrafficClass], Counter] = defaultdict(Counter)
    for entry in log:
        if entry.sender_ip not in provider_by_ip:
            provider_by_ip[entry.sender_ip] = cloud_db.lookup(entry.sender_ip) or "non-cloud"
        volumes[None][entry.sender_ip] += 1
        volumes[entry.traffic_class][entry.sender_ip] += 1
    return {
        key: _report_from_ip_volumes(volume_by_ip, provider_by_ip)
        for key, volume_by_ip in volumes.items()
    }


# ---------------------------------------------------------------------------
# Fig. 13: platform attribution via reverse DNS
# ---------------------------------------------------------------------------

#: rDNS suffix → platform label, in match order.
PLATFORM_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("web3.storage", "web3-storage"),
    ("nft.storage", "nft-storage"),
    ("pinata.cloud", "pinata"),
    ("filebase.com", "filebase"),
    ("ipfs-bank.io", "ipfs-bank"),
    ("amazonaws.com", "amazon-aws-other"),
)


def attribute_platform(
    ip: str,
    sender: Optional[PeerID],
    rdns: ReverseDNS,
    hydra_peers: Set[PeerID],
) -> str:
    """The paper's §5 attribution: Hydra peer IDs first, then reverse DNS."""
    if sender is not None and sender in hydra_peers:
        return "hydra"
    hostname = rdns.lookup(ip)
    if hostname is None:
        return "other"
    for suffix, label in PLATFORM_SUFFIXES:
        if hostname.endswith(suffix):
            return label
    return "other"


def platform_traffic_shares_by_class(
    log: Iterable,
    rdns: ReverseDNS,
    hydra_peers: Set[PeerID],
    classes: Sequence[Optional[TrafficClass]] = (None,),
) -> Dict[Optional[TrafficClass], Dict[str, float]]:
    """Platform shares of the log for each of ``classes``, in one scan.

    ``None`` in ``classes`` stands for the unfiltered log; any other
    class keeps only the entries of that :class:`TrafficClass` (entries
    without a ``traffic_class``, such as Bitswap entries, need
    ``classes=(None,)``).  Each entry's platform is attributed once per
    distinct ``(sender_ip, sender)``, and each share dict lists its
    platforms in the order they first appear in the class's entries.
    """
    tallies: Dict[Optional[TrafficClass], Counter] = {
        traffic_class: Counter() for traffic_class in classes
    }
    overall = tallies.get(None)
    by_class = {key: tally for key, tally in tallies.items() if key is not None}
    labels: Dict[Tuple[str, Optional[PeerID]], str] = {}
    for entry in log:
        source = (entry.sender_ip, entry.sender)
        label = labels.get(source)
        if label is None:
            label = labels[source] = attribute_platform(
                entry.sender_ip, entry.sender, rdns, hydra_peers
            )
        if overall is not None:
            overall[label] += 1
        if by_class:
            tally = by_class.get(entry.traffic_class)
            if tally is not None:
                tally[label] += 1
    return {key: _shares(tally) for key, tally in tallies.items()}


def _shares(tally: Counter) -> Dict[str, float]:
    total = sum(tally.values())
    return {label: count / total for label, count in tally.items()}


def platform_traffic_shares(
    log: Iterable[MessageEnvelope],
    rdns: ReverseDNS,
    hydra_peers: Set[PeerID],
    traffic_class: Optional[TrafficClass] = None,
) -> Dict[str, float]:
    """Share of (class-filtered) DHT traffic per platform."""
    return platform_traffic_shares_by_class(
        log, rdns, hydra_peers, (traffic_class,)
    )[traffic_class]


def bitswap_platform_shares(
    log: Iterable[BitswapLogEntry], rdns: ReverseDNS, hydra_peers: Set[PeerID]
) -> Dict[str, float]:
    """Platform shares of the Bitswap monitor traffic."""
    return platform_traffic_shares_by_class(log, rdns, hydra_peers)[None]
