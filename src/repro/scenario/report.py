"""Figure-by-figure reports over a completed campaign.

Each ``figNN_report`` function computes the statistics behind one paper
artifact from a :class:`~repro.scenario.run.CampaignResult`;
:func:`full_report` bundles them all with the paper's target values from
:data:`repro.world.profiles.PAPER`.  The benchmark suite and
EXPERIMENTS.md are both generated from these functions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import cloud as cloud_analysis
from repro.core import counting, geo, providers_analysis, resilience, topology, traffic
from repro.core.counting import CountingMethod
from repro.core.entrypoints import (
    dnslink_report,
    ens_providers_report,
    gateway_sides_report,
)
from repro.kademlia.messages import TrafficClass
from repro.scenario.run import CampaignResult
from repro.world.profiles import PAPER


def _top(shares: Dict[str, float], n: int = 5) -> List[Tuple[str, float]]:
    return sorted(shares.items(), key=lambda item: item[1], reverse=True)[:n]


# ---------------------------------------------------------------------------
# §3 / Table 1
# ---------------------------------------------------------------------------


def crawl_stats_report(result: CampaignResult) -> Dict[str, float]:
    crawls = result.crawls
    return {
        "num_crawls": float(len(crawls)),
        "avg_discovered": crawls.avg_discovered(),
        "avg_crawlable": crawls.avg_crawlable(),
        "crawlable_fraction": crawls.avg_crawlable() / max(crawls.avg_discovered(), 1.0),
        "unique_peer_ids": float(crawls.unique_peer_ids()),
        "unique_ips": float(crawls.unique_ips()),
        "ips_per_peer": crawls.avg_ips_per_peer(),
        "peer_turnover": crawls.unique_peer_ids() / max(crawls.avg_discovered(), 1.0),
        "ip_turnover": crawls.unique_ips() / max(crawls.avg_discovered(), 1.0),
    }


# ---------------------------------------------------------------------------
# §4: the network
# ---------------------------------------------------------------------------


def fig3_report(result: CampaignResult) -> Dict[str, Dict[str, float]]:
    rows = result.crawl_rows
    cloud_db = result.world.cloud_db
    return {
        "A-N": cloud_analysis.cloud_status_shares(rows, cloud_db, CountingMethod.A_N),
        "G-IP": cloud_analysis.cloud_status_shares(rows, cloud_db, CountingMethod.G_IP),
        "G-N": cloud_analysis.cloud_status_shares(rows, cloud_db, CountingMethod.G_N),
    }


def fig4_report(result: CampaignResult) -> Dict[str, List[Tuple[int, float]]]:
    rows = result.crawl_rows
    cloud_db = result.world.cloud_db
    return {
        "A-N": cloud_analysis.cloud_ratio_series(rows, cloud_db, CountingMethod.A_N),
        "G-IP": cloud_analysis.cloud_ratio_series(rows, cloud_db, CountingMethod.G_IP),
    }


def fig5_report(result: CampaignResult) -> Dict[str, object]:
    rows = result.crawl_rows
    cloud_db = result.world.cloud_db
    an_shares = cloud_analysis.provider_shares(rows, cloud_db, CountingMethod.A_N)
    gip_shares = cloud_analysis.provider_shares(rows, cloud_db, CountingMethod.G_IP)
    an_top, an_top3 = cloud_analysis.top_provider_concentration(an_shares)
    return {
        "A-N": an_shares,
        "G-IP": gip_shares,
        "an_top3": an_top,
        "an_top3_share": an_top3,
        "an_choopa": an_shares.get("choopa", 0.0),
        "gip_choopa": gip_shares.get("choopa", 0.0),
    }


def fig6_report(result: CampaignResult) -> Dict[str, object]:
    rows = result.crawl_rows
    geo_db = result.world.geo_db
    an_shares = geo.country_shares(rows, geo_db, CountingMethod.A_N)
    gip_shares = geo.country_shares(rows, geo_db, CountingMethod.G_IP)
    an_top10, an_outside = geo.top_countries(an_shares)
    gip_top10, gip_outside = geo.top_countries(gip_shares)
    return {
        "A-N": an_shares,
        "G-IP": gip_shares,
        "an_top10": an_top10,
        "an_non_top10": an_outside,
        "gip_top10": gip_top10,
        "gip_non_top10": gip_outside,
    }


def fig7_report(result: CampaignResult, snapshot_index: int = -1) -> Dict[str, float]:
    snapshot = result.crawls.snapshots[snapshot_index]
    return topology.degree_summary(snapshot)


def fig8_report(
    result: CampaignResult, snapshot_index: int = -1, repetitions: int = 10
) -> Dict[str, object]:
    snapshot = result.crawls.snapshots[snapshot_index]
    graph = topology.build_undirected(snapshot)
    fractions, means, halfwidths = resilience.random_removal_with_ci(
        graph, repetitions=repetitions
    )
    random_trace = resilience.RemovalTrace(list(fractions), list(means))
    targeted_trace = resilience.targeted_removal(graph)
    return {
        "random_fractions": fractions,
        "random_mean_lcc": means,
        "random_ci95": halfwidths,
        "targeted_fractions": targeted_trace.removed_fraction,
        "targeted_lcc": targeted_trace.lcc_share,
        "random_lcc_at_90pct": random_trace.share_at(0.90),
        "targeted_partition_point": targeted_trace.partition_point(),
    }


# ---------------------------------------------------------------------------
# §5: the traffic
# ---------------------------------------------------------------------------


def sec5_report(result: CampaignResult) -> Dict[str, float]:
    shares = traffic.traffic_class_shares(result.hydra.log)
    return {
        "total_messages": float(len(result.hydra.log)),
        "download_share": shares.get("download", 0.0),
        "advertisement_share": shares.get("advertisement", 0.0),
        "other_share": shares.get("other", 0.0),
        "capture_probability_per_message": result.hydra.capture_probability(
            len(result.overlay.oracle)
        ),
    }


def fig9_report(result: CampaignResult) -> Dict[str, object]:
    days = traffic.days_seen_by_identifier(result.hydra.log)
    return {
        "cid_days": traffic.days_histogram(days["cid"]),
        "ip_days": traffic.days_histogram(days["ip"]),
        "peerid_days": traffic.days_histogram(days["peerid"]),
        "ip_cloud_share_by_days": traffic.cloud_share_by_days(
            days["ip"], result.world.cloud_db
        ),
    }


def fig10_report(result: CampaignResult) -> Dict[str, object]:
    dht = traffic.peerid_pareto(
        traffic.peerid_volumes(result.hydra.log), result.gateway_peers
    )
    bitswap = traffic.peerid_pareto(
        traffic.bitswap_peerid_volumes(result.bitswap_monitor.log), result.gateway_peers
    )
    return {
        "dht_top5pct_share": dht.top5_share,
        "dht_gateway_share": dht.subgroup_share,
        "bitswap_top5pct_share": bitswap.top5_share,
        "bitswap_gateway_share": bitswap.subgroup_share,
        "dht_curve": dht.curve,
        "bitswap_curve": bitswap.curve,
    }


def fig11_report(result: CampaignResult) -> Dict[str, object]:
    cloud_db = result.world.cloud_db
    dht = traffic.ip_pareto(traffic.ip_volumes(result.hydra.log), cloud_db)
    bitswap = traffic.ip_pareto(
        traffic.bitswap_ip_volumes(result.bitswap_monitor.log), cloud_db
    )
    return {
        "dht_top5pct_share": dht.top5_share,
        "dht_cloud_share": dht.subgroup_share,
        "bitswap_top5pct_share": bitswap.top5_share,
        "bitswap_cloud_share": bitswap.subgroup_share,
        "dht_curve": dht.curve,
        "bitswap_curve": bitswap.curve,
    }


def fig12_report(result: CampaignResult) -> Dict[str, object]:
    cloud_db = result.world.cloud_db
    reports = traffic.cloud_traffic_reports_by_class(result.hydra.log, cloud_db)
    empty = traffic.CloudTrafficReport(0.0, 0.0)
    overall = reports.get(None, empty)
    downloads = reports.get(TrafficClass.DOWNLOAD, empty)
    adverts = reports.get(TrafficClass.ADVERTISEMENT, empty)
    return {
        "overall_cloud_by_ip_count": overall.cloud_share_by_ip_count,
        "download_cloud_by_ip_count": downloads.cloud_share_by_ip_count,
        "advert_cloud_by_ip_count": adverts.cloud_share_by_ip_count,
        "overall_cloud_by_volume": overall.cloud_share_by_volume,
        "download_cloud_by_volume": downloads.cloud_share_by_volume,
        "aws_download_by_volume": downloads.provider_shares_by_volume.get("amazon-aws", 0.0),
        "top_providers_by_volume": _top(overall.provider_shares_by_volume),
    }


def fig13_report(result: CampaignResult) -> Dict[str, object]:
    rdns = result.world.rdns
    hydra_peers = result.hydra_peers
    dht = traffic.platform_traffic_shares_by_class(
        result.hydra.log,
        rdns,
        hydra_peers,
        (None, TrafficClass.DOWNLOAD, TrafficClass.ADVERTISEMENT),
    )
    return {
        "dht_all": dht[None],
        "dht_download": dht[TrafficClass.DOWNLOAD],
        "dht_advertisement": dht[TrafficClass.ADVERTISEMENT],
        "bitswap": traffic.bitswap_platform_shares(
            result.bitswap_monitor.log, rdns, hydra_peers
        ),
    }


# ---------------------------------------------------------------------------
# §6: the content providers
# ---------------------------------------------------------------------------


def fig14_report(result: CampaignResult) -> Dict[str, object]:
    classification = providers_analysis.classify_providers(
        result.provider_observations, result.world.cloud_db
    )
    return {
        "class_shares": classification.class_shares,
        "relay_cloud_share": classification.relay_cloud_share,
        "relay_provider_shares": classification.relay_provider_shares,
        "total_providers": classification.total_providers,
    }


def fig15_report(result: CampaignResult) -> Dict[str, object]:
    popularity = providers_analysis.provider_popularity(
        result.provider_observations, result.world.cloud_db
    )
    return {
        "top1pct_record_share": popularity.top1pct_record_share,
        "record_shares_by_class": popularity.record_shares_by_class,
        "curve": popularity.curve,
    }


def fig16_report(result: CampaignResult) -> Dict[str, object]:
    reliance = providers_analysis.cid_cloud_reliance(
        result.provider_observations, result.world.cloud_db
    )
    return {
        "at_least_one_cloud": reliance.at_least_one_cloud,
        "majority_cloud": reliance.majority_cloud,
        "cloud_only": reliance.cloud_only,
        "at_least_one_noncloud": reliance.at_least_one_noncloud,
        "distribution": reliance.cloud_share_distribution,
        "total_cids": reliance.total_cids,
    }


# ---------------------------------------------------------------------------
# §7: the entry points
# ---------------------------------------------------------------------------


def fig17_report(result: CampaignResult) -> Dict[str, object]:
    public_ips = result.dns_world.passive.ips_for_domains(
        result.dns_world.gateway_domains()
    )
    report = dnslink_report(result.dns_scan, result.world.cloud_db, public_ips)
    return {
        "num_records": report.num_records,
        "num_unique_ips": report.num_unique_ips,
        "provider_shares": report.provider_shares,
        "cloudflare_share": report.provider_shares.get("cloudflare", 0.0),
        "noncloud_share": report.noncloud_share,
        "public_gateway_ip_share": report.public_gateway_ip_share,
    }


def fig18_19_report(result: CampaignResult) -> Dict[str, object]:
    frontend_ips = result.dns_world.passive.ips_for_domains(
        result.dns_world.gateway_domains()
    )
    report = gateway_sides_report(
        result.gateway_probe_reports,
        frontend_ips,
        result.world.cloud_db,
        result.world.geo_db,
    )
    return {
        "frontend_provider_shares": report.frontend_provider_shares,
        "overlay_provider_shares": report.overlay_provider_shares,
        "frontend_country_shares": report.frontend_country_shares,
        "overlay_country_shares": report.overlay_country_shares,
        "num_functional_endpoints": report.num_functional_endpoints,
        "num_overlay_ids": report.num_overlay_ids,
        "num_listed_endpoints": len(result.gateway_registry),
    }


def fig20_report(result: CampaignResult) -> Dict[str, object]:
    report = ens_providers_report(
        result.ens_observations, result.world.cloud_db, result.world.geo_db
    )
    return {
        "num_cids": report.num_cids,
        "num_provider_records": report.num_provider_records,
        "num_unique_ips": report.num_unique_ips,
        "cloud_share": report.cloud_share,
        "us_de_share": report.us_de_share,
        "top_providers": _top(report.provider_shares),
        "top_countries": _top(report.country_shares),
    }


def full_report(result: CampaignResult, resilience_reps: int = 5) -> Dict[str, object]:
    """Every figure's statistics in one bundle."""
    return {
        "crawl_stats": crawl_stats_report(result),
        "fig3": fig3_report(result),
        "fig4": fig4_report(result),
        "fig5": fig5_report(result),
        "fig6": fig6_report(result),
        "fig7": fig7_report(result),
        "fig8": fig8_report(result, repetitions=resilience_reps),
        "sec5": sec5_report(result),
        "fig9": fig9_report(result),
        "fig10": fig10_report(result),
        "fig11": fig11_report(result),
        "fig12": fig12_report(result),
        "fig13": fig13_report(result),
        "fig14": fig14_report(result),
        "fig15": fig15_report(result),
        "fig16": fig16_report(result),
        "fig17": fig17_report(result),
        "fig18_19": fig18_19_report(result),
        "fig20": fig20_report(result),
    }
