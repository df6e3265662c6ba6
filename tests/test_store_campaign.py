"""End-to-end: a campaign with disk-backed monitor logs is equivalent
to the in-memory default."""

from collections import Counter, defaultdict

import pytest

from repro.core import datasets
from repro.core.traffic import (
    _day_of,
    attribute_platform,
    summarize_traffic,
    traffic_class_shares,
)
from repro.kademlia.messages import TrafficClass
from repro.scenario import report
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile


def tiny_config(storage: str) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150),
        days=2,
        daily_cid_sample=60,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=4,
        storage=storage,
    )


@pytest.fixture(scope="module")
def memory_result():
    return run_campaign(tiny_config("memory"))


@pytest.fixture(scope="module")
def sqlite_result(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign-store")
    return run_campaign(tiny_config(f"sqlite:{directory}"))


class TestStorageParity:
    def test_same_log_sizes(self, memory_result, sqlite_result):
        assert len(memory_result.hydra.log) == len(sqlite_result.hydra.log) > 0
        assert (
            len(memory_result.bitswap_monitor.log)
            == len(sqlite_result.bitswap_monitor.log)
            > 0
        )

    def test_same_log_contents(self, memory_result, sqlite_result):
        assert memory_result.hydra.log[:100] == sqlite_result.hydra.log[:100]
        assert (
            memory_result.bitswap_monitor.log[:100]
            == sqlite_result.bitswap_monitor.log[:100]
        )

    def test_same_traffic_analysis(self, memory_result, sqlite_result):
        assert traffic_class_shares(memory_result.hydra.log) == traffic_class_shares(
            sqlite_result.hydra.log
        )

    def test_summary_matches_multi_pass_analysis(self, memory_result):
        from repro.core import traffic

        log = memory_result.hydra.log
        summary = summarize_traffic(log)
        assert summary.total == len(log)
        assert summary.class_shares == traffic.traffic_class_shares(log)
        assert dict(summary.peerid_volumes) == traffic.peerid_volumes(log)
        assert dict(summary.ip_volumes) == traffic.ip_volumes(log)

    def test_single_pass_cloud_reports_match(self, memory_result):
        from repro.core import traffic
        from repro.kademlia.messages import TrafficClass

        log = memory_result.hydra.log
        cloud_db = memory_result.world.cloud_db
        combined = traffic.cloud_traffic_reports_by_class(log, cloud_db)
        for traffic_class in (None, TrafficClass.DOWNLOAD, TrafficClass.ADVERTISEMENT):
            if traffic_class not in combined:
                continue
            separate = traffic.cloud_traffic_report(log, cloud_db, traffic_class)
            assert combined[traffic_class] == separate

    def test_export_works_from_disk_backed_logs(self, sqlite_result, tmp_path):
        counts = datasets.export_campaign(sqlite_result, tmp_path / "out")
        assert counts["hydra_messages"] == len(sqlite_result.hydra.log)
        assert counts["bitswap_messages"] == len(sqlite_result.bitswap_monitor.log)


# The per-identifier and per-class formulations the one-pass fig9/fig13
# reports replaced: one log scan per histogram, per overlay and per
# traffic class, attributing every entry afresh.  The tests feed them a
# materialized copy of the log, so a disk-backed log is scanned once for
# the reference and once by the report under test.


def per_identifier_days_histogram(log, identifier):
    days_by_id = defaultdict(set)
    for entry in log:
        if identifier == "cid":
            if entry.target_cid is None:
                continue
            key = entry.target_cid
        elif identifier == "ip":
            key = entry.sender_ip
        else:
            key = entry.sender
        days_by_id[key].add(_day_of(entry.timestamp))
    return dict(Counter(len(days) for days in days_by_id.values()))


def per_identifier_ip_cloud_share(log, cloud_db):
    days_by_ip = defaultdict(set)
    for entry in log:
        days_by_ip[entry.sender_ip].add(_day_of(entry.timestamp))
    totals, cloud = Counter(), Counter()
    for ip, days in days_by_ip.items():
        totals[len(days)] += 1
        if cloud_db.is_cloud(ip):
            cloud[len(days)] += 1
    return {bucket: cloud[bucket] / totals[bucket] for bucket in totals}


def per_class_platform_shares(log, rdns, hydra_peers, traffic_class=None):
    entries = [e for e in log if traffic_class is None or e.traffic_class is traffic_class]
    tallies = Counter(
        attribute_platform(e.sender_ip, e.sender, rdns, hydra_peers) for e in entries
    )
    total = sum(tallies.values())
    return {label: count / total for label, count in tallies.items()}


def assert_same_ordered(left, right):
    """Equal dicts, nested dicts included, with the same key order."""
    assert list(left) == list(right)
    for key in left:
        if isinstance(left[key], dict):
            assert_same_ordered(left[key], right[key])
        else:
            assert left[key] == right[key]


@pytest.mark.parametrize("which", ["memory_result", "sqlite_result"])
class TestOnePassReportsMatchPerClassScans:
    def test_fig9(self, which, request):
        result = request.getfixturevalue(which)
        log = list(result.hydra.log)
        expected = {
            "cid_days": per_identifier_days_histogram(log, "cid"),
            "ip_days": per_identifier_days_histogram(log, "ip"),
            "peerid_days": per_identifier_days_histogram(log, "peerid"),
            "ip_cloud_share_by_days": per_identifier_ip_cloud_share(
                log, result.world.cloud_db
            ),
        }
        assert_same_ordered(report.fig9_report(result), expected)

    def test_fig13(self, which, request):
        result = request.getfixturevalue(which)
        log = list(result.hydra.log)
        rdns, hydra_peers = result.world.rdns, result.hydra_peers
        expected = {
            "dht_all": per_class_platform_shares(log, rdns, hydra_peers),
            "dht_download": per_class_platform_shares(
                log, rdns, hydra_peers, TrafficClass.DOWNLOAD
            ),
            "dht_advertisement": per_class_platform_shares(
                log, rdns, hydra_peers, TrafficClass.ADVERTISEMENT
            ),
            "bitswap": per_class_platform_shares(
                list(result.bitswap_monitor.log), rdns, hydra_peers
            ),
        }
        assert all(expected.values())
        assert_same_ordered(report.fig13_report(result), expected)
