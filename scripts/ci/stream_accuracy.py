"""Streaming estimates must meet the accuracy floors.

Replays the live sketches against the batch pipeline over the same
campaign: headline shares within ±0.01, top-10 heavy-hitter recall 1.0,
distinct counts within 5%.

    PYTHONPATH=src python scripts/ci/stream_accuracy.py
"""

from repro.core import traffic
from repro.core.pareto import top_share
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile

config = ScenarioConfig(
    profile=WorldProfile(online_servers=150, seed=77),
    days=1, warmup_days=0, daily_cid_sample=40,
    provider_fetch_days=1, gateway_probes_per_endpoint=2,
    seed=77, stream=True,
)
result = run_campaign(config)
assert not result.exec_errors
headline = result.sketches["headline"]
log = list(result.hydra.log)
report = traffic.cloud_traffic_report(log, result.world.cloud_db)
assert abs(
    headline["cloud_share_by_volume"] - report.cloud_share_by_volume
) <= 0.01, "cloud share drifted"
assert abs(
    headline["top1pct_peer_share"]
    - top_share(traffic.peerid_volumes(log), 0.01)
) <= 0.01, "top-1% concentration drifted"
volumes = traffic.peerid_volumes(log)
truth = {
    str(p)
    for p, _ in sorted(volumes.items(), key=lambda kv: (-kv[1], str(kv[0])))[:10]
}
live = {key for key, _, _ in result.sketches["top"]["peers"]}
assert live == truth, "top-10 heavy-hitter recall below 1.0"
true_peers = len(volumes)
est = headline["distinct_peers_est"]
assert abs(est - true_peers) / true_peers <= 0.05, "distinct estimate drifted"
print(f"stream-smoke OK: {result.sketches['events']:,} events, "
      f"cloud {headline['cloud_share_by_volume']:.3f}, "
      f"top-10 recall 1.0, distinct peers {est:.0f}/{true_peers}")
