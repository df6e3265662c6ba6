"""Sybil-eclipse + Bitswap-flood campaign must meet detection floors.

Injects two attack scenarios, scores the packaged detectors against the
simulator's exact ground truth and gates on the committed
precision/recall floors (the same ones tests/test_detect.py pins on the
full five-attack scenario).

    PYTHONPATH=src python scripts/ci/attack_smoke.py
"""

from repro.attack import BitswapFloodConfig, SybilEclipseConfig
from repro.detect import render_scorecard
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile

config = ScenarioConfig(
    profile=WorldProfile(online_servers=250, seed=99),
    days=2, warmup_days=0, daily_cid_sample=40,
    provider_fetch_days=1, gateway_probes_per_endpoint=2,
    seed=99, detect=True,
    # 10 flooders: enough that the Bitswap monitor's random
    # peer connectivity (85% for stable cloud nodes) leaves
    # the undetectable-unconnected share under the floor.
    attacks=(SybilEclipseConfig(), BitswapFloodConfig(num_attackers=10)),
)
result = run_campaign(config)
assert not result.exec_errors
print(render_scorecard(result.detection))
for name, stats in result.attack_summary.items():
    print(name, stats)
rows = {row["detector"]: row for row in result.detection["per_detector"]}
for detector in ("sybil-eclipse-focus", "bitswap-flood-rate"):
    row = rows[detector]
    assert row["precision"] >= 0.9, f"{detector} precision {row['precision']}"
    assert row["recall"] >= 0.8, f"{detector} recall {row['recall']}"
assert result.detection["overall_precision"] >= 0.9
print("attack-smoke OK: detection floors met")
