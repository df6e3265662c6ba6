"""Tests of the campaign benchmark itself.

    python3 -m pytest perfbench -q

The last test runs one traced campaign (a few seconds).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from campaign import PROBE_REFERENCE_S, SpeedProbe  # noqa: E402
from ledger import REPORTS, ROOTS, Ledger  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def fake_out(seed: int = 5) -> dict:
    return {
        "seed": seed,
        "phases": {"setup_s": 0.5, "simulate_s": 2.0, "analyze_s": 1.5},
        "peak_rss_mb": 90.0,
        "online_servers": 100,
        "sim_hours": 48.0,
        "digests": {name: f"digest-{name}" for name in REPORTS},
        "report_errors": {},
        "datasets": {"hydra_entries": 10, "bitswap_entries": 3, "crawls": 2},
        "exec_errors": 0,
    }


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    assert len(REPORTS) == 19


def test_end_to_end_metrics_of_one_campaign():
    metrics = run.end_to_end(fake_out())
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["time_to_figures_s"] == pytest.approx(4.0)
    assert metrics["sim_node_hours_per_s"] == pytest.approx(100 * 48.0 / 2.0)


def test_check_counts_each_operation():
    out = fake_out()
    attempted, failed, problems = run.check(out, run.fingerprint(out))
    assert (attempted, failed, problems) == (2 + 19 + 3, 0, [])

    out["exec_errors"] = 1
    out["digests"]["fig8"] = None
    out["report_errors"]["fig8"] = "ValueError: boom"
    attempted, failed, problems = run.check(out, None)
    assert attempted == 3 + 19 + 3
    assert failed == 2
    assert any("boom" in problem for problem in problems)


def test_tampered_reference_digest_makes_failed_share_nonzero(tmp_path, monkeypatch):
    outs = {}

    def fake_run_one(workload, seed, trace, index, scratch, hash_seed=run.HASH_SEED):
        return outs.setdefault(seed, fake_out(seed))

    monkeypatch.setattr(run, "run_one", fake_run_one)
    monkeypatch.setattr(run, "SCRATCH", tmp_path / "scratch")
    seeds = run.world_seeds(5)
    references = tmp_path / "references.json"
    stored = {str(seed): run.fingerprint(fake_out(seed)) for seed in seeds}
    references.write_text(json.dumps({"traffic": stored}))

    clean = run.benchmark("traffic", 5, 0.0, False, references)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["attempted"] == run.MIN_CAMPAIGNS * (2 + 19 + 3)
    assert clean["campaigns"] == len(seeds)

    stored[str(seeds[1])]["reports"]["fig13"] = "0" * 16
    references.write_text(json.dumps({"traffic": stored}))
    tampered = run.benchmark("traffic", 5, 0.0, False, references)
    assert not tampered["correct"]
    assert tampered["failed"] / tampered["attempted"] > 0
    assert any("fig13" in problem for problem in tampered["problems"])

    # Every run checks the reference world against stored outputs.
    assert seeds[0] == run.REFERENCE_SEED
    del stored[str(run.REFERENCE_SEED)]
    references.write_text(json.dumps({"traffic": stored}))
    unreferenced = run.benchmark("traffic", 5, 0.0, False, references)
    assert not unreferenced["correct"]


def test_references_cover_the_reference_world_of_every_workload():
    stored = run.load_references()
    assert all(str(run.REFERENCE_SEED) in stored[workload] for workload in WORKLOADS)


def test_ledger_self_time_excludes_children():
    now = [0.0]
    ledger = Ledger(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def hidden():
        now[0] += 5.0

    spanned_leaf = ledger.wrap(leaf, "leaf")
    spanned_hidden = ledger.wrap(hidden, "hidden")

    def opaque():
        now[0] += 1.0
        spanned_hidden()

    spanned_opaque = ledger.wrap(opaque, "opaque", opaque=True)

    def middle():
        now[0] += 2.0
        spanned_leaf()
        spanned_leaf()
        spanned_opaque()

    ledger.root("campaign.run", ledger.wrap(middle, "middle"))
    assert ledger.self_seconds == {
        "leaf": 2.0,
        "opaque": 6.0,
        "middle": 2.0,
        "campaign.run": 0.0,
    }
    assert ledger.calls["leaf"] == 2 and "hidden" not in ledger.calls
    assert ledger.wall_seconds == 10.0
    assert ledger.attributed_seconds == 10.0
    with pytest.raises(ValueError):
        ledger.root("middle", middle)


def test_ledger_charges_generator_steps_to_their_layer():
    now = [0.0]
    ledger = Ledger(clock=lambda: now[0])

    def rows():
        now[0] += 1.0  # set-up on the first step
        for row in range(3):
            now[0] += 2.0
            yield row

    spanned_rows = ledger.wrap_iter(rows, "read")

    def consume():
        total = 0
        for row in spanned_rows():
            now[0] += 0.5
            total += row
        return total

    assert ledger.root("campaign.report", ledger.wrap(consume, "report")) == 3
    assert ledger.self_seconds["read"] == 7.0
    assert ledger.self_seconds["report"] == 1.5
    assert ledger.wall_seconds == 8.5


def test_speed_probe_scales_by_the_median_probe_in_a_phase():
    probe = SpeedProbe()
    reference = PROBE_REFERENCE_S
    probe.samples = [(0.5, reference), (1.0, 2 * reference), (1.5, 2 * reference), (2.5, 9.0)]
    assert probe.scale(0.0, 1.0) == pytest.approx(1.0)
    assert probe.scale(1.0, 2.0) == pytest.approx(0.5)
    assert probe.scale(3.0, 4.0) == 1.0

    probe.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3


def test_traced_campaign_self_times_fit_in_wall_time(tmp_path):
    seed = 2023
    out = run.run_one("crawl", seed, True, 0, tmp_path)
    ledger = out["ledger"]
    layer_seconds = sum(
        seconds for layer, seconds in ledger["self_seconds"].items() if layer not in ROOTS
    )
    assert 0 < layer_seconds <= ledger["wall_seconds"]
    assert ledger["wall_seconds"] == pytest.approx(sum(out["wall_phases"].values()), rel=1e-3)
    assert 0.9 <= out["layers"]["trace.attributed_share"] <= 1.0
    assert set(out["layers"]) | {"trace.overhead_ratio"} == set(run.PER_LAYER)
    # Tracing must not change what the campaign computes.
    reference = run.load_references().get("crawl", {}).get(str(seed))
    assert reference is not None
    _, failed, problems = run.check(out, reference)
    assert failed == 0, problems
