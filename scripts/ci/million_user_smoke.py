"""A 1M-user open-loop spec must sample in seconds and land on the
calibrated headline shares (the user count is a pure intensity knob).

    PYTHONPATH=src python scripts/ci/million_user_smoke.py
"""

from repro.workload import parse_workload_spec, sample_workload

spec = parse_workload_spec("zipf:users=1e6")
out = sample_workload(spec, seed=2023, hours=2)
shares = out["headline_shares"]
assert out["stats"]["open_requests"] > 100_000
assert abs(shares["missing_share"] - spec.missing_prob) < 0.02
assert abs(
    shares["platform_share"]
    - (1 - spec.missing_prob) * spec.platform_share
) < 0.04
assert shares["top1pct_request_share"] > 0.15
print(f"1M-user smoke OK: {out['stats']['open_requests']:,} requests, "
      f"shares {shares}")
