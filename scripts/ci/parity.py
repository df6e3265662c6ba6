"""Serial vs parallel campaign must be bit-identical with every observer on.

Runs one campaign at workers=1 and one at workers=2 with metrics,
tracing and streaming sketches all enabled, asserts the crawl datasets,
the Hydra log and the deterministic view of every observer channel are
identical, and writes the parallel run's metrics snapshot and trace to
the working directory for the audit and export steps.

    PYTHONPATH=src python scripts/ci/parity.py
"""

from repro.obs import (
    deterministic_sketches_view,
    deterministic_trace_view,
    deterministic_view,
    write_metrics,
    write_trace,
)
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile


def config(workers):
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150, seed=77),
        days=1, warmup_days=0, daily_cid_sample=40,
        provider_fetch_days=1, gateway_probes_per_endpoint=2,
        seed=77, workers=workers, metrics=True,
        trace=True, trace_buffer=1 << 20, stream=True,
    )


def fingerprint(result):
    return [
        (s.crawl_id, s.started_at, s.requests_sent,
         [(o.peer, o.ips, o.crawlable) for o in s.observations.values()],
         s.edges)
        for s in result.crawls.snapshots
    ]


serial = run_campaign(config(1))
parallel = run_campaign(config(2))
assert not serial.exec_errors and not parallel.exec_errors
assert fingerprint(serial) == fingerprint(parallel), "parity broken"
assert [e.sender for e in serial.hydra.log[:200]] == [
    e.sender for e in parallel.hydra.log[:200]
]
assert deterministic_view(serial.metrics) == deterministic_view(
    parallel.metrics
), "metric-merge parity broken"
assert deterministic_trace_view(serial.trace) == deterministic_trace_view(
    parallel.trace
), "trace parity broken"
assert deterministic_sketches_view(serial.sketches) == deterministic_sketches_view(
    parallel.sketches
), "sketch-merge parity broken"
count = write_metrics(parallel.metrics, "metrics_parallel.jsonl")
write_trace(parallel.trace, "trace_parallel.trace")
print(f"parity OK: {len(serial.crawls)} crawls, {count} merged metrics, "
      f"{len(parallel.trace)} trace records and "
      f"{parallel.sketches['events']:,} sketched events identical "
      f"at workers=1 and workers=2")
