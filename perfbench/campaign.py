"""One benchmark campaign, run in its own process.

``python3 perfbench/campaign.py --workload NAME --seed N --storage-dir DIR
[--trace]`` builds, runs and reports one campaign and prints
one JSON object as its last line of output: the phase times (wall and
speed-scaled, see ``SpeedProbe``), the process's peak RSS, a digest of each of the 19 ``full_report`` entries,
the dataset sizes and, with ``--trace``, the per-layer ledger.  ``run.py``
starts one such process per campaign (``peak_rss_mb`` is a per-process
high-water mark) and checks the digests; this file does no checking.

Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import REPORTS, Ledger, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: the speed probe: a fixed pure-Python loop over a dict small enough to
#: stay in the core's caches, run every ``PROBE_INTERVAL_S`` of wall time.
PROBE_LOOPS = 1000
PROBE_INTERVAL_S = 0.02
#: the probe's median time inside benchmark campaigns on the machine the
#: benchmark was written on (2-vCPU x86 VM, Python 3.11); phase times are
#: scaled to that speed.
PROBE_REFERENCE_S = 1.6e-4
PHASES = ("setup_s", "simulate_s", "analyze_s")


class SpeedProbe:
    """Samples the speed of the core this process runs on.

    On a shared virtual machine a core can run up to about 1.6x slower
    for seconds to a minute at a time, because of load the benchmark
    cannot see.  A timer signal runs a fixed probe loop every
    ``PROBE_INTERVAL_S`` in this process, so the probe runs on the same
    core as the campaign, and :meth:`scale` turns a phase's wall time
    into the time it would take on a core at the reference speed.
    """

    def __init__(self) -> None:
        #: (start, duration) of each probe, on the ``time.perf_counter`` clock
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            table[i & 255] = table.get(i & 255, 0) + i
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the timer interrupts (sqlite's among them).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the median probe time in
        ``[start, end)``; 1.0 when no probe ran in it."""
        durations = [duration for at, duration in self.samples if start <= at < end]
        return PROBE_REFERENCE_S / statistics.median(durations) if durations else 1.0


def canonical(value):
    """A JSON-able form of a report value that is independent of dict and
    set order; floats keep every bit through ``repr``."""
    if isinstance(value, dict):
        items = [(canonical(key), canonical(item)) for key, item in value.items()]
        return sorted(items, key=lambda pair: json.dumps(pair[0]))
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    return f"{type(value).__name__}:{value}"


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def finite(value) -> bool:
    """No NaN or infinity anywhere in a report value."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(finite(key) and finite(item) for key, item in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(finite(item) for item in value)
    return True


def guard_reports(errors: Dict[str, str]) -> None:
    """Make each of the 19 report functions record its exception in
    ``errors`` instead of aborting ``full_report``, so one failing figure
    counts as one failed operation."""
    from repro.scenario import report

    for name in REPORTS:
        attr = f"{name}_report"
        fn = getattr(report, attr)

        def guarded(*args, _fn=fn, _name=name, **kwargs):
            try:
                return _fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - reported as a failed figure
                errors[_name] = f"{type(exc).__name__}: {exc}"
                return None

        setattr(report, attr, guarded)


def layer_metrics(ledger: Ledger, counters: Dict[str, float], result, campaign) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign."""
    seconds = ledger.layer_seconds
    calls = ledger.calls

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    stats = campaign.engine.stats
    stored = len(result.hydra.log) + len(result.bitswap_monitor.log)
    decoded = calls.get("store.decode", 0)
    metrics = {
        "world.build_s": seconds("world.build"),
        "netsim.bootstrap_s": seconds("netsim.bootstrap"),
        "netsim.refresh_s": seconds("netsim.refresh", "netsim.refresh_pass"),
        "netsim.refresh_calls": float(calls.get("netsim.refresh", 0)),
        "netsim.refresh_skip_ratio": ratio(
            counter("netsim.refresh_skips"),
            counter("netsim.refresh_nodes") + counter("netsim.refresh_skips"),
        ),
        "netsim.churn_s": seconds("netsim.join", "netsim.leave", "netsim.rotate"),
        "netsim.sessions": float(calls.get("netsim.join", 0)),
        "netsim.advertise_s": seconds("netsim.advertise"),
        "netsim.scheduler_self_s": seconds("netsim.scheduler"),
        "netsim.resolver_cache_hit_ratio": ratio(
            counter("netsim.resolver_cache_hits"),
            counter("netsim.resolver_cache_hits") + counter("netsim.resolver_cache_misses"),
        ),
        "workload.tick_s": seconds("workload.tick"),
        "workload.requests": float(stats["downloads"] + stats["publishes"]),
        "workload.reprovide_s": seconds("workload.reprovide"),
        "workload.bitswap_hit_ratio": ratio(stats["bitswap_hits"], stats["downloads"]),
        "content.day_index_s": seconds("content.day_index"),
        "monitors.hydra_record_s": seconds("monitors.hydra_record"),
        "monitors.hydra_events": float(calls.get("monitors.hydra_record", 0)),
        "monitors.bitswap_s": seconds("monitors.bitswap"),
        "monitors.bitswap_logged_ratio": ratio(
            counter("bitswap.broadcasts_logged"), counter("bitswap.broadcasts_seen")
        ),
        "monitors.provider_fetch_s": seconds("monitors.provider_fetch"),
        "monitors.provider_reachable_ratio": ratio(
            counter("providers.reachable_records"), counter("providers.records")
        ),
        "monitors.gateway_probe_s": seconds("monitors.gateway_probe"),
        "store.encode_s": seconds("store.encode"),
        "store.decode_s": seconds("store.decode"),
        "store.read_s": seconds("store.read"),
        "store.write_s": seconds("store.write"),
        "store.decoded_records": float(decoded),
        "store.decodes_per_record": ratio(decoded, stored),
        "crawl.freeze_s": seconds("crawl.freeze"),
        "crawl.execute_s": seconds("crawl.execute"),
        "crawl.tasks": float(calls.get("crawl.execute", 0)),
        "crawl.requests": counter("crawl.requests"),
        "crawl.timeout_ratio": ratio(counter("crawl.timeouts"), counter("crawl.requests")),
        "lookup.messages": counter("lookup.messages"),
        "lookup.failed_ratio": ratio(counter("lookup.failed_peers"), counter("lookup.messages")),
        "dns.scan_s": seconds("dns.scan"),
        "ens.scrape_s": seconds("ens.scrape"),
    }
    for name in REPORTS:
        metrics[f"analysis.{name}_s"] = seconds(f"analysis.{name}")
    metrics["trace.attributed_share"] = ratio(ledger.attributed_seconds, ledger.wall_seconds)
    return metrics


def run_campaign(workload: str, seed: int, trace: bool, storage_dir: str) -> Dict:
    from repro.scenario import report
    from repro.scenario.run import MeasurementCampaign

    config = WORKLOADS[workload](seed, storage_dir)
    ledger = Ledger()
    if trace:
        # Counters only in the traced run: metrics-off campaigns take the
        # program's null-registry path, as a user's campaign does.
        config = replace(config, metrics=True)
        instrument(ledger)
    report_errors: Dict[str, str] = {}
    guard_reports(report_errors)

    # Untraced, the three root spans are the only wrappers.
    campaign = MeasurementCampaign(config)
    probe = SpeedProbe()
    probe.start()
    marks = [time.perf_counter()]
    ledger.root("campaign.build", campaign.build)
    marks.append(time.perf_counter())
    result = ledger.root("campaign.run", campaign.run)
    marks.append(time.perf_counter())
    figures = ledger.root("campaign.report", report.full_report, result)
    marks.append(time.perf_counter())
    probe.stop()
    spans = list(zip(marks, marks[1:]))
    wall_phases = {name: end - start for name, (start, end) in zip(PHASES, spans)}
    scales = {name: probe.scale(start, end) for name, (start, end) in zip(PHASES, spans)}
    phases = {name: wall_phases[name] * scales[name] for name in PHASES}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests: Dict[str, Optional[str]] = {}
    for name in REPORTS:
        value = figures.get(name)
        if name in report_errors:
            digests[name] = None
        elif not finite(value):
            report_errors[name] = "non-finite value"
            digests[name] = None
        else:
            digests[name] = digest(value)
    out = {
        "workload": workload,
        "seed": seed,
        "phases": phases,
        "wall_phases": wall_phases,
        "speed_scales": scales,
        "peak_rss_mb": peak_rss_mb,
        "online_servers": config.profile.online_servers,
        "sim_hours": 24.0 * (config.warmup_days + config.days),
        "digests": digests,
        "report_errors": report_errors,
        "datasets": {
            "hydra_entries": len(result.hydra.log),
            "bitswap_entries": len(result.bitswap_monitor.log),
            "crawls": len(result.crawls),
        },
        "exec_errors": len(result.exec_errors),
    }
    if trace:
        counters: Dict[str, float] = dict((result.metrics or {}).get("counters", {}))
        out["layers"] = layer_metrics(ledger, counters, result, campaign)
        out["ledger"] = {
            "self_seconds": ledger.self_seconds,
            "calls": ledger.calls,
            "wall_seconds": ledger.wall_seconds,
        }
    for log in (result.hydra.log, result.bitswap_monitor.log):
        log.close()
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--storage-dir", required=True)
    args = parser.parse_args(argv)
    out = run_campaign(args.workload, args.seed, args.trace, args.storage_dir)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
