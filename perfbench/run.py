"""Campaign benchmark: time-to-figures and peak RSS, with a per-layer ledger.

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each campaign (``build()``, ``run()``,
``full_report()``) runs in a fresh process (``campaign.py``).  A run
cycles over ``WORLDS_PER_RUN`` campaign seeds: ``REFERENCE_SEED`` and
seeds derived from ``--seed`` (``world_seeds``), repeating campaigns
until ``--seconds`` have passed (at least ``MIN_CAMPAIGNS``), and
reports medians.

* ``--trace 0`` reports the end-to-end metrics of untraced campaigns.
  Their phase times are wall times scaled to a reference core speed by
  the campaign's own speed probe (``campaign.SpeedProbe``).
* ``--trace 1`` runs an untraced and a traced campaign of the same world
  per step and reports the traced campaigns' per-layer ledger plus the
  tracing overhead.

Every campaign's outputs are checked: the 19 ``full_report`` digests,
the monitor-log lengths and the crawl count must equal the stored
reference for the workload and campaign seed (``references.json``) or,
for a seed without one, the run's first campaign of that seed.  The
first world of every run, ``REFERENCE_SEED``, always has a stored
reference, so every run checks outputs against stored ones.  An
operation is one crawl task (failed when it ends in ``exec_errors``),
one figure report (failed when it raises, yields a non-finite value or
its digest differs) or one dataset size (failed when it differs).  All
campaigns run under the ``PYTHONHASHSEED`` the references were stored
under, because some outputs depend on string hashing (README.md);
``references.py`` reports those instead.

Every line of output but the last prints a campaign's phase times, a
metric with its unit, or the correctness verdict; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ledger import REPORTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
#: scratch space for the sqlite logs of on-disk workloads, removed after
#: each campaign (the benchmark writes nothing outside its checkout).
SCRATCH = ROOT / ".perfbench_tmp"

#: worlds (campaign seeds) per run and the stride between their seeds.
WORLDS_PER_RUN = 3
WORLD_SEED_STRIDE = 1_000_003
#: the campaign default seed.  Its world is the first of every run, so
#: every run checks at least one world against a stored reference.
REFERENCE_SEED = 2023
#: campaigns (pairs with ``--trace 1``) per run, whatever ``--seconds``
#: says.  Beyond these, a campaign starts only when the run's median
#: campaign time says it ends less than half a campaign after
#: ``--seconds``, so a slow machine gives fewer campaigns rather than a
#: longer run.
MIN_CAMPAIGNS = WORLDS_PER_RUN
MIN_PAIRS = 1
#: no campaign starts once a run has used this much wall time, so a run
#: ends well inside the 180 s a benchmark run may take.
START_DEADLINE_S = 120.0
CAMPAIGN_TIMEOUT_S = 150.0
HASH_SEED = "0"

DATASETS = ("hydra_entries", "bitswap_entries", "crawls")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "time_to_figures_s": "s",
    "sim_node_hours_per_s": "node-h/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric → unit; ``campaign.py`` computes them.
_SECONDS = (
    "world.build_s netsim.bootstrap_s netsim.refresh_s netsim.churn_s "
    "netsim.advertise_s netsim.scheduler_self_s workload.tick_s "
    "workload.reprovide_s content.day_index_s monitors.hydra_record_s "
    "monitors.bitswap_s monitors.provider_fetch_s monitors.gateway_probe_s "
    "store.encode_s store.decode_s store.read_s store.write_s crawl.freeze_s "
    "crawl.execute_s dns.scan_s ens.scrape_s"
).split()
_COUNTS = (
    "netsim.refresh_calls netsim.sessions workload.requests monitors.hydra_events "
    "store.decoded_records crawl.tasks crawl.requests lookup.messages"
).split()
_RATIOS = (
    "netsim.refresh_skip_ratio netsim.resolver_cache_hit_ratio "
    "workload.bitswap_hit_ratio monitors.bitswap_logged_ratio "
    "monitors.provider_reachable_ratio store.decodes_per_record "
    "crawl.timeout_ratio lookup.failed_ratio"
).split()
PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in _SECONDS},
    **{name: "count" for name in _COUNTS},
    **{name: "ratio" for name in _RATIOS},
    **{f"analysis.{name}_s": "s" for name in REPORTS},
    "trace.attributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class CampaignFailed(RuntimeError):
    """A campaign process exited abnormally or printed no result."""


def run_one(
    workload: str,
    seed: int,
    trace: bool,
    index: int,
    scratch: Path,
    hash_seed: str = HASH_SEED,
) -> Dict:
    """One campaign in a fresh process; its JSON result."""
    storage = scratch / f"campaign{index}"
    command = [
        sys.executable,
        str(HERE / "campaign.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--storage-dir",
        str(storage),
    ]
    if trace:
        command.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CAMPAIGN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise CampaignFailed(f"campaign timed out after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(storage, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise CampaignFailed(f"campaign exited with {done.returncode}: {tail}")
    return json.loads(lines[-1])


def fingerprint(out: Dict) -> Dict:
    return {"reports": out["digests"], "datasets": out["datasets"]}


def check(out: Dict, expected: Optional[Dict]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` for one campaign's outputs."""
    problems = [f"crawl task failed ({out['exec_errors']}x)"] * bool(out["exec_errors"])
    failed = out["exec_errors"]
    for name in REPORTS:
        got = out["digests"].get(name)
        if got is None:
            problems.append(f"{name}: {out['report_errors'].get(name, 'missing')}")
        elif expected is not None and got != expected["reports"].get(name):
            problems.append(f"{name}: digest {got} != {expected['reports'].get(name)}")
        else:
            continue
        failed += 1
    for name in DATASETS:
        got = out["datasets"][name]
        if expected is not None and got != expected["datasets"][name]:
            problems.append(f"{name}: {got} != {expected['datasets'][name]}")
            failed += 1
    attempted = out["datasets"]["crawls"] + out["exec_errors"] + len(REPORTS) + len(DATASETS)
    return attempted, failed, problems


def load_references(path: Path = REFERENCES) -> Dict:
    return json.loads(path.read_text()) if path.exists() else {}


def world_seeds(seed: int) -> List[int]:
    """The campaign seeds of a run: ``REFERENCE_SEED``, then ``seed`` and
    seeds derived from it.  A small world's amount of work depends on its
    seed, so a run's median over several worlds moves less from one
    ``--seed`` to the next than a single world does."""
    derived = [seed + WORLD_SEED_STRIDE * i for i in range(WORLDS_PER_RUN - 1)]
    return [REFERENCE_SEED] + derived


def end_to_end(out: Dict) -> Dict[str, float]:
    phases = out["phases"]
    return {
        **phases,
        "time_to_figures_s": sum(phases.values()),
        "sim_node_hours_per_s": out["online_servers"] * out["sim_hours"] / phases["simulate_s"],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def median_metrics(samples: List[Dict[str, float]], units: Dict[str, str]) -> Dict:
    return {
        name: {"value": statistics.median(sample[name] for sample in samples), "unit": unit}
        for name, unit in units.items()
    }


def benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    references: Path = REFERENCES,
) -> Dict:
    """Run campaigns for ``seconds`` and return the result object.

    Campaign ``i`` builds world ``i % WORLDS_PER_RUN``; with ``--trace 1``
    each step is an untraced and a traced campaign of the same world.
    """
    stored = load_references(references).get(workload, {})
    seeds = world_seeds(seed)
    expected: Dict[int, Optional[Dict]] = {s: stored.get(str(s)) for s in seeds}
    minimum = MIN_PAIRS if trace else MIN_CAMPAIGNS
    attempted = failed = 0
    problems: List[str] = []
    if expected[REFERENCE_SEED] is None:
        problems.append(f"no stored reference for {workload} seed {REFERENCE_SEED}")
    samples: List[Dict[str, float]] = []
    started = time.perf_counter()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    index = 0
    durations: List[float] = []
    try:
        while True:
            elapsed = time.perf_counter() - started
            if len(samples) >= minimum:
                if elapsed + statistics.median(durations) / 2 > seconds:
                    break
            elif elapsed >= START_DEADLINE_S:
                problems.append("too few campaigns before the deadline")
                break
            world = seeds[len(samples) % len(seeds)]
            outs = []
            step_started = time.perf_counter()
            try:
                for traced in (False, True) if trace else (False,):
                    outs.append(run_one(workload, world, traced, index, scratch))
                    index += 1
            except CampaignFailed as exc:
                problems.append(str(exc))
                failed += 1
                attempted += 1
                break
            durations.append(time.perf_counter() - step_started)
            for out in outs:
                phases = " ".join(f"{k}={v:.3f}" for k, v in sorted(out["phases"].items()))
                print(f"campaign seed={world} traced={'layers' in out}: {phases}", flush=True)
                # A world without a stored reference is checked against
                # its own first campaign.
                got_attempted, got_failed, got = check(out, expected[world])
                if expected[world] is None:
                    expected[world] = fingerprint(out)
                attempted += got_attempted
                failed += got_failed
                problems += [f"seed {world}: {problem}" for problem in got]
            if trace:
                untraced, traced_out = outs
                layers = dict(traced_out["layers"])
                layers["trace.overhead_ratio"] = (
                    sum(traced_out["phases"].values()) / sum(untraced["phases"].values())
                )
                samples.append(layers)
            else:
                samples.append(end_to_end(outs[0]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and not problems and bool(samples),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": median_metrics(samples, units) if samples else {},
        "campaigns": len(samples),
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:14.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':34} {share:14.6g} ratio")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(
        f"{verdict}: {result['failed']} of {result['attempted']} operations failed "
        f"over {result['campaigns']} campaign(s), workload {args.workload}, seed {args.seed}"
    )
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    if not result["metrics"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
