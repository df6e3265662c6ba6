#!/usr/bin/env python
"""Scaling benchmark for the tick engine.

Measures tick-engine throughput — **node·ticks per second** — at 10 k,
50 k and 100 k online servers, in two regimes:

* **busy** (6-hour ticks, the campaign default): most nodes emit events
  every tick and event generation dominates.
* **quiet** (36-simulated-second ticks, the fine-grained sweep regime):
  nearly every node is silent and the per-node Poisson draw dominates.

Usage::

    PYTHONPATH=src python benchmarks/bench_tick_engine.py                  # full run
    PYTHONPATH=src python benchmarks/bench_tick_engine.py \
        --sizes 10000 --check BENCH_tick_engine.json                       # CI gate
    PYTHONPATH=src python benchmarks/bench_tick_engine.py \
        --sizes 100000 --quiet-ticks 4 --busy-ticks 1 --out ""               # smoke

``--check`` compares hardware-normalized costs against the committed
baseline and exits non-zero on a > ``--tolerance`` (default 3x) gross
regression; only sizes present in both runs are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

if __package__ in (None, ""):
    _repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for entry in (os.path.join(_repo_root, "src"), os.path.dirname(os.path.abspath(__file__))):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from _bench_utils import BenchReport, compare_to_baseline

from repro.content.catalog import ContentCatalog
from repro.workload import TrafficEngine
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.netsim.network import Overlay
from repro.world.population import build_world
from repro.world.profiles import WorldProfile

SEED = 23

#: (regime name, hours per tick) — see the module docstring.  The quiet
#: tick is 36 simulated seconds: short enough that nearly every node
#: draws zero events.
REGIMES = (("busy", 6.0), ("quiet", 0.01))


def build_stack(servers: int):
    """World + bootstrapped overlay + traffic engine at the given scale."""
    world = build_world(WorldProfile(online_servers=servers, seed=SEED))
    overlay = Overlay(world)
    overlay.bootstrap()
    engine = TrafficEngine(
        overlay,
        ContentCatalog(random.Random(SEED + 1)),
        HydraBooster(num_heads=2),
        BitswapMonitor(random.Random(SEED + 2)),
        None,
        random.Random(SEED + 3),
    )
    engine.seed_platform_content()
    return engine


def run_ticks(engine, hours: float, ticks: int) -> float:
    """Drive ``ticks`` engine ticks; returns wall-clock seconds."""
    scheduler = engine.overlay.scheduler
    step = hours * 3600.0
    start = time.perf_counter()
    for _ in range(ticks):
        scheduler.run_until(scheduler.clock.now + step)
        engine.run_tick(hours)
    return time.perf_counter() - start


def online_count(engine) -> int:
    return len(engine.overlay.online_by_peer)


def bench_size(
    report: BenchReport, servers: int, quiet_ticks: int, busy_ticks: int
) -> None:
    tick_plan = {"busy": busy_ticks, "quiet": quiet_ticks}

    print(f"\n--- {servers} servers ---")
    built = time.perf_counter()
    engine = build_stack(servers)
    print(
        f"bootstrap: {time.perf_counter() - built:.1f}s "
        f"({online_count(engine)} nodes online)"
    )
    for regime, hours in REGIMES:
        ticks = tick_plan[regime]
        if ticks <= 0:
            continue
        node_ticks = online_count(engine) * ticks
        seconds = run_ticks(engine, hours, ticks)
        report.record(f"tick_{regime}_scalar_{servers}", seconds, node_ticks)
        print(f"  {regime:<5} {node_ticks / seconds:12,.0f} node·ticks/s")


def run(
    sizes: List[int], quiet_ticks: int, busy_ticks: int, out_path: Optional[str]
) -> dict:
    report = BenchReport()
    print(f"calibration: {report.calibration:.4f}s")
    for servers in sizes:
        bench_size(report, servers, quiet_ticks, busy_ticks)
    if out_path:
        report.write(out_path)
    return report.payload()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="10000,50000,100000",
        help="comma-separated online-server counts to benchmark",
    )
    parser.add_argument(
        "--quiet-ticks", type=int, default=20,
        help="ticks per size in the quiet (36-sim-second) regime",
    )
    parser.add_argument(
        "--busy-ticks", type=int, default=4,
        help="ticks per size in the busy (6-sim-hour) regime",
    )
    parser.add_argument(
        "--out",
        default="BENCH_tick_engine.json",
        help="where to write the machine-readable report ('' to skip)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE_JSON",
        help="compare against a committed baseline; exit 1 on gross regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed growth factor of normalized cost before failing --check",
    )
    options = parser.parse_args(argv)

    sizes = [int(token) for token in options.sizes.split(",") if token]
    current = run(sizes, options.quiet_ticks, options.busy_ticks, options.out or None)

    if options.check:
        with open(options.check) as handle:
            baseline = json.load(handle)
        regressions = compare_to_baseline(current, baseline, options.tolerance)
        if regressions:
            print(f"\nPERF REGRESSION (> {options.tolerance:.1f}x normalized cost):")
            for name, before, after in regressions:
                print(f"  {name}: {before:.2f}x cal -> {after:.2f}x cal")
            return 1
        print(f"\nperf check OK (tolerance {options.tolerance:.1f}x, "
              f"{len(baseline.get('benchmarks', {}))} baseline entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
