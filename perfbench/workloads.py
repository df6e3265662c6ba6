"""The benchmark's campaign workloads.

Each workload is a batch campaign in one process with ``workers=1``, so
crawls run inline and the campaign starts no threads, pools or sockets.
The sizes are small on purpose: every benchmark run repeats the
campaign several times in fresh processes and reports medians, and the
whole set of runs has to fit a fixed time budget.  README.md beside this
file records why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # the parent process imports this file without ``src``
    from repro.scenario.config import ScenarioConfig


def _scenario():
    from repro.scenario.config import ScenarioConfig

    return ScenarioConfig


def _seeded(config: "ScenarioConfig", seed: int, servers: int, days: int) -> "ScenarioConfig":
    # The same override ``repro campaign --seed`` applies: the campaign
    # seed and the world profile seed move together.
    return replace(
        config,
        profile=replace(config.profile, online_servers=servers, seed=seed),
        days=days,
        seed=seed,
        workers=1,
    )


def traffic(seed: int, storage_dir: str) -> "ScenarioConfig":
    """The smoke shape: closed-loop per-node traffic, in-memory logs."""
    return _seeded(_scenario().smoke(), seed, servers=150, days=1)


def crawl(seed: int, storage_dir: str) -> "ScenarioConfig":
    """The paper's temporal design (101 crawls / 38 days), traffic off,
    shortened."""
    return _seeded(_scenario().paper_horizon(), seed, servers=160, days=4)


def openloop_disk(seed: int, storage_dir: str) -> "ScenarioConfig":
    """The smoke world with open-loop Zipf sessions and sqlite logs."""
    config = _seeded(_scenario().smoke(), seed, servers=100, days=2)
    return replace(
        config,
        warmup_days=0,
        hydra_heads=2,
        workload_spec="zipf:users=200",
        storage=f"sqlite:{storage_dir}",
    )


#: name → config factory, called with the campaign seed and a scratch
#: directory that a workload with on-disk logs keeps them in.
WORKLOADS: Dict[str, Callable[[int, str], "ScenarioConfig"]] = {
    "traffic": traffic,
    "crawl": crawl,
    "openloop_disk": openloop_disk,
}

