"""The end-to-end measurement campaign (paper §3, Fig. 2 architecture).

Builds the synthetic world and network, runs the simulated measurement
period — churn and traffic interleaved with periodic DHT crawls and daily
provider-record collection — and finally the one-shot entry-point
measurements (gateway probing, active DNS scan, ENS scrape).  The result
object carries every dataset the §4-§7 analyses need.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.attack.orchestrator import AttackOrchestrator
from repro.content.catalog import ContentCatalog
from repro.workload.engine import TrafficEngine
from repro.workload.spec import build_workload
from repro.core.crawler import (
    Capture,
    CrawlDataset,
    DHTCrawler,
    execute_crawl_task_observed,
)
from repro.exec.engine import ExecError, ParallelExecutor
from repro.exec.seeds import derive_seed
from repro.dns.scanner import ActiveScanner, DNSLinkScanResult
from repro.dns.seeding import DNSWorld, seed_dns_world
from repro.ens.scraper import ENSContenthashScraper, ENSScrapeResult
from repro.ens.seeding import ENSWorld, seed_ens_world
from repro.gateway.operators import default_operators, install_gateway_specs
from repro.gateway.registry import PublicGatewayRegistry
from repro.gateway.service import GatewayService
from repro.ids.peerid import PeerID
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.gateway_probe import GatewayProbeReport, GatewayProber
from repro.monitors.hydra import HydraBooster
from repro.monitors.provider_fetcher import ProviderObservation, ProviderRecordFetcher
from repro.netsim.churn import ChurnProcess, DailyAddressRotation, PresenceAdvertiser
from repro.netsim.clock import SECONDS_PER_DAY
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.serve import ControlServer
from repro.obs.stream import StreamAnalytics
from repro.obs.trace import Tracer, write_trace
from repro.scenario.config import ScenarioConfig
from repro.store import campaign_stores
from repro.world.population import NodeClass, NodeSpec, PopulationBuilder, World


@dataclass
class CampaignResult:
    """Every dataset a completed campaign produced."""

    config: ScenarioConfig
    world: World
    overlay: Overlay
    catalog: ContentCatalog
    crawls: CrawlDataset
    hydra: HydraBooster
    bitswap_monitor: BitswapMonitor
    provider_observations: List[ProviderObservation]
    gateway_registry: PublicGatewayRegistry
    gateway_probe_reports: Dict[str, GatewayProbeReport]
    dns_world: DNSWorld
    dns_scan: DNSLinkScanResult
    ens_world: ENSWorld
    ens_scrape: ENSScrapeResult
    ens_observations: List[ProviderObservation]
    gateway_peers: Set[PeerID]
    hydra_peers: Set[PeerID]
    #: crawl tasks that failed even after a retry (empty on clean runs);
    #: their snapshots are missing from ``crawls``.
    exec_errors: List[ExecError] = field(default_factory=list)
    #: observability snapshot (see :mod:`repro.obs`) when the campaign ran
    #: with ``ScenarioConfig.metrics`` enabled, else ``None``.
    metrics: Optional[Dict[str, object]] = None
    #: merged trace record stream (see :mod:`repro.obs.trace`) when the
    #: campaign ran with ``ScenarioConfig.trace`` enabled, else ``None``:
    #: the campaign tracer's records followed by each crawl task's, in
    #: crawl order.
    trace: Optional[List[Dict[str, object]]] = None
    #: where the trace was persisted when ``ScenarioConfig.trace_out``
    #: was set, else ``None``.
    trace_path: Optional[str] = None
    #: per-attack effect metrics (see :class:`repro.attack.AttackOrchestrator`)
    #: when the campaign ran with attacks configured, else ``None``.
    attack_summary: Optional[Dict[str, Dict[str, float]]] = None
    #: the ground-truth log of injected adversarial activity, else ``None``.
    attack_ground_truth: Optional[object] = None
    #: detector scorecard (see :func:`repro.detect.run_detection`) when the
    #: campaign ran with ``ScenarioConfig.detect`` enabled, else ``None``.
    detection: Optional[Dict[str, object]] = None
    #: final streaming-analytics sketch snapshot (see
    #: :mod:`repro.obs.stream`) when the campaign ran with streaming
    #: enabled (``stream`` / ``sketches_out`` / ``live``), else ``None``.
    sketches: Optional[Dict[str, object]] = None
    #: where the sketch snapshot JSON was written when
    #: ``ScenarioConfig.sketches_out`` was set, else ``None``.
    sketches_path: Optional[str] = None
    #: the bound control-plane URL when the campaign served ``--live``.
    live_url: Optional[str] = None
    #: True when a live ``/stop`` request ended the measurement period
    #: early (the datasets cover the completed ticks only).
    stopped_early: bool = False

    @property
    def crawl_rows(self):
        from repro.core.counting import make_rows

        return make_rows(self.crawls.rows())


class MeasurementCampaign:
    """Owns the simulated world and executes the full §3 methodology."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = random.Random(self.config.seed + 100)
        # The campaign's observer sinks, ``None`` for channels that are
        # off.  Crawl tasks get their own per-task sinks (see
        # execute_crawl_task_observed); the stream engine is built with
        # the world's classifiers during :meth:`build`.
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.tracer: Optional[Tracer] = None
        if self.config.trace:
            self.tracer = Tracer(
                origin="main",
                seed=derive_seed(self.config.seed, "trace", "main"),
                sample=self.config.trace_sample,
                capacity=self.config.trace_buffer,
                clock=self._sim_now,
            )
        self.stream: Optional[StreamAnalytics] = None
        #: the live control plane (see :mod:`repro.obs.serve`) when
        #: ``config.live`` is set; bound during :meth:`build` so the URL
        #: is known before the run starts.
        self.control_server: Optional[ControlServer] = None
        self._last_publish: Optional[float] = None
        self._crawl_trace_records: List[Dict[str, object]] = []
        self._built = False

    def _sim_now(self) -> float:
        overlay = getattr(self, "overlay", None)
        return overlay.now if overlay is not None else 0.0

    def _observed(self):
        """Install the campaign's sinks on the observer probe.

        With every channel off this leaves the active probe alone, so a
        probe the caller installed still sees the instrumentation.
        """
        return obs.install(metrics=self.metrics, tracer=self.tracer, stream=self.stream)

    # ------------------------------------------------------------------
    # the live control plane
    # ------------------------------------------------------------------

    def _publish_live(
        self,
        state: str,
        phase: str,
        *,
        day: Optional[Tuple[int, int]] = None,
        tick: Optional[Tuple[int, int]] = None,
        crawls: Optional[Tuple[int, int]] = None,
        force: bool = False,
    ) -> None:
        """Push the current status/sketch snapshots to the control plane.

        Wall-clock throttled (≈1 Hz) and strictly read-only against the
        simulation — the server thread never touches sim state, the
        campaign thread only *reads* the sketches — so ``--live`` cannot
        perturb outputs.
        """
        server = self.control_server
        if server is None:
            return
        now = time.monotonic()
        if not force and self._last_publish is not None and now - self._last_publish < 1.0:
            return
        self._last_publish = now
        status: Dict[str, object] = {
            "state": state,
            "phase": phase,
            "events": self.stream.events,
            "runtime": dict(sorted(self.stream.notes.items())),
        }
        if day is not None:
            status["day"] = f"{day[0]}/{day[1]}"
        if tick is not None:
            status["tick"] = f"{tick[0]}/{tick[1]}"
        if crawls is not None:
            status["crawls"] = f"{crawls[0]}/{crawls[1]}"
        # Status last: a client that sees a status has its sketches too.
        server.publisher.publish("sketches", self.stream.snapshot())
        if self.metrics is not None:
            server.publisher.publish("metrics", self.metrics.snapshot())
        server.publisher.publish("status", status)

    def _stop_requested(self) -> bool:
        return (
            self.control_server is not None
            and self.control_server.publisher.stop_requested
        )

    def close_live(self) -> None:
        """Shut the control-plane server down (idempotent).

        :meth:`run` leaves the server up so callers (``repro obs serve``)
        can keep the final snapshot browsable; :func:`run_campaign`
        closes it as soon as the result is returned.
        """
        if self.control_server is not None:
            self.control_server.close()
            self.control_server = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self) -> None:
        with self._observed(), obs.phase("campaign", mark=False), obs.phase("build"):
            self._build()

    def _build(self) -> None:
        config = self.config
        self.world = PopulationBuilder(config.profile).build()
        self.operators = default_operators()
        self.gateway_specs = install_gateway_specs(self.world, self.operators)
        self._monitor_spec = self._add_monitor_spec()
        self.overlay = Overlay(self.world)
        self.overlay.bootstrap()
        self.overlay.schedule_periodic_refresh()
        self.churn = ChurnProcess(self.overlay)
        self.churn.start()
        self.advertiser = PresenceAdvertiser(self.overlay)
        self.advertiser.start()
        self.rotation = DailyAddressRotation(self.overlay)
        self.rotation.start()
        self.catalog = ContentCatalog(random.Random(config.seed + 101))
        # Attack-off campaigns must not even create an attack store
        # (byte-identical on-disk layout to previous releases).
        log_names = ("hydra", "bitswap", "attack") if config.attacks else ("hydra", "bitswap")
        stores = campaign_stores(config.storage, names=log_names, workers=config.workers)
        for store in stores.values():
            # A campaign starts at simulated t=0; records left over from a
            # previous run into the same path would silently skew every
            # share the analyses compute.
            store.clear()
        self.hydra = HydraBooster(num_heads=config.hydra_heads, store=stores["hydra"])
        self.monitor = BitswapMonitor(
            random.Random(config.seed + 102), store=stores["bitswap"]
        )
        self.engine = TrafficEngine(
            self.overlay, self.catalog, self.hydra, self.monitor, config.workload
        )
        # Optional open-loop session driver (see repro.workload.spec).
        # "closed" builds nothing: the engine keeps its legacy per-node
        # model and the campaign stays bit-identical to the goldens.
        workload_driver = build_workload(config.workload_spec, seed=config.seed)
        if workload_driver is not None:
            self.engine.attach_open_loop(workload_driver)
        # Attackers are injected after ChurnProcess.start(), so their
        # sessions answer to the attack windows alone, never to churn.
        self.attack_orchestrator: Optional[AttackOrchestrator] = None
        if config.attacks:
            self.attack_orchestrator = AttackOrchestrator(
                self.overlay,
                self.engine,
                self.hydra,
                self.monitor,
                self.catalog,
                config.attacks,
                seed=config.seed,
                store=stores["attack"],
            )
            self.attack_orchestrator.install()
        self.crawler = DHTCrawler(self.overlay)
        self.fetcher = ProviderRecordFetcher(self.overlay)
        self.gateway_registry = PublicGatewayRegistry(self.operators)
        self.services: Dict[str, Optional[GatewayService]] = {}
        for entry in self.gateway_registry.entries:
            if entry.operator is None:
                self.services[entry.domain] = None
                continue
            nodes = [
                node
                for node in self.overlay.nodes
                if node.spec.platform == entry.operator
                and node.spec.node_class is NodeClass.GATEWAY
            ]
            operator = self.gateway_registry.operator_for(entry.domain)
            self.services[entry.domain] = GatewayService(
                operator, nodes, self.overlay, self.monitor
            )
        self.dns_world = seed_dns_world(self.world, self.operators, config.dns)
        if config.stream_enabled:
            # The streaming classifiers mirror the exact batch analyses:
            # cloud attribution is the same memoized CloudIPDatabase
            # lookup the traffic reports use, and gateway-ness is decided
            # at observe time (senders are online when they send) against
            # the same node-class the batch gateway_peers set reflects.
            online_by_peer = self.overlay.online_by_peer

            def _is_gateway(peer: PeerID) -> bool:
                node = online_by_peer.get(peer)
                return node is not None and node.spec.node_class is NodeClass.GATEWAY

            self.stream = StreamAnalytics(
                config.stream_window,
                provider_of=self.world.cloud_db.lookup,
                is_gateway=_is_gateway,
            )
            if config.live is not None:
                self.control_server = ControlServer(config.live).start()
                print(
                    f"live campaign analytics at {self.control_server.url}",
                    file=sys.stderr,
                )
        self._built = True

    def _add_monitor_spec(self) -> NodeSpec:
        """Our own monitoring node: a stable university server (non-cloud,
        DE) that hosts the probe content and the Bitswap monitor."""
        key = ("isp-de", "DE")
        if key not in self.world.blocks_by_org_country:
            self.world.blocks_by_org_country[key] = self.world.allocator.allocate_block(
                "isp-de", "DE", is_cloud=False, prefix_len=14
            )
        spec = NodeSpec(
            index=max(s.index for s in self.world.specs) + 1,
            node_class=NodeClass.PLATFORM,
            organisation="isp-de",
            country="DE",
            blocks=(self.world.blocks_by_org_country[key],),
            behavior=self.world.profile.behaviors["platform"],
            platform="tud-monitor",
            activity_weight=0.1,
            num_addrs=1,
        )
        self.world.specs.append(spec)
        return spec

    # ------------------------------------------------------------------
    # the measurement period
    # ------------------------------------------------------------------

    def run(self) -> CampaignResult:
        if not self._built:
            self.build()
        with self._observed(), obs.phase("campaign", mark=False):
            result = self._run()
        metrics = self.metrics
        if metrics is not None:
            metrics.set_gauge("campaign.workers", self.config.workers)
            metrics.set_gauge("campaign.num_crawls", len(result.crawls))
            metrics.set_gauge("campaign.hydra_log_entries", len(self.hydra.log))
            metrics.set_gauge("campaign.bitswap_log_entries", len(self.monitor.log))
            for name, value in self.engine.stats.items():
                metrics.set_gauge(f"workload.{name}", value)
            driver = self.engine.open_loop
            if driver is not None:
                # The session driver's stream statistics ride the same
                # namespace, so `repro obs report` shows the closed-loop
                # engine counters and the open-loop session/popularity
                # stats side by side.
                for name, value in driver.stats.items():
                    metrics.set_gauge(f"workload.{name}", value)
                for cls_name, value in driver.requests_by_class.items():
                    metrics.set_gauge(
                        f"workload.requests_class.{cls_name.lower()}", value
                    )
                for name, value in driver.headline_shares().items():
                    metrics.set_gauge(f"workload.{name}", value)
            result.metrics = metrics.snapshot()
        if self.tracer is not None:
            # Main tracer first (meta + campaign-process events), then
            # each crawl task's records in crawl order — deterministic
            # regardless of which worker produced which crawl.
            trace_records = self.tracer.records()
            trace_records.extend(self._crawl_trace_records)
            result.trace = trace_records
            if self.config.trace_out:
                write_trace(trace_records, self.config.trace_out)
                result.trace_path = str(self.config.trace_out)
        if self.stream is not None:
            result.sketches = self.stream.snapshot()
            if self.config.sketches_out:
                path = Path(self.config.sketches_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(result.sketches, indent=2, sort_keys=True) + "\n"
                )
                result.sketches_path = str(path)
        if self.control_server is not None:
            result.live_url = self.control_server.url
            publisher = self.control_server.publisher
            publisher.publish("sketches", result.sketches)
            if result.metrics is not None:
                publisher.publish("metrics", result.metrics)
            publisher.publish(
                "status",
                {
                    "state": "stopped" if result.stopped_early else "done",
                    "phase": "done",
                    "events": self.stream.events,
                    "runtime": dict(sorted(self.stream.notes.items())),
                },
            )
        return result

    def _run(self) -> CampaignResult:
        config = self.config
        overlay = self.overlay
        if config.traffic_enabled:
            self.engine.seed_platform_content()
        persistent_items = self._seed_persistent_user_content(
            max(40, int(config.ens.num_names * config.ens.share_persistent_user))
        )
        ens_world = seed_ens_world(
            self.catalog,
            config.ens,
            random.Random(config.seed + 103),
            persistent_items=persistent_items,
        )

        provider_observations: List[ProviderObservation] = []
        crawl_interval = SECONDS_PER_DAY / config.crawls_per_day
        warmup = config.warmup_days
        next_crawl = warmup * SECONDS_PER_DAY
        crawl_id = 0
        total_days = warmup + config.days
        fetch_from_day = total_days - config.provider_fetch_days
        tick_seconds = SECONDS_PER_DAY / config.ticks_per_day

        # Crawls fan out over the execution engine: the sim loop freezes
        # each crawl's observable state (a cheap pure read) and the BFS
        # bucket sweeps — the expensive part — run on worker processes
        # while the simulation advances.  ``workers=1`` executes the
        # identical pure function inline, so the dataset is bit-identical
        # either way (each crawl's randomness is derived, never shared).
        crawl_engine = ParallelExecutor(workers=config.workers, retries=1)
        # Each crawl collects into its own sinks (so nothing is lost on
        # worker processes) and ships them back with its snapshot; the
        # parent merges them in crawl order below, which gives identical
        # outputs at any worker count.  ``execute_crawl_task_observed`` is
        # looked up as a module global at each submit, so a wrapper
        # installed on this module sees every call.
        capture = Capture(
            metrics=config.metrics,
            trace=config.trace,
            stream=self.stream is not None,
            trace_sample=config.trace_sample,
            trace_capacity=config.trace_buffer,
        )

        progress = ProgressReporter() if config.progress else None
        total_ticks = total_days * config.ticks_per_day
        done_ticks = 0
        stopped_early = False

        with obs.phase("simulate"):
            for day in range(total_days):
                obs.inc("campaign.days")
                self.catalog.build_day_index(day)
                if config.traffic_enabled:
                    self.engine.platform_reprovide_pass()
                    self.engine.user_reprovide_pass()
                for tick in range(config.ticks_per_day):
                    obs.inc("campaign.ticks")
                    while (
                        day >= warmup
                        and overlay.now >= next_crawl
                        and crawl_id < config.num_crawls
                    ):
                        crawl_engine.submit(
                            crawl_id,
                            execute_crawl_task_observed,
                            self.crawler.task(crawl_id),
                            capture,
                        )
                        crawl_id += 1
                        next_crawl += crawl_interval
                    tick_start = overlay.now
                    if config.traffic_enabled:
                        self.engine.run_tick(tick_seconds / 3600.0)
                    if self.attack_orchestrator is not None:
                        # After the honest traffic, mirroring how real
                        # attack packets share the wire with user load.
                        self.attack_orchestrator.on_tick(tick_seconds / 3600.0)
                    if config.traffic_enabled and day >= fetch_from_day:
                        # The paper fetches each day's sampled CIDs the same
                        # day; fetching per tick keeps the same freshness.
                        sampled = self.monitor.sampled_cids_in_window(
                            tick_start,
                            overlay.now + tick_seconds,
                            config.daily_cid_sample // config.ticks_per_day,
                        )
                        with obs.phase("provider-fetch", mark=False):
                            provider_observations.extend(self.fetcher.fetch_many(sampled))
                    overlay.scheduler.run_until(
                        day * SECONDS_PER_DAY + (tick + 1) * tick_seconds
                    )
                    done_ticks += 1
                    if progress is not None:
                        progress.update(
                            "simulate",
                            done_ticks,
                            total_ticks,
                            day=(day + 1, total_days),
                            crawls=(crawl_id, config.num_crawls),
                            tracer=self.tracer,
                            analytics=self.stream,
                        )
                    self._publish_live(
                        "running",
                        "simulate",
                        day=(day + 1, total_days),
                        tick=(done_ticks, total_ticks),
                        crawls=(crawl_id, config.num_crawls),
                    )
                    if self._stop_requested():
                        # Graceful early stop: finish this tick, drain the
                        # crawls already submitted, run the one-shot
                        # measurements — a normal result over the shorter
                        # horizon.
                        stopped_early = True
                        break
                if stopped_early:
                    break
        if self.stream is not None:
            self.stream.finalize(overlay.now)

        if self.attack_orchestrator is not None:
            self.attack_orchestrator.finish()

        if progress is not None:
            progress.update(
                "crawl-drain",
                total_ticks,
                total_ticks,
                crawls=(crawl_id, config.num_crawls),
                tracer=self.tracer,
                force=True,
            )
        with obs.phase("crawl-drain"):
            self._publish_live(
                "running", "crawl-drain",
                crawls=(crawl_id, config.num_crawls), force=True,
            )
            crawl_results, exec_errors = crawl_engine.drain()
            crawl_engine.close()
            crawl_dataset = self._merge_crawls(crawl_results)

        # Provider records expire after 24 h; refresh them so the one-shot
        # entry-point measurements below resolve live content.
        self.catalog.build_day_index(total_days - 1)
        if config.traffic_enabled:
            self.engine.platform_reprovide_pass()
        self.engine.user_reprovide_pass()

        # --- one-shot entry-point measurements -----------------------------
        monitor_node = next(
            node for node in overlay.nodes if node.spec.platform == "tud-monitor"
        )
        if not monitor_node.online:
            overlay.bring_online(monitor_node)
        prober = GatewayProber(overlay, self.monitor, monitor_node)
        with obs.phase("gateway-probe"):
            probe_reports = prober.run_campaign(
                self.services, config.gateway_probes_per_endpoint
            )
        scanner = ActiveScanner(self.dns_world.resolver)
        with obs.phase("dns-scan"):
            dns_scan = scanner.scan(self.dns_world.scan_input)
        scraper = ENSContenthashScraper(
            ens_world.chain, [resolver.address for resolver in ens_world.resolvers]
        )
        with obs.phase("ens-scrape"):
            ens_scrape = scraper.scrape()
            ens_fetcher = ProviderRecordFetcher(overlay)
            ens_observations = ens_fetcher.fetch_many(ens_scrape.cids())

        # Disk-backed logs buffer writes; make the stored state complete
        # before handing the datasets to the analyses.
        self.hydra.log.flush()
        self.monitor.log.flush()

        attack_summary = None
        attack_ground_truth = None
        detection = None
        if self.attack_orchestrator is not None:
            attack_summary = self.attack_orchestrator.summary()
            attack_ground_truth = self.attack_orchestrator.ground_truth
        if config.detect:
            from repro.detect import run_detection

            with obs.phase("detect"):
                scorecard = run_detection(
                    self.hydra.log,
                    self.monitor.log,
                    ground_truth=attack_ground_truth,
                    window_seconds=config.detect_window,
                )
            detection = scorecard.to_dict()

        if progress is not None:
            progress.finish(
                f"campaign done: {len(crawl_dataset)} crawls, "
                f"{len(self.hydra.log)} hydra entries"
            )

        return CampaignResult(
            config=config,
            world=self.world,
            overlay=overlay,
            catalog=self.catalog,
            crawls=crawl_dataset,
            hydra=self.hydra,
            bitswap_monitor=self.monitor,
            provider_observations=provider_observations,
            gateway_registry=self.gateway_registry,
            gateway_probe_reports=probe_reports,
            dns_world=self.dns_world,
            dns_scan=dns_scan,
            ens_world=ens_world,
            ens_scrape=ens_scrape,
            ens_observations=ens_observations,
            gateway_peers=self._peers_of_class(NodeClass.GATEWAY),
            hydra_peers={
                node.peer
                for node in overlay.nodes
                if node.spec.platform == "hydra" and node.peer is not None
            },
            exec_errors=exec_errors,
            attack_summary=attack_summary,
            attack_ground_truth=attack_ground_truth,
            detection=detection,
            stopped_early=stopped_early,
        )

    def _merge_crawls(self, crawl_results) -> CrawlDataset:
        """Fold the ``(snapshot, captured)`` crawl outcomes in crawl order.

        Crawl order, not completion order, so the merged metrics, trace
        records and sketch state are bit-identical at any worker count.
        """
        snapshots = []
        for crawl_id in sorted(crawl_results):
            snapshot, captured = crawl_results[crawl_id]
            snapshots.append(snapshot)
            if captured.metrics is not None:
                self.metrics.merge_snapshot(captured.metrics)
            if captured.trace is not None:
                self._crawl_trace_records.extend(captured.trace)
            if captured.sketch is not None:
                self.stream.merge_crawl_state(captured.sketch)
        return CrawlDataset(snapshots=snapshots)

    def _seed_persistent_user_content(self, count: int):
        """Long-lived user-published items (ENS websites and the like).

        Publishers are ordinary participants — home servers, small VPSes,
        NAT-ed users — who keep the content alive through the daily
        re-provide cycle while they are online.
        """
        from repro.content.catalog import ContentItem
        from repro.ids.cid import CID

        rng = random.Random(self.config.seed + 104)
        class_weights = [
            (NodeClass.RESIDENTIAL_STABLE, 0.30),
            (NodeClass.CLOUD_STABLE, 0.25),
            (NodeClass.NAT_CLIENT, 0.35),
            (NodeClass.HYBRID, 0.10),
        ]
        pools = {
            cls: [node for node in self.overlay.nodes if node.spec.node_class is cls]
            for cls, _ in class_weights
        }
        items = []
        for _ in range(count):
            cls = rng.choices(
                [cls for cls, _ in class_weights],
                weights=[weight for _, weight in class_weights],
            )[0]
            pool = pools[cls] or self.overlay.nodes
            node = rng.choice(pool)
            item = self.catalog.add(
                ContentItem(
                    cid=CID.generate(rng),
                    publisher=node.spec.index,
                    created_day=0,
                    lifetime_days=self.config.days + 3,
                    weight=1.5,
                )
            )
            if node.online:
                self.engine.publish(node, cid=item.cid, fresh=False)
            else:
                node.provided_cids.add(item.cid)
            items.append(item)
        return items

    def _peers_of_class(self, node_class: NodeClass) -> Set[PeerID]:
        return {
            node.peer
            for node in self.overlay.nodes
            if node.spec.node_class is node_class and node.peer is not None
        }


def run_campaign(config: Optional[ScenarioConfig] = None) -> CampaignResult:
    """Build and run a campaign in one call."""
    campaign = MeasurementCampaign(config)
    campaign.build()
    try:
        return campaign.run()
    finally:
        campaign.close_live()
