"""Per-layer self-time ledger, measured from outside the program.

The traced run patches the public entry points of each layer with a
wrapper that opens a span on a stack.  When a span closes, its duration
is added to its parent's child time, and its *self* time (duration
minus child time) is added to its layer.  The three phases a user
waits for (``build``, ``run``, ``full_report``) are root spans: their
self time is the part of the campaign no layer claims, so

    attributed_share = sum(layer self times) / sum(root durations).

Only the traced run patches the program; the untraced runs that give the
end-to-end metrics wrap nothing but the three root calls.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

ROOTS = ("campaign.build", "campaign.run", "campaign.report")


class Ledger:
    """Span stack plus per-layer self-time and call totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_seconds: Dict[str, float] = {}
        self._stack: List[List] = []
        self._opaque = 0

    def wrap(self, fn: Callable, layer: str, opaque: bool = False) -> Callable:
        """``fn`` with a span around each call.

        An *opaque* span hides every span opened inside it, so its whole
        duration is its own self time (set-up's bootstrap is measured
        this way, ``bring_online`` calls included).
        """
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls
        clock = self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if opaque:
                self._opaque += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if opaque:
                    self._opaque -= 1
                stack.pop()
                self_seconds[layer] = self_seconds.get(layer, 0.0) + elapsed - frame[1]
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_seconds[layer] = self.root_seconds.get(layer, 0.0) + elapsed

        return spanned

    def wrap_iter(self, fn: Callable, layer: str) -> Callable:
        """``fn``, a generator function, with a span around each step of
        the iterator it returns, so the work a generator does while it is
        consumed is charged to ``layer`` and not to its consumer."""
        step = self.wrap(next, layer)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return spanned

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        opaque: bool = False,
        iterator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        spanned version for the rest of the process; ``iterator`` marks a
        generator function (see :meth:`wrap_iter`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if iterator:
            setattr(owner, attr, self.wrap_iter(original, layer))
        else:
            setattr(owner, attr, self.wrap(original, layer, opaque))

    def root(self, layer: str, fn: Callable, *args):
        """Call ``fn(*args)`` as a root span."""
        if layer not in ROOTS:
            raise ValueError(f"not a root span: {layer}")
        return self.wrap(fn, layer)(*args)

    # -- results ----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        return sum(self.root_seconds.values())

    @property
    def attributed_seconds(self) -> float:
        return sum(
            seconds for layer, seconds in self.self_seconds.items() if layer not in ROOTS
        )

    def layer_seconds(self, *layers: str) -> float:
        return sum(self.self_seconds.get(layer, 0.0) for layer in layers)


def instrument(ledger: Ledger) -> None:
    """Patch the public calls into each layer of the campaign.

    Class attributes are patched (not instances), so every object the
    campaign builds afterwards is covered.  Functions that
    :mod:`repro.scenario.run` and :mod:`repro.scenario.report` look up as
    module globals are patched in those modules.
    """
    from repro.content.catalog import ContentCatalog
    from repro.core.crawler import DHTCrawler
    from repro.dns.scanner import ActiveScanner
    from repro.ens.scraper import ENSContenthashScraper
    from repro.monitors.bitswap_monitor import BitswapMonitor
    from repro.monitors.gateway_probe import GatewayProber
    from repro.monitors.hydra import HydraBooster
    from repro.monitors.provider_fetcher import ProviderRecordFetcher
    from repro.netsim.clock import EventScheduler
    from repro.netsim.network import Overlay
    from repro.scenario import report, run
    from repro.store.backend import SqliteBackend
    from repro.store.codecs import BitswapEntryCodec, HydraMessageCodec
    from repro.workload.engine import TrafficEngine, VectorizedTrafficEngine
    from repro.world.population import PopulationBuilder

    patch = ledger.patch
    patch(PopulationBuilder, "build", "world.build")
    patch(Overlay, "bootstrap", "netsim.bootstrap", opaque=True)
    patch(Overlay, "refresh_node", "netsim.refresh")
    patch(Overlay, "refresh_all", "netsim.refresh_pass")
    patch(Overlay, "bring_online", "netsim.join")
    patch(Overlay, "take_offline", "netsim.leave")
    patch(Overlay, "rotate_addresses", "netsim.rotate")
    patch(Overlay, "advertise_presence", "netsim.advertise")
    patch(EventScheduler, "run_until", "netsim.scheduler")
    for engine in (TrafficEngine, VectorizedTrafficEngine):
        for method in ("run_tick", "platform_reprovide_pass", "user_reprovide_pass"):
            if method in engine.__dict__:
                layer = "workload.tick" if method == "run_tick" else "workload.reprovide"
                patch(engine, method, layer)
    patch(TrafficEngine, "seed_platform_content", "workload.reprovide")
    patch(ContentCatalog, "build_day_index", "content.day_index")
    patch(HydraBooster, "record", "monitors.hydra_record")
    patch(BitswapMonitor, "observe_broadcast", "monitors.bitswap")
    patch(BitswapMonitor, "sampled_cids_in_window", "monitors.bitswap")
    patch(ProviderRecordFetcher, "fetch_many", "monitors.provider_fetch")
    patch(GatewayProber, "run_campaign", "monitors.gateway_probe")
    for codec in (HydraMessageCodec, BitswapEntryCodec):
        patch(codec, "encode", "store.encode")
        patch(codec, "decode", "store.decode")
    # The sqlite backend's own work (JSON text and sqlite calls) around
    # the codecs: reads happen while the analyses consume its scans.
    for method in ("scan", "scan_reversed", "scan_range"):
        patch(SqliteBackend, method, "store.read", iterator=True)
    patch(SqliteBackend, "slice", "store.read")
    patch(SqliteBackend, "append", "store.write")
    patch(SqliteBackend, "flush", "store.write")
    patch(DHTCrawler, "task", "crawl.freeze")
    # The traced run collects metrics, so the runner dispatches crawls to
    # the observed variant; patch it where the runner looks it up.
    patch(run, "execute_crawl_task_observed", "crawl.execute")
    patch(ActiveScanner, "scan", "dns.scan")
    patch(ENSContenthashScraper, "scrape", "ens.scrape")
    for name in REPORTS:
        patch(report, f"{name}_report", f"analysis.{name}")


#: the 19 entries of ``full_report``, in its order; each is computed by
#: ``repro.scenario.report.<name>_report``.
REPORTS = (
    "crawl_stats",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "sec5",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18_19",
    "fig20",
)
