"""Campaign observability: one probe, three sinks.

The paper's measurement pipelines are long-running campaigns (38 days,
101 crawls, 200 k daily CID samples at paper scale); operating — and
optimising — them requires telemetry, just like the Nebula crawler's
per-crawl metrics and the Hydra operators' dashboards the paper itself
relies on (§3, §5.1).  This package provides the zero-dependency
substrate.

Instrumented code reports each event once, through the observer probe
(:mod:`repro.obs.probe`): ``obs.inc``/``observe``/``set_gauge`` for
metrics, ``obs.event``/``span`` for causal traces, ``obs.phase`` for
campaign phases, and ``obs.hydra``/``bitswap``/``task`` for the monitor
and exec events that feed several channels at once.  The probe fans each
call out to whichever sinks are subscribed:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  and hierarchical phase timings (``campaign/simulate/provider-fetch``);
* :class:`Tracer` — per-lookup/per-crawl causal traces in a bounded,
  deterministically sampled ring buffer, with a Chrome trace-event /
  Perfetto exporter (:func:`chrome_trace`) and a trace-replaying
  invariant auditor (:func:`audit_trace`, ``repro obs audit``);
* :class:`StreamAnalytics` — bounded-memory live sketches of the
  paper's headline quantities, served by the control plane
  (:class:`ControlServer`, ``--live``).

Every channel is **off by default**: the active probe is
:data:`NULL_PROBE`, whose methods do nothing, so instrumented hot paths
cost one global read plus one no-op call per event and campaign outputs
stay bit-identical.  Campaigns subscribe sinks per
:class:`~repro.scenario.config.ScenarioConfig` (``metrics``, ``trace``,
``stream``); elsewhere :func:`install` scopes them::

    import repro.obs as obs

    registry = obs.MetricsRegistry()
    with obs.install(metrics=registry), obs.phase("my-phase"):
        ...
    print(obs.render_report(registry.snapshot()))

Per-crawl-task sinks are merged deterministically in the parent, in
crawl order, mirroring the sharded-log heap-merge;
:func:`deterministic_view`, :func:`deterministic_trace_view` and
:func:`deterministic_sketches_view` are the cross-worker bit-identical
portions of each sink's snapshot.
"""

from repro.obs.export import (
    metrics_to_records,
    read_metrics,
    records_to_snapshot,
    render_report,
    write_metrics,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NONDETERMINISTIC_COUNTERS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    deterministic_view,
)
from repro.obs.probe import (
    NULL_PROBE,
    NullProbe,
    Probe,
    bitswap,
    event,
    get_probe,
    hydra,
    inc,
    install,
    observe,
    phase,
    resolver_cache,
    set_gauge,
    span,
    task,
)
from repro.obs.sketch import (
    LinearCounter,
    QuantileSketch,
    SpaceSaving,
    WindowedCounters,
)
from repro.obs.stream import (
    DEFAULT_WINDOW_SECONDS,
    SKETCHES_SCHEMA,
    StreamAnalytics,
    deterministic_sketches_view,
    render_stream_report,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NONDETERMINISTIC_EVENT_PREFIXES,
    TraceEvent,
    Tracer,
    deterministic_trace_view,
    read_trace,
    write_trace,
)
from repro.obs.audit import AuditReport, audit_trace
from repro.obs.perfetto import chrome_trace, write_chrome_trace
from repro.obs.progress import ProgressReporter
from repro.obs.serve import ControlServer, StreamPublisher

__all__ = [
    "AuditReport",
    "ControlServer",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_WINDOW_SECONDS",
    "Gauge",
    "Histogram",
    "LinearCounter",
    "MetricsRegistry",
    "NONDETERMINISTIC_COUNTERS",
    "NONDETERMINISTIC_EVENT_PREFIXES",
    "NULL_PROBE",
    "NullProbe",
    "Probe",
    "ProgressReporter",
    "QuantileSketch",
    "SKETCHES_SCHEMA",
    "SpaceSaving",
    "StreamAnalytics",
    "StreamPublisher",
    "TIME_BUCKETS",
    "TraceEvent",
    "Tracer",
    "WindowedCounters",
    "audit_trace",
    "bitswap",
    "chrome_trace",
    "deterministic_sketches_view",
    "deterministic_trace_view",
    "deterministic_view",
    "event",
    "get_probe",
    "hydra",
    "inc",
    "install",
    "metrics_to_records",
    "observe",
    "phase",
    "read_metrics",
    "read_trace",
    "records_to_snapshot",
    "render_report",
    "render_stream_report",
    "resolver_cache",
    "set_gauge",
    "span",
    "task",
    "write_chrome_trace",
    "write_metrics",
    "write_trace",
]
