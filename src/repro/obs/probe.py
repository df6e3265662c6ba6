"""The observer probe: one dispatch point for metrics, traces and sketches.

Instrumented code reports each campaign event with one call to the
module-level helpers here (:func:`inc`, :func:`event`, :func:`hydra`,
:func:`task`, ...).  They forward to the *active* probe, which fans the
call out to whichever sinks are subscribed: a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.stream.StreamAnalytics` engine.  The default probe is
:data:`NULL_PROBE`, whose methods do nothing, so an unobserved run pays
one global read plus one no-op call per event and stays bit-identical
to uninstrumented code.  Sites that build an attrs dict per event check
``get_probe().tracing`` first.

:func:`install` subscribes sinks for the duration of a ``with`` block::

    registry = MetricsRegistry()
    with obs.install(metrics=registry):
        with obs.phase("my-phase"):
            ...
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import TIME_BUCKETS

__all__ = [
    "NULL_PROBE",
    "NullProbe",
    "Probe",
    "bitswap",
    "event",
    "get_probe",
    "hydra",
    "inc",
    "install",
    "observe",
    "phase",
    "resolver_cache",
    "set_gauge",
    "span",
    "task",
]


class _NullSpan:
    """The stateless no-op span (reentrant; one shared instance)."""

    __slots__ = ()
    trace_id = 0
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def note(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: exec task lifecycle step -> (metrics counter, stream runtime note).
#: Completion order and retry counts depend on worker scheduling, so the
#: notes feed the live ``/status`` endpoint only, and the ``exec.*``
#: events are excluded from the deterministic trace view.
_TASK_STEPS = {
    "submit": ("exec.tasks", "exec.submitted"),
    "retry": ("exec.retries", "exec.retries"),
    "done": (None, "exec.completed"),
    "failed": ("exec.failures", None),
}


class Probe:
    """Fans every instrumentation call out to the subscribed sinks.

    Any of ``metrics``, ``tracer`` and ``stream`` may be ``None``; that
    channel then drops the call.
    """

    enabled = True

    def __init__(self, metrics=None, tracer=None, stream=None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.stream = stream
        #: whether events are recorded (the guard for attrs-building sites).
        self.tracing = tracer is not None

    def inc(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def observe(
        self, name: str, value: float, buckets: Optional[Sequence[float]] = None
    ) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, buckets)

    def set_gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(name, value)

    def event(self, name: str, **attrs: object) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    def span(self, name: str, **attrs: object):
        """A trace span; root spans open a new causal tree."""
        if self.tracer is not None:
            return self.tracer.span(name, **attrs)
        return _NULL_SPAN

    @contextmanager
    def phase(self, name: str, mark: bool = True) -> Iterator[None]:
        """Time a campaign phase into the metrics span path and, when
        ``mark`` is set, bracket it with ``phase.begin``/``phase.end``
        trace instants.

        Instants, not a span, on purpose: a root span would make the
        whole phase one causal tree, and trace sampling would then mute
        every lookup inside it wholesale.  With markers, each lookup,
        crawl and fetch stays its own tree, the granularity the sampler
        keys on.
        """
        tracer = self.tracer if mark else None
        with self.metrics.span(name) if self.metrics is not None else _NULL_SPAN:
            if tracer is not None:
                tracer.event("phase.begin", phase=name)
            try:
                yield
            finally:
                if tracer is not None:
                    tracer.event("phase.end", phase=name)

    def hydra(self, envelope) -> None:
        """One DHT request logged by the Hydra heads."""
        if self.metrics is not None:
            self.metrics.inc("hydra.messages_logged")
        if self.stream is not None:
            self.stream.observe_hydra(envelope)
        if self.tracer is not None:
            self.tracer.event(
                "hydra.request",
                mtype=envelope.message_type.value,
                relayed=envelope.via_relay is not None,
            )

    def bitswap(self, timestamp: float, node, cid, logged: bool) -> None:
        """One Bitswap want broadcast seen (and maybe logged) by the monitor."""
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("bitswap.broadcasts_seen")
            if logged:
                metrics.inc("bitswap.broadcasts_logged")
        if self.tracer is not None:
            self.tracer.event("bitswap.request", logged=logged)
        if logged and self.stream is not None:
            self.stream.observe_bitswap(timestamp, node, cid)

    def resolver_cache(self, hit: bool) -> None:
        """One lookup of the overlay's one-slot resolver cache."""
        if self.metrics is not None:
            self.metrics.inc(
                "netsim.resolver_cache_hits" if hit else "netsim.resolver_cache_misses"
            )
        if self.tracer is not None:
            self.tracer.event("resolver.cache", hit=hit)

    def task(
        self, step: str, task_id, seconds: Optional[float] = None, **attrs: object
    ) -> None:
        """One exec task lifecycle step (``submit``/``retry``/``done``/``failed``)."""
        counter, note = _TASK_STEPS[step]
        metrics = self.metrics
        if metrics is not None:
            if counter is not None:
                metrics.inc(counter)
            if seconds is not None:
                metrics.observe("exec.task_seconds", seconds, TIME_BUCKETS)
        if note is not None and self.stream is not None:
            self.stream.note(note)
        if self.tracer is not None:
            self.tracer.event("exec." + step, task=str(task_id), **attrs)


class NullProbe:
    """The disabled probe: every method does nothing."""

    enabled = False
    tracing = False
    metrics = tracer = stream = None

    def inc(self, name, amount=1) -> None:
        pass

    def observe(self, name, value, buckets=None) -> None:
        pass

    def set_gauge(self, name, value) -> None:
        pass

    def event(self, name, **attrs) -> None:
        pass

    def hydra(self, envelope) -> None:
        pass

    def bitswap(self, timestamp, node, cid, logged) -> None:
        pass

    def resolver_cache(self, hit) -> None:
        pass

    def task(self, step, task_id, seconds=None, **attrs) -> None:
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def phase(self, name: str, mark: bool = True) -> _NullSpan:
        return _NULL_SPAN


#: The process-wide disabled probe (shared, stateless).
NULL_PROBE = NullProbe()

_ACTIVE = NULL_PROBE


def get_probe():
    """The active probe (:data:`NULL_PROBE` unless one is installed)."""
    return _ACTIVE


@contextmanager
def install(metrics=None, tracer=None, stream=None) -> Iterator[object]:
    """Install a probe over the given sinks for the ``with`` block.

    With no sink given, the active probe stays in place, so a campaign
    with every channel off still reports to a probe its caller installed.
    """
    global _ACTIVE
    if metrics is None and tracer is None and stream is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = Probe(metrics, tracer, stream)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


# -- module-level helpers ------------------------------------------------------
# What the instrumented code calls: one global read plus one method call.


def inc(name: str, amount: float = 1) -> None:
    _ACTIVE.inc(name, amount)


def observe(name: str, value: float, buckets: Optional[Sequence[float]] = None) -> None:
    _ACTIVE.observe(name, value, buckets)


def set_gauge(name: str, value: float) -> None:
    _ACTIVE.set_gauge(name, value)


def event(name: str, **attrs: object) -> None:
    _ACTIVE.event(name, **attrs)


def span(name: str, **attrs: object):
    return _ACTIVE.span(name, **attrs)


def phase(name: str, mark: bool = True):
    return _ACTIVE.phase(name, mark)


def hydra(envelope) -> None:
    _ACTIVE.hydra(envelope)


def bitswap(timestamp: float, node, cid, logged: bool) -> None:
    _ACTIVE.bitswap(timestamp, node, cid, logged)


def resolver_cache(hit: bool) -> None:
    _ACTIVE.resolver_cache(hit)


def task(step: str, task_id, seconds: Optional[float] = None, **attrs: object) -> None:
    _ACTIVE.task(step, task_id, seconds, **attrs)
