"""Observability: tracing + metrics + audit events over the pipeline.

One :class:`Observability` bundle (a tracer, a metrics registry and a
structured event log) threads through the whole VMI -> Searcher ->
Parser -> Checker -> daemon pipeline. The default is :data:`NULL_OBS` —
shared no-ops — so an un-instrumented run pays nothing; enable with::

    from repro.obs import make_observability
    obs = make_observability(hv.clock)
    mc = ModChecker(hv, profile, obs=obs)
    mc.check_pool("hal.dll")
    obs.metrics.write_prometheus("metrics.prom")
    obs.events.write_jsonl("audit.jsonl")
    # repro.analysis.export.write_chrome_trace(obs.tracer, "trace.json")

See ``docs/OBSERVABILITY.md`` for the span, metric and event
vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..hypervisor.clock import SimClock
from .bridge import (BREAKER_STATE_VALUES, STAGES, record_breaker_states,
                     record_daemon_cycle, record_fleet_cycle,
                     record_membership, record_pipeline_stats,
                     record_pool_report, record_slo_status,
                     record_stage_timings, record_stats,
                     record_vmi_instance)
from .events import EVENT_NAMES, NULL_EVENTS, Event, EventLog, NullEventLog
from .sinks import (SINK_NAMES, JsonlSink, NullSink, PromSink, Sink,
                    SinkError, StdoutSink, parse_sink, parse_sink_opts)
from .metrics import (DEFAULT_BUCKETS, NULL_METRICS, Counter, Gauge,
                      Histogram, MetricsRegistry, NullMetrics)
from .profiler import PATH_SEP, Profile, ProfileNode
from .slo import (DEFAULT_OBJECTIVES, SLO_EXIT_CODES, LogHistogram,
                  ObjectiveStatus, SloConfig, SloEngine, SloObjective,
                  SloStatus, SloTracker)
from .trace import (NULL_TRACER, OP_NAMES, SPAN_NAMES, Charge, NullTracer,
                    Span, Tracer)

__all__ = [
    "Observability", "NULL_OBS", "make_observability",
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "SPAN_NAMES",
    "Charge", "OP_NAMES",
    "Profile", "ProfileNode", "PATH_SEP",
    "LogHistogram", "SloObjective", "SloConfig", "SloTracker",
    "SloEngine", "SloStatus", "ObjectiveStatus", "DEFAULT_OBJECTIVES",
    "SLO_EXIT_CODES",
    "MetricsRegistry", "NullMetrics", "NULL_METRICS",
    "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "EventLog", "NullEventLog", "NULL_EVENTS", "Event", "EVENT_NAMES",
    "STAGES", "BREAKER_STATE_VALUES", "record_stats",
    "record_stage_timings", "record_pool_report", "record_vmi_instance",
    "record_daemon_cycle", "record_breaker_states", "record_membership",
    "record_pipeline_stats", "record_fleet_cycle", "record_slo_status",
    "Sink", "NullSink", "StdoutSink", "JsonlSink", "PromSink",
    "SinkError", "parse_sink", "parse_sink_opts", "SINK_NAMES",
]


@dataclass(frozen=True)
class Observability:
    """Tracer + metrics + event log travelling together through the stack."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry | NullMetrics
    events: EventLog | NullEventLog = field(default=NULL_EVENTS)

    @property
    def enabled(self) -> bool:
        """True when any side will actually record anything."""
        return (self.tracer.enabled or self.metrics.enabled
                or self.events.enabled)


#: The zero-cost default: no-op tracer, no-op metrics, no-op events.
NULL_OBS = Observability(tracer=NULL_TRACER, metrics=NULL_METRICS)


def make_observability(clock: SimClock, *,
                       events_capacity: int = 65536,
                       events_sink: str | Path | None = None,
                       ) -> Observability:
    """A live bundle recording against ``clock``.

    ``events_sink`` opens a write-through JSONL file for the audit log
    (complete even after the in-memory ring evicts).
    """
    return Observability(tracer=Tracer(clock), metrics=MetricsRegistry(),
                         events=EventLog(clock, capacity=events_capacity,
                                         sink=events_sink))
