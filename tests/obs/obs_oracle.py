"""The observability records as they stood before the flat-record change.

These are the tracer and audit-log classes that the tuple-backed
records of :mod:`repro.obs.trace` and :mod:`repro.obs.events` replaced:
a frozen-dataclass :class:`Charge` per cost-model charge, a dataclass
:class:`Span` entered through a separate :class:`_SpanContext`, and a
frozen-dataclass :class:`Event` per audit record. They are kept
verbatim as a differential oracle: a pipeline wired with
:class:`Tracer` and :class:`EventLog` from here must serialise to the
same events JSONL, profile, Chrome trace and metrics, and leave the
same clock, as one wired with the live classes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.hypervisor.clock import SimClock
from repro.obs.events import EVENT_NAMES
from repro.obs.trace import OP_NAMES

__all__ = ["Span", "Charge", "Tracer", "Event", "EventLog"]


@dataclass
class Span:
    """One timed region on the simulated clock."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds inside the span (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def category(self) -> str:
        """The dotted prefix, e.g. ``vmi`` for ``vmi.read_page``."""
        return self.name.split(".", 1)[0]

    def set(self, **attrs: object) -> "Span":
        """Attach attributes after entry (e.g. counts known at exit)."""
        self.attrs.update(attrs)
        return self


@dataclass(frozen=True)
class Charge:
    """One cost-model charge, tagged with the innermost open span.

    Charges are *flat* records of raw Dom0 CPU-seconds, independent of
    the simulated clock's contention stretch — so they stay valid even
    inside :meth:`~repro.hypervisor.xen.Hypervisor.deferred_charges`
    contexts (fleet / parallel scheduling), where span durations are
    zero because the clock is frozen. The profiler
    (:mod:`repro.obs.profiler`) attributes each charge to a (vm,
    module, op) triple by walking the tagged span's ancestry.
    """

    op: str
    cpu: float
    span_id: int | None


class _SpanContext:
    """Context manager created by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, object]) -> None:
        self.tracer = tracer
        self.span = Span(name=name, span_id=tracer._take_id(),
                         parent_id=tracer._parent_id(),
                         start=tracer.clock.now, attrs=attrs)

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = self.tracer.clock.now
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self.span)
        return False


class Tracer:
    """Records nested :class:`Span` regions against one simulated clock.

    Usage::

        tracer = Tracer(hv.clock)
        with tracer.span("searcher.walk", vm="Dom1") as s:
            ...
            s.set(entries=10)
        tracer.spans          # all spans, in start order
    """

    enabled = True

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        #: every span ever started, in start order
        self.spans: list[Span] = []
        #: every cost-model charge recorded, in emission order
        self.charges: list[Charge] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # -- bookkeeping for _SpanContext -----------------------------------

    def _take_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _parent_id(self) -> int | None:
        return self._stack[-1].span_id if self._stack else None

    def _push(self, span: Span) -> None:
        self.spans.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Exits happen strictly LIFO (context managers), but be tolerant
        # of a caller that leaks an un-exited span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- public API ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a span; ``with tracer.span(...) as s`` yields the Span."""
        return _SpanContext(self, name, attrs)

    def charge(self, op: str, cpu: float) -> None:
        """Record one cost-model charge against the innermost open span.

        ``op`` must be in :data:`OP_NAMES`; ``cpu`` is raw Dom0
        CPU-seconds (pre-contention). Hot call sites guard on
        ``tracer.enabled`` so a disabled run never reaches here.
        """
        if op not in OP_NAMES:
            raise ValueError(
                f"unknown charge op {op!r}; the vocabulary is closed "
                f"(see repro.obs.trace.OP_NAMES)")
        span_id = self._stack[-1].span_id if self._stack else None
        self.charges.append(Charge(op=op, cpu=cpu, span_id=span_id))

    def total_by_op(self) -> dict[str, float]:
        """Summed raw CPU-seconds per charge op."""
        totals: dict[str, float] = {}
        for c in self.charges:
            totals[c.op] = totals.get(c.op, 0.0) + c.cpu
        return totals

    @property
    def active(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.finished]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def total_by_name(self) -> dict[str, float]:
        """Summed duration per span name (finished spans only)."""
        totals: dict[str, float] = {}
        for s in self.finished_spans():
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
        return totals

    def clear(self) -> None:
        self.spans.clear()
        self.charges.clear()
        self._stack.clear()




@dataclass(frozen=True)
class Event:
    """One audit-log record on the simulated clock."""

    time: float
    seq: int
    name: str
    check_id: str | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """The dotted prefix, e.g. ``chaos`` for ``chaos.applied``."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        doc: dict[str, object] = {"t": self.time, "seq": self.seq,
                                  "event": self.name}
        if self.check_id:
            doc["check_id"] = self.check_id
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    def to_json(self) -> str:
        """One deterministic JSONL line (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


class _Correlation:
    """Context manager pushing one check_id onto the log's stack."""

    __slots__ = ("log", "check_id")

    def __init__(self, log: "EventLog", check_id: str) -> None:
        self.log = log
        self.check_id = check_id

    def __enter__(self) -> str:
        self.log._stack.append(self.check_id)
        return self.check_id

    def __exit__(self, *exc) -> bool:
        self.log._stack.pop()
        return False


class EventLog:
    """Bounded, correlated audit log against one simulated clock.

    Usage::

        events = EventLog(hv.clock, sink="audit.jsonl")
        cid = events.new_check_id()
        with events.correlate(cid):
            events.emit("check.start", module="hal.dll", vms=6)
            ...
        events.by_check(cid)     # the full causal record of that check
    """

    enabled = True

    def __init__(self, clock: SimClock, *, capacity: int = 65536,
                 sink: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._checks = 0
        self._stack: list[str] = []
        self._sink = None
        self.sink_path: Path | None = None
        if sink is not None:
            self.open_sink(sink)

    # -- correlation ------------------------------------------------------

    def new_check_id(self) -> str:
        """Mint the next correlation id (``chk-000001``, ...)."""
        self._checks += 1
        return f"chk-{self._checks:06d}"

    @property
    def current_check(self) -> str | None:
        """The innermost active correlation id, if any."""
        return self._stack[-1] if self._stack else None

    def correlate(self, check_id: str) -> _Correlation:
        """Scope: every ``emit`` inside inherits ``check_id``."""
        return _Correlation(self, check_id)

    # -- emission ---------------------------------------------------------

    def emit(self, name: str, *, check_id: str | None = None,
             **attrs: object) -> Event:
        """Record one event; the name must be in :data:`EVENT_NAMES`."""
        if name not in EVENT_NAMES:
            raise ValueError(
                f"unknown event name {name!r}; the vocabulary is closed "
                f"(see repro.obs.events.EVENT_NAMES)")
        event = Event(time=self.clock.now, seq=self._seq, name=name,
                      check_id=check_id or self.current_check,
                      attrs=attrs)
        self._seq += 1
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
        return event

    # -- queries ----------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        """The retained ring, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def by_check(self, check_id: str) -> list[Event]:
        """Every retained event correlated to ``check_id``."""
        return [e for e in self._ring if e.check_id == check_id]

    def by_name(self, name: str) -> list[Event]:
        return [e for e in self._ring if e.name == name]

    def window(self, start: float, end: float) -> list[Event]:
        """Retained events with ``start <= time <= end``."""
        return [e for e in self._ring if start <= e.time <= end]

    def tail(self, n: int) -> list[Event]:
        return list(self._ring)[-n:]

    # -- serialisation ----------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained ring as JSON lines (deterministic per seed)."""
        return "".join(e.to_json() + "\n" for e in self._ring)

    def write_jsonl(self, path: str | Path) -> Path:
        """Dump the retained ring to ``path`` as JSONL."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    def open_sink(self, path: str | Path) -> Path:
        """Open a write-through JSONL file sink (closing any old one).

        The sink receives every event at emit time, so it is complete
        even after the in-memory ring starts evicting.
        """
        self.close()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sink = path.open("w")
        self.sink_path = path
        return path

    def close(self) -> None:
        """Flush and close the file sink, if one is open."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
