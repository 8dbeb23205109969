"""Simulated-clock tracing: nested spans over :class:`SimClock`.

The paper's whole evaluation (Figs. 7-9) is a *where-does-the-time-go*
story — Module-Searcher vs. Module-Parser vs. Integrity-Checker, per VM
and per module. This module makes that breakdown a first-class,
machine-readable artifact: a :class:`Tracer` records nested spans with
simulated timestamps, and :func:`repro.analysis.export.write_chrome_trace`
turns them into a Chrome ``about:tracing`` / Perfetto-loadable JSON file.

Span names are a closed vocabulary (:data:`SPAN_NAMES`) so dashboards
and CI checks can rely on them:

========================  ====================================================
``vmi.read_page``         one foreign-frame map (cache misses only)
``retry.attempt``         one re-issued guest read after a transient fault
``searcher.walk``         one full PsLoadedModuleList traversal
``searcher.copy``         find + copy one module image out of one guest
``parser.parse``          Algorithm 1 over one copied image
``checker.compare``       the full vote/compare phase of one check
``modchecker.fetch``      the acquisition phase over a VM pool
``modchecker.check``      one end-to-end check (fetch + compare + vote)
``daemon.cycle``          one daemon sweep cycle
========================  ====================================================

Timestamps come from the *simulated* clock, so a trace is deterministic
for a given seed and reconciles exactly with the cost-model timing
breakdowns. The disabled path is :data:`NULL_TRACER`, a shared no-op
whose ``span()`` returns one reusable context manager — hot call sites
additionally guard on ``tracer.enabled`` so a disabled run builds no
attribute dicts at all.
"""

from __future__ import annotations

from typing import NamedTuple

from ..hypervisor.clock import SimClock

__all__ = ["SPAN_NAMES", "OP_NAMES", "Span", "Charge", "Tracer",
           "NullTracer", "NULL_TRACER"]

#: The span vocabulary emitted by the instrumented pipeline.
SPAN_NAMES = (
    "vmi.read_page", "retry.attempt", "searcher.walk", "searcher.copy",
    "parser.parse", "checker.compare", "modchecker.fetch",
    "modchecker.check", "daemon.cycle",
)

#: The op vocabulary of cost-model charge records (closed, like
#: :data:`SPAN_NAMES`). Each name maps one :class:`~repro.perf.costmodel.
#: CostModel` charge site in :class:`~repro.vmi.core.VMIInstance`,
#: :class:`~repro.core.parser.ModuleParser` or
#: :class:`~repro.core.integrity.IntegrityChecker`:
#:
#: ==================  ==================================================
#: ``page_translate``  one guest page-table walk (``translate_walk``)
#: ``page_copy``       one foreign-frame map + copy-out (``page_map``)
#: ``page_checksum``   one hypervisor-side page digest
#: ``page_protect``    one frame armed with EPT write-protection
#: ``trap_deliver``    coalesced write traps drained (per-trap cost)
#: ``page_write``      one privileged remediation frame write
#: ``small_read``      one sub-page read / trap-ring poll
#: ``retry_probe``     one re-issued read after a transient fault
#: ``parse``           Algorithm 1 over one copy (``parse_per_byte``)
#: ``compare``         one pair or canonical-member comparison
#: ==================  ==================================================
OP_NAMES = (
    "page_translate", "page_copy", "page_checksum", "page_protect",
    "trap_deliver", "page_write", "small_read", "retry_probe", "parse",
    "compare",
)
_OPS = frozenset(OP_NAMES)


class Charge(NamedTuple):
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


class Span:
    """One timed region on the simulated clock; its own context manager.

    Created by :meth:`Tracer.span`, which takes the id, the parent (the
    innermost open span) and the start time; entering pushes it onto
    the tracer, exiting stamps ``end``.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, object]) -> None:
        stack = tracer._stack
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent_id: int | None = stack[-1].span_id if stack else None
        self.start: float = tracer.clock.now
        self.end: float | None = None
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self._tracer.spans.append(self)
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer.clock.now
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

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
        #: ``(op, cpu, span_id)`` per charge: plain tuples of atoms, which
        #: the cycle collector stops tracking (see :attr:`charges`)
        self._charges: list[tuple] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def _pop(self, span: Span) -> None:
        # Exits happen strictly LIFO (context managers), but be tolerant
        # of a caller that leaks an un-exited span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- public API ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span; ``with tracer.span(...) as s`` yields the Span."""
        return Span(self, name, attrs)

    def charge(self, op: str, cpu: float) -> None:
        """Record one cost-model charge against the innermost open span.

        ``op`` must be in :data:`OP_NAMES`; ``cpu`` is raw Dom0
        CPU-seconds (pre-contention). Hot call sites guard on
        ``tracer.enabled`` so a disabled run never reaches here.
        """
        if op not in _OPS:
            raise ValueError(
                f"unknown charge op {op!r}; the vocabulary is closed "
                f"(see repro.obs.trace.OP_NAMES)")
        stack = self._stack
        self._charges.append((op, cpu, stack[-1].span_id if stack else None))

    @property
    def charges(self) -> list[Charge]:
        """Every cost-model charge recorded, in emission order."""
        return list(map(Charge._make, self._charges))

    def total_by_op(self) -> dict[str, float]:
        """Summed raw CPU-seconds per charge op."""
        totals: dict[str, float] = {}
        for op, cpu, _ in self._charges:
            totals[op] = totals.get(op, 0.0) + cpu
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
        self._charges.clear()
        self._stack.clear()


class _NullSpanContext:
    """Reusable no-op span context; one shared instance, zero state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpanContext":
        return self

    # mimic the Span surface a caller might poke at
    attrs: dict[str, object] = {}


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same shared no-op.

    Hot call sites (per-page reads) additionally guard on
    ``tracer.enabled`` so the disabled pipeline does not even build the
    keyword-attribute dicts.
    """

    enabled = False
    spans: list[Span] = []          # always empty; shared, never mutated
    charges: list[Charge] = []      # likewise

    def span(self, name: str, **attrs: object) -> _NullSpanContext:
        return _NULL_SPAN

    def charge(self, op: str, cpu: float) -> None:
        pass

    def total_by_op(self) -> dict[str, float]:
        return {}

    @property
    def active(self) -> None:
        return None

    def finished_spans(self) -> list[Span]:
        return []

    def total_by_name(self) -> dict[str, float]:
        return {}

    def clear(self) -> None:
        pass


#: Shared no-op tracer — the default wired through the whole pipeline.
NULL_TRACER = NullTracer()
