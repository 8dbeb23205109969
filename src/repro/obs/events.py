"""Structured audit log: JSON-lines events on the simulated clock.

Tracing (:mod:`repro.obs.trace`) answers *where the time went*; metrics
(:mod:`repro.obs.metrics`) answer *how much of everything happened*.
Neither answers the forensic question an incident responder asks after
an alert fires: *what exactly happened, in what order, and was it all
part of the same check?* This module supplies that third pillar: an
:class:`EventLog` of discrete, structured events with **correlation
IDs**, so every record produced during one daemon cycle — the chaos
event that rebooted a guest, the breaker that tripped, the pair
comparisons, the verdict, the alert — is joinable into one causal
story.

Event names are a closed vocabulary (:data:`EVENT_NAMES`), mirroring
the closed span vocabulary, so downstream tooling (the CI vocabulary
lint, dashboards, the evidence bundles of :mod:`repro.forensics`) can
rely on them:

=======================  ==============================================
``check.start``          one pool/target check begins
``check.verdict``        that check's verdict landed
``pair.compared``        one pairwise module comparison
``module.acquired``      Searcher+Parser outcome for one VM
``module.carved``        one anti-DKOM carving sweep of one VM
``breaker.tripped``      a VM's circuit breaker opened
``membership.changed``   a VM was admitted / evicted / seen rebooting
``chaos.applied``        the chaos engine applied a lifecycle event
``alert.raised``         the daemon raised an alert
``daemon.cycle``         one daemon sweep cycle completed
``manifest.hit``         incremental sweep validated a cached manifest
``manifest.invalidated`` manifests dropped (reason in the attrs)
``trap.protected``       a manifest's pages were write-protected
``trap.delivered``       coalesced write traps drained for one VM
``trap.fallback``        trap validation fell back to sweep work
``fleet.cycle``          one fleet scheduler round over all shards
``shard.changed``        a shard was created / retired / admitted / evicted
``quorum.borrowed``      a starved shard borrowed sibling references
``repair.attempted``     one write-back attempt of a remediation
``repair.verified``      re-verification confirmed the repair clean
``repair.failed``        a repair attempt failed re-verification
``repair.quarantined``   retry budget spent; VM escalated to quarantine
``slo.breach``           an objective's burn rate went critical
``slo.budget``           an objective's error budget was exhausted
=======================  ==============================================

Correlation works through a context stack: the daemon mints one
``check_id`` per cycle and wraps the cycle in
:meth:`EventLog.correlate`; every ``emit`` inside — including the ones
made layers down in ModChecker, the integrity checker and the carving
sweep — inherits that id. A standalone ``check_pool`` call (no daemon)
mints its own. Timestamps come from the *simulated* clock and the log
carries a monotone sequence number, so for a fixed scenario seed two
runs serialise to byte-identical JSONL.

Retention is a bounded ring (``capacity`` events); an optional JSONL
file sink receives every event write-through, so the file is complete
even when the ring has evicted. The disabled path is
:data:`NULL_EVENTS`, a shared no-op whose ``emit`` does nothing — hot
call sites additionally guard on ``events.enabled`` so a disabled run
builds no attribute dicts at all.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import NamedTuple

from ..hypervisor.clock import SimClock

__all__ = ["EVENT_NAMES", "Event", "EventLog", "NullEventLog",
           "NULL_EVENTS"]

#: The closed event-name vocabulary of the audit log.
EVENT_NAMES = (
    "check.start", "check.verdict", "pair.compared", "module.acquired",
    "module.carved", "breaker.tripped", "membership.changed",
    "chaos.applied", "alert.raised", "daemon.cycle",
    "manifest.hit", "manifest.invalidated",
    "trap.protected", "trap.delivered", "trap.fallback",
    "fleet.cycle", "shard.changed", "quorum.borrowed",
    "repair.attempted", "repair.verified", "repair.failed",
    "repair.quarantined",
    "slo.breach", "slo.budget",
)
_NAMES = frozenset(EVENT_NAMES)


class Event(NamedTuple):
    """One audit-log record on the simulated clock (a flat tuple)."""

    time: float
    seq: int
    name: str
    check_id: str | None
    attrs: dict[str, object]

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
        if name not in _NAMES:
            raise ValueError(
                f"unknown event name {name!r}; the vocabulary is closed "
                f"(see repro.obs.events.EVENT_NAMES)")
        event = Event(self.clock.now, self._seq, name,
                      check_id or self.current_check, attrs)
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
        """The newest ``n`` retained events, oldest first."""
        return list(self._ring)[-n:] if n > 0 else []

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


class _NullCorrelation:
    """Reusable no-op correlation scope; one shared instance."""

    __slots__ = ()

    def __enter__(self) -> str:
        return ""

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CORRELATION = _NullCorrelation()


class NullEventLog:
    """Disabled audit log: every ``emit`` is a no-op.

    Hot call sites additionally guard on ``events.enabled`` so the
    disabled pipeline does not even build the attribute dicts.
    """

    enabled = False
    current_check = None
    sink_path = None

    def new_check_id(self) -> str:
        return ""

    def correlate(self, check_id: str) -> _NullCorrelation:
        return _NULL_CORRELATION

    def emit(self, name: str, *, check_id: str | None = None,
             **attrs: object) -> None:
        return None

    @property
    def events(self) -> list[Event]:
        return []

    def __len__(self) -> int:
        return 0

    def by_check(self, check_id: str) -> list[Event]:
        return []

    def by_name(self, name: str) -> list[Event]:
        return []

    def window(self, start: float, end: float) -> list[Event]:
        return []

    def tail(self, n: int) -> list[Event]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        # Stable spelling: this object appears as a default in public
        # signatures, and the generated API reference must not change
        # with the process's heap layout.
        return "NULL_EVENTS"


#: Shared no-op audit log — the default wired through the pipeline.
NULL_EVENTS = NullEventLog()
