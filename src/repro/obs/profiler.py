"""Cost-attribution profiler over the span + charge stream.

The tracer (:mod:`repro.obs.trace`) records *what happened*; this
module answers the ROADMAP's "profile first" question: **where did the
simulated microseconds go?** :class:`Profile` folds a finished
:class:`~repro.obs.trace.Tracer` into

* a **call tree** keyed by span *path* (``daemon.cycle;modchecker.check;
  modchecker.fetch;searcher.copy;vmi.read_page``) with call counts and
  inclusive / exclusive simulated time per node — exclusive times sum
  exactly to the root durations, so shares reconcile with the tracer's
  own stage sums by construction;
* a **per-(vm, module, op) cost attribution** built from the flat
  :class:`~repro.obs.trace.Charge` records: each cost-model charge is
  attributed to the innermost open span and its ``vm`` / ``module``
  attributes are resolved by walking the span's ancestry. Charges
  carry raw Dom0 CPU-seconds, so attribution stays correct inside
  deferred-charge scheduling (fleet mode), where span durations are
  zero because the simulated clock is frozen;
* exports: **collapsed-stack** text for ``flamegraph.pl`` / speedscope
  (one ``path weight`` line per node, weights in integer simulated
  microseconds), a **top-N hotspot table**, and a machine-readable
  JSON document (``modchecker-profile/1``).

Profiling costs nothing when disabled: it only ever *reads* a tracer,
and the :data:`~repro.obs.trace.NULL_TRACER` path records neither spans
nor charges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .trace import Span, Tracer

__all__ = ["PATH_SEP", "ProfileNode", "Profile"]

#: Separator between frame names in a node path (flamegraph.pl syntax).
PATH_SEP = ";"


@dataclass
class ProfileNode:
    """One call-tree node: all spans sharing one name path."""

    name: str
    path: str
    calls: int = 0
    #: summed simulated seconds inside these spans (children included)
    inclusive: float = 0.0
    #: inclusive minus the time spent in child spans
    exclusive: float = 0.0
    #: raw Dom0 CPU-seconds charged directly to these spans, per op
    op_cpu: dict[str, float] = field(default_factory=dict)
    #: charge-record count per op
    op_calls: dict[str, int] = field(default_factory=dict)
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    @property
    def cpu(self) -> float:
        """Raw CPU-seconds charged directly to this node (all ops)."""
        return sum(self.op_cpu.values())

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            path = f"{self.path}{PATH_SEP}{name}" if self.path else name
            node = self.children[name] = ProfileNode(name=name, path=path)
        return node

    def walk(self):
        """Yield this node then every descendant, depth-first."""
        yield self
        for name in sorted(self.children):
            yield from self.children[name].walk()

    def to_dict(self) -> dict:
        doc: dict[str, object] = {
            "name": self.name, "calls": self.calls,
            "inclusive": self.inclusive, "exclusive": self.exclusive,
        }
        if self.op_cpu:
            doc["op_cpu"] = {op: self.op_cpu[op]
                             for op in sorted(self.op_cpu)}
            doc["op_calls"] = {op: self.op_calls[op]
                               for op in sorted(self.op_calls)}
        if self.children:
            doc["children"] = [self.children[name].to_dict()
                               for name in sorted(self.children)]
        return doc


class Profile:
    """Aggregated where-did-the-time-go view of one traced run."""

    FORMAT = "modchecker-profile/1"

    def __init__(self) -> None:
        #: top-level call-tree nodes by span name
        self.roots: dict[str, ProfileNode] = {}
        #: (vm, module, op) -> [cpu_seconds, charge_count]; ``vm`` /
        #: ``module`` are ``""`` when no ancestor span names them
        self.attribution: dict[tuple[str, str, str], list] = {}
        #: charges whose span had already closed (should be none)
        self.unattributed_cpu: float = 0.0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Profile":
        """Fold a tracer's spans + charges into one profile."""
        profile = cls()
        by_id: dict[int, Span] = {s.span_id: s for s in tracer.spans}
        child_time: dict[int, float] = {}
        for span in tracer.spans:
            if span.parent_id is not None and span.finished:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration)

        node_of: dict[int, ProfileNode] = {}

        def node_for(span: Span) -> ProfileNode:
            node = node_of.get(span.span_id)
            if node is not None:
                return node
            if span.parent_id is None:
                node = profile.roots.get(span.name)
                if node is None:
                    node = profile.roots[span.name] = ProfileNode(
                        name=span.name, path=span.name)
            else:
                node = node_for(by_id[span.parent_id]).child(span.name)
            node_of[span.span_id] = node
            return node

        for span in tracer.spans:
            node = node_for(span)
            node.calls += 1
            node.inclusive += span.duration
            node.exclusive += max(
                0.0, span.duration - child_time.get(span.span_id, 0.0))

        for charge in tracer.charges:
            if charge.span_id is None or charge.span_id not in by_id:
                profile.unattributed_cpu += charge.cpu
                continue
            node = node_of.get(charge.span_id)
            if node is None:               # span never entered a tree
                profile.unattributed_cpu += charge.cpu
                continue
            node.op_cpu[charge.op] = (
                node.op_cpu.get(charge.op, 0.0) + charge.cpu)
            node.op_calls[charge.op] = node.op_calls.get(charge.op, 0) + 1
            vm = module = ""
            span: Span | None = by_id[charge.span_id]
            while span is not None:
                if not vm and "vm" in span.attrs:
                    vm = str(span.attrs["vm"])
                if not module and "module" in span.attrs:
                    module = str(span.attrs["module"])
                span = (by_id.get(span.parent_id)
                        if span.parent_id is not None else None)
            key = (vm, module, charge.op)
            slot = profile.attribution.setdefault(key, [0.0, 0])
            slot[0] += charge.cpu
            slot[1] += 1
        return profile

    # -- aggregates -------------------------------------------------------

    def nodes(self):
        """Every node, depth-first, roots in name order."""
        for name in sorted(self.roots):
            yield from self.roots[name].walk()

    @property
    def total_seconds(self) -> float:
        """Simulated seconds across all root spans."""
        return sum(r.inclusive for r in self.roots.values())

    @property
    def total_cpu_seconds(self) -> float:
        """Raw Dom0 CPU-seconds across every charge record."""
        return (sum(n.cpu for n in self.nodes()) + self.unattributed_cpu)

    def exclusive_by_name(self) -> dict[str, float]:
        """Summed exclusive seconds per span name, over the whole tree."""
        totals: dict[str, float] = {}
        for node in self.nodes():
            totals[node.name] = totals.get(node.name, 0.0) + node.exclusive
        return totals

    def cpu_by_op(self) -> dict[str, float]:
        """Summed raw CPU-seconds per charge op."""
        totals: dict[str, float] = {}
        for node in self.nodes():
            for op, cpu in node.op_cpu.items():
                totals[op] = totals.get(op, 0.0) + cpu
        return totals

    def stage_shares(self) -> dict[str, float]:
        """Each span name's share of total exclusive simulated time.

        Where no simulated time passed inside spans but Dom0 CPU was
        charged to them (a fleet round: charges are deferred, so span
        clocks are frozen), the shares weigh the CPU charged directly
        to each span name instead; all zeros only when neither moved.
        """
        totals = self.exclusive_by_name()
        if sum(totals.values()) <= 0.0:
            totals = dict.fromkeys(totals, 0.0)
            for node in self.nodes():
                totals[node.name] += node.cpu
        grand = sum(totals.values())
        if grand <= 0.0:
            return {name: 0.0 for name in totals}
        return {name: t / grand for name, t in totals.items()}

    def op_shares(self) -> dict[str, float]:
        """Each charge op's share of total raw CPU-seconds."""
        totals = self.cpu_by_op()
        grand = sum(totals.values())
        if grand <= 0.0:
            return {op: 0.0 for op in totals}
        return {op: cpu / grand for op, cpu in totals.items()}

    # -- exports ----------------------------------------------------------

    def collapsed(self, *, weight: str = "time") -> str:
        """Collapsed-stack text for ``flamegraph.pl`` / speedscope.

        One line per call-tree node: ``root;child;leaf <weight>``, with
        weights in integer simulated microseconds. ``weight="time"``
        uses exclusive simulated seconds (the sequential-pipeline
        view); ``weight="cpu"`` uses the node's raw charged
        CPU-seconds, which stays meaningful under deferred-charge
        scheduling where span durations are all zero.
        """
        if weight not in ("time", "cpu"):
            raise ValueError(f"unknown collapsed weight {weight!r}")
        lines = []
        for node in self.nodes():
            value = node.exclusive if weight == "time" else node.cpu
            micros = round(value * 1e6)
            if micros > 0:
                lines.append(f"{node.path} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str | Path, *,
                        weight: str = "time") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.collapsed(weight=weight))
        return path

    def hotspots(self, n: int = 10, *, weight: str = "time") -> list[dict]:
        """The ``n`` most expensive call-tree nodes, most costly first.

        Each row carries the node path, call count, inclusive /
        exclusive seconds, charged CPU-seconds, and the node's share of
        the profile total (by the chosen ``weight``).
        """
        if weight not in ("time", "cpu"):
            raise ValueError(f"unknown hotspot weight {weight!r}")

        def cost(node: ProfileNode) -> float:
            return node.exclusive if weight == "time" else node.cpu

        grand = sum(cost(node) for node in self.nodes())
        ranked = sorted(self.nodes(), key=cost, reverse=True)[:n]
        return [{"path": node.path, "calls": node.calls,
                 "inclusive": node.inclusive, "exclusive": node.exclusive,
                 "cpu": node.cpu,
                 "share": (cost(node) / grand) if grand > 0 else 0.0}
                for node in ranked if cost(node) > 0]

    def attribution_rows(self) -> list[dict]:
        """Per-(vm, module, op) charge totals, most CPU first."""
        rows = [{"vm": vm, "module": module, "op": op,
                 "cpu": cpu, "calls": calls}
                for (vm, module, op), (cpu, calls)
                in self.attribution.items()]
        rows.sort(key=lambda r: (-r["cpu"], r["vm"], r["module"], r["op"]))
        return rows

    def to_dict(self) -> dict:
        """The machine-readable JSON profile document."""
        return {
            "format": self.FORMAT,
            "total_seconds": self.total_seconds,
            "total_cpu_seconds": self.total_cpu_seconds,
            "stage_shares": dict(sorted(self.stage_shares().items())),
            "op_shares": dict(sorted(self.op_shares().items())),
            "hotspots": self.hotspots(10),
            "attribution": self.attribution_rows(),
            "tree": [self.roots[name].to_dict()
                     for name in sorted(self.roots)],
        }

    def write_json(self, path: str | Path, *, scenario: str | None = None,
                   ) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.to_dict()
        if scenario is not None:
            doc["scenario"] = scenario
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path
