"""Outside-in tracing: wrap public functions of each layer, keep spans.

The benchmark never edits ``src/``. It patches the public functions
named in :data:`HOOKS` (``module:qualname`` strings, resolved at run
time) with wrappers that time each call on ``perf_counter_ns`` and
attribute it to a layer. A wrapper keeps a stack of open spans, so a
layer's *self* time is its span time minus the time of hooked calls
beneath it; self times of all spans under an op therefore sum to the
op's traced time, and the remainder is benchmark glue.

Spec forms:

* ``pkg.mod:func`` — a module-level function, patched in its own module
  and at every ``repro`` import site that bound the same object;
* ``pkg.mod:Class.method`` — patched on the class;
* ``pkg.mod:prefix_*`` — every module-level function matching the glob;
* ``pkg.mod:MAPPING[*]`` — every callable value of a module-level dict
  (patched in the dict and at every import site of the function).

A spec that no longer resolves is reported in :attr:`Tracer.missing`
and never stops the run.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
import time
from pathlib import Path

__all__ = ["HOOKS", "COUNTERS", "LAYERS", "SETUP_LAYERS", "SIM_STAGES",
           "Tracer"]

#: (layer, spec). Order fixes the layer order in reports.
HOOKS: tuple[tuple[str, str], ...] = (
    ("testbed", "repro.guest.catalog:build_catalog"),
    ("testbed", "repro.hypervisor.xen:Hypervisor.create_guest"),
    ("cloud.fleet", "repro.cloud.fleet:Fleet.run_cycle"),
    ("cloud.fleet", "repro.cloud.fleet:Fleet.reconcile"),
    ("core.daemon", "repro.core.daemon:CheckDaemon.run_cycle"),
    ("core.modchecker", "repro.core.modchecker:ModChecker.check_pool"),
    ("core.modchecker", "repro.core.modchecker:ModChecker.fetch_modules"),
    ("core.modchecker",
     "repro.core.modchecker:ModChecker.pending_trap_modules"),
    ("core.modchecker",
     "repro.core.modchecker:ModChecker.invalidate_manifests"),
    ("core.searcher", "repro.core.searcher:ModuleSearcher.copy_module"),
    ("core.searcher", "repro.core.searcher:ModuleSearcher.list_modules"),
    ("core.searcher",
     "repro.core.searcher:ModuleSearcher.verify_cached_entry"),
    ("core.parser", "repro.core.parser:ModuleParser.parse"),
    ("core.rva", "repro.core.rva:ADJUSTERS[*]"),
    ("core.integrity",
     "repro.core.integrity:IntegrityChecker.compare_pair"),
    ("core.integrity", "repro.core.integrity:IntegrityChecker.check_pool"),
    ("core.integrity",
     "repro.core.integrity:IntegrityChecker.check_pool_canonical"),
    ("core.integrity", "repro.core.integrity:IntegrityChecker.vote"),
    ("core.integrity", "repro.core.integrity:IntegrityChecker.digest"),
    ("core.crossview", "repro.core.crossview:cross_view"),
    ("core.crossview",
     "repro.core.modchecker:ModChecker.identify_carved_modules"),
    ("vmi", "repro.vmi.core:VMIInstance.read_va"),
    ("vmi", "repro.vmi.core:VMIInstance.read_va_range_batch"),
    ("vmi", "repro.vmi.core:VMIInstance.read_u32"),
    ("vmi", "repro.vmi.core:VMIInstance.checksum_va_range"),
    ("vmi", "repro.vmi.core:VMIInstance.checksum_pages"),
    ("vmi", "repro.vmi.core:VMIInstance.drain_traps"),
    ("vmi", "repro.vmi.core:VMIInstance.protect_va_range"),
    ("vmi", "repro.vmi.core:VMIInstance.flush_caches"),
    ("mem", "repro.mem.paging:walk_batch"),
    ("mem", "repro.mem.paging:AddressTranslator.translate"),
    ("mem", "repro.mem.paging:AddressTranslator.translate_range"),
    ("hypervisor.read", "repro.hypervisor.xen:Hypervisor.read_guest_frame"),
    ("hypervisor.read",
     "repro.hypervisor.xen:Hypervisor.read_guest_frames"),
    ("hypervisor.read",
     "repro.hypervisor.xen:Hypervisor.checksum_guest_frame"),
    ("hypervisor.read",
     "repro.hypervisor.xen:Hypervisor.checksum_guest_frames"),
    ("hypervisor.read",
     "repro.hypervisor.xen:Hypervisor.protect_guest_frame"),
    ("hypervisor.read",
     "repro.hypervisor.xen:Hypervisor.unprotect_guest_frame"),
    ("hypervisor.charge", "repro.hypervisor.xen:Hypervisor.charge_dom0"),
    ("obs", "repro.obs.events:EventLog.emit"),
    ("obs", "repro.obs.trace:Tracer.charge"),
    ("obs", "repro.obs.bridge:record_*"),
)

#: (counter name, spec): call counts only, no span
COUNTERS: tuple[tuple[str, str], ...] = (
    ("hypervisor.guest_demand",
     "repro.hypervisor.xen:Hypervisor.guest_demand"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in HOOKS))
#: layers that run only while a workload is being built
SETUP_LAYERS = ("testbed",)

#: hooks whose spans also record the simulated Dom0 CPU they enclose:
#: the paper's three pipeline stages are differences of these
SIM_STAGES = ("repro.core.modchecker:ModChecker.check_pool",
              "repro.core.modchecker:ModChecker.fetch_modules",
              "repro.core.parser:ModuleParser.parse")

#: the modules whose import-site bindings a module-level hook patches
_IMPORT_ROOT = "repro"


def _no_sim() -> float:
    return 0.0


class _Frame:
    __slots__ = ("child_ns", "sid")

    def __init__(self, sid: int) -> None:
        self.child_ns = 0
        self.sid = sid


class Tracer:
    """Installs the hooks and accumulates per-hook calls and self time.

    Accumulators are per *phase* (``"setup"`` or ``"ops"``); span
    records are kept only while :attr:`keep` is set, so long runs stay
    bounded in memory.
    """

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        #: resolved hook names (``spec`` or ``spec[key]``), by index
        self.names: list[str] = []
        self.layers: list[str] = []
        #: spec -> reason it did not resolve
        self.missing: dict[str, str] = {}
        self.on = False
        self.keep = False
        self.op = -1
        self.sim = _no_sim
        self.spans: list[tuple] = []
        self.stack: list[_Frame] = []
        self.next_id = 0
        self.phases: dict[str, dict[str, list]] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.sim_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.probes: dict[str, int] = {}
        #: every VMIInstance constructed while installed
        self.vmis: list = []
        self._undo: list[tuple] = []

    # -- phases --------------------------------------------------------------

    def phase(self, name: str) -> None:
        """Switch accumulators (creating them on first use)."""
        acc = self.phases.get(name)
        if acc is None:
            n = len(self.names)
            acc = self.phases[name] = {
                "calls": [0] * n, "self_ns": [0] * n, "sim_s": [0.0] * n,
                "counts": dict.fromkeys(self.counts, 0),
                "probes": {"rva_bytes": 0, "rva_unresolved": 0}}
        self.calls, self.self_ns, self.sim_s = \
            acc["calls"], acc["self_ns"], acc["sim_s"]
        self.counts, self.probes = acc["counts"], acc["probes"]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Resolve and patch every hook; unresolvable ones go to missing."""
        for module in ("repro", "repro.cloud", "repro.core.crossview",
                       "repro.obs"):
            importlib.import_module(module)
        seen: set[int] = set()
        for layer, spec in self.hooks:
            try:
                targets = self._resolve(spec)
            except (ImportError, AttributeError, KeyError, TypeError,
                    ValueError) as exc:
                self.missing[spec] = f"{type(exc).__name__}: {exc}"
                continue
            for name, owner, attr, orig in targets:
                if id(orig) in seen:
                    continue
                seen.add(id(orig))
                idx = len(self.names)
                self.names.append(name)
                self.layers.append(layer)
                wrapper = self._wrap(idx, orig, sim=spec in SIM_STAGES,
                                     probe=self._rva_probe
                                     if layer == "core.rva" else None)
                self._patch(owner, attr, orig, wrapper)
        for counter, spec in COUNTERS:
            try:
                targets = self._resolve(spec)
            except (ImportError, AttributeError, KeyError, TypeError,
                    ValueError) as exc:
                self.missing[spec] = f"{type(exc).__name__}: {exc}"
                continue
            self.counts[counter] = 0
            for _, owner, attr, orig in targets:
                self._patch(owner, attr, orig, self._count(counter, orig))
        self._watch_vmi()
        self.phase("setup")

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()
        self.on = False

    def _resolve(self, spec: str) -> list[tuple[str, object, str, object]]:
        """``spec`` -> [(hook name, owner, attribute, original)]."""
        modname, _, qualname = spec.partition(":")
        if not qualname:
            raise ValueError(f"hook {spec!r} is not module:qualname")
        module = importlib.import_module(modname)
        if qualname.endswith("[*]"):
            mapping = getattr(module, qualname[:-3])
            if not isinstance(mapping, dict) or not mapping:
                raise TypeError(f"{qualname[:-3]} is not a non-empty dict")
            return [(f"{modname}:{qualname[:-3]}[{key}]", mapping, key, fn)
                    for key, fn in mapping.items() if callable(fn)]
        if "*" in qualname:
            names = sorted(n for n in vars(module)
                           if fnmatch.fnmatchcase(n, qualname)
                           and callable(getattr(module, n)))
            if not names:
                raise AttributeError(f"nothing in {modname} matches "
                                     f"{qualname!r}")
            return [(f"{modname}:{n}", module, n, getattr(module, n))
                    for n in names]
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        orig = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
        if not callable(orig):
            raise TypeError(f"{spec} is not callable")
        return [(spec, owner, attr, orig)]

    def _patch(self, owner, attr, orig, wrapper) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, orig))
            owner[attr] = wrapper
            owner = None
        elif isinstance(owner, type):
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it at every import site
        for name, module in list(sys.modules.items()):
            if module is None or not (name == _IMPORT_ROOT or
                                      name.startswith(_IMPORT_ROOT + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, key, orig))
                    setattr(module, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, idx: int, orig, *, sim: bool, probe):
        tr = self
        perf = time.perf_counter_ns

        @functools.wraps(orig)
        def hooked(*args, **kwargs):
            if not tr.on:
                return orig(*args, **kwargs)
            stack = tr.stack
            frame = _Frame(tr.next_id)
            tr.next_id += 1
            stack.append(frame)
            s0 = tr.sim() if sim else 0.0
            t0 = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tr.self_ns[idx] += dur - frame.child_ns
                tr.calls[idx] += 1
                if sim:
                    tr.sim_s[idx] += tr.sim() - s0
                parent = -1
                if stack:
                    stack[-1].child_ns += dur
                    parent = stack[-1].sid
                if tr.keep:
                    tr.spans.append((idx, t0, t1, frame.sid, parent, tr.op))
            if probe is not None:
                probe(args, result)
            return result

        return hooked

    def _rva_probe(self, args, result) -> None:
        self.probes["rva_bytes"] += len(args[0])
        self.probes["rva_unresolved"] += result[2].unresolved

    def _count(self, counter: str, orig):
        tr = self

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if tr.on:
                tr.counts[counter] += 1
            return orig(*args, **kwargs)

        return counted

    def _watch_vmi(self) -> None:
        """Collect every VMI session so its public stats can be summed."""
        from repro.vmi.core import VMIInstance
        orig = VMIInstance.__dict__["__init__"]
        sessions = self.vmis

        @functools.wraps(orig)
        def init(instance, *args, **kwargs):
            orig(instance, *args, **kwargs)
            sessions.append(instance)

        self._patch(VMIInstance, "__init__", orig, init)

    # -- reports -------------------------------------------------------------

    def by_layer(self, phase: str, what: str) -> dict[str, float]:
        values = self.phases.get(phase, {}).get(what, [])
        out = dict.fromkeys((layer for layer, _ in self.hooks), 0)
        for idx, value in enumerate(values):
            out[self.layers[idx]] += value
        return out

    def hook_value(self, phase: str, what: str, name: str):
        """One hook's accumulator (0 when the hook did not resolve)."""
        try:
            idx = self.names.index(name)
        except ValueError:
            return 0
        return self.phases.get(phase, {}).get(what, [0] * len(self.names))[idx]

    def write_chrome_trace(self, path: Path) -> None:
        """Kept spans as Chrome trace events (open in Perfetto)."""
        origin = min((s[1] for s in self.spans), default=0)
        events = [{"name": self.names[idx], "cat": self.layers[idx],
                   "ph": "X", "pid": 1, "tid": 1,
                   "ts": (t0 - origin) / 1000, "dur": (t1 - t0) / 1000,
                   "args": {"id": sid, "parent": parent, "op": op}}
                  for idx, t0, t1, sid, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
