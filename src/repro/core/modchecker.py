"""ModChecker — orchestration of Searcher → Parser → Integrity-Checker.

The top-level object a Dom0 operator uses (paper Fig. 1): attach to a
pool of guests through VMI, then either

* :meth:`check_on_vm` — verify one VM's copy of a module against the
  other ``t-1`` VMs (the linear-cost mode whose runtime the paper's
  Figs. 7/8 measure), or
* :meth:`check_pool` — cross-check every VM against every other and
  majority-vote each one (the detection experiments E1–E4), or
* :meth:`check_all_modules` — sweep the whole loaded-module list.

Component timings are taken from the simulated clock around each phase,
yielding the Searcher/Parser/Checker breakdown the paper plots. With
``workers>1`` (the paper's §V-C-1 parallel memory access) the same
pipeline runs each phase with charges deferred, cuts the work into
per-VM fetch chains and per-pair comparisons, and advances the clock
once by their makespan over the modelled Dom0 threads.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..counters import Series, alias, declare, fold
from ..errors import (DomainNotFound, InsufficientPool, IntrospectionFault,
                      ModuleNotLoadedError, RetryExhausted, TransientFault,
                      VMIInitError)
from ..hypervisor.xen import Hypervisor
from ..mem.physical import PAGE_SIZE
from ..obs import (NULL_OBS, Observability, record_pipeline_stats,
                   record_pool_report, record_stage_timings, record_stats,
                   record_vmi_instance)
from ..perf.costmodel import DEFAULT_COST_MODEL
from ..perf.timing import ComponentTimings
from ..vmi.cache import CheckManifest, LRUCache, ManifestStore
from ..vmi.core import VMIInstance, VMIStats
from ..vmi.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..vmi.symbols import OSProfile
from .integrity import CanonicalRecord, IntegrityChecker
from .parser import ModuleParser, ParsedModule
from .report import PairComparison, PoolReport, VMCheckReport
from .searcher import ModuleSearcher

if TYPE_CHECKING:
    from ..forensics.evidence import EvidenceRecorder

__all__ = ["ModChecker", "CheckerStats", "CheckOutcome", "PoolOutcome",
           "FetchResult"]


def _page_digests(image: bytes) -> tuple[bytes, ...]:
    """Per-page MD5 digests of a local image buffer.

    Must agree with :meth:`Hypervisor.checksum_guest_frame` over the
    same content, so a short tail chunk is zero-padded to a full page
    (the guest loader zero-fills the remainder of the last frame).
    """
    out = []
    for off in range(0, len(image), PAGE_SIZE):
        chunk = image[off:off + PAGE_SIZE]
        if len(chunk) < PAGE_SIZE:
            chunk = chunk + b"\x00" * (PAGE_SIZE - len(chunk))
        out.append(hashlib.md5(chunk).digest())
    return tuple(out)


def _content_key(base: int, size: int, digests: tuple[bytes, ...]) -> str:
    """The content address of one acquisition: digest over (placement,
    per-page digests). Two copies share a key iff their bytes *and*
    load base agree — exactly the inputs ``compare_pair`` is a pure
    function of, which is what makes pair replay sound."""
    h = hashlib.md5(f"{base:#x}:{size:#x}".encode())
    for digest in digests:
        h.update(digest)
    return h.hexdigest()


@declare(
    Series("modchecker_pair_replays_total",
           "Pairwise comparisons served from the content-keyed "
           "replay cache", "pair_replays"),
    traps=(
        Series("modchecker_trap_validations_total",
               "Manifest validations satisfied purely by trap evidence",
               "trap_validations"),
        Series("modchecker_trap_pages_checked_total",
               "Pages re-digested because traps (or unprotectable pages) "
               "named them", "trap_pages_checked"),
        Series("modchecker_trap_fallbacks_total",
               "Trap validations that fell back to sweep work, by reason",
               "trap_fallbacks", by="reason")))
@dataclass
class CheckerStats:
    """A checker's cumulative replay and trap-path counters.

    ``trap_fallbacks`` reasons: ``exhausted`` / ``paranoia`` /
    ``lifecycle`` / ``unprotectable``.
    """

    #: pairwise comparisons served from the replay cache
    pair_replays: int = 0
    trap_validations: int = 0
    trap_pages_checked: int = 0
    trap_fallbacks: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _AcqMeta:
    """Per-VM bookkeeping for one fetch round (incremental mode)."""

    ldr_entry_va: int
    base: int
    size: int
    boot_generation: int
    digests: tuple[bytes, ...]
    content_key: str
    parsed: ParsedModule
    from_manifest: bool


@dataclass
class _Protection:
    """Armed write-protection state for one (vm, module) manifest.

    ``page_gfns`` parallels the manifest's ``page_digests`` (None =
    unprotectable, stays on the sweep path); ``guard_gfns`` cover the
    LDR entry node and both list neighbours, so any relink that
    :meth:`ModuleSearcher.verify_cached_entry` could catch necessarily
    raises a trap first — which is what makes *skipping* the entry
    re-verify on trap silence sound.
    """

    base: int
    size: int
    boot_generation: int
    #: the domain's protection_epoch at arm time; a mismatch later
    #: means a lifecycle event disarmed everything behind our back
    epoch: int
    page_gfns: tuple[int | None, ...]
    #: gfn -> manifest page index (protected pages only)
    page_index: dict[int, int]
    #: manifest page indices that could not be armed (swept every round)
    unprotected: tuple[int, ...]
    #: guard frames, with multiplicity (protections are refcounted)
    guard_gfns: tuple[int, ...]
    dirty_pages: set[int] = field(default_factory=set)
    guard_dirty: bool = False
    #: the trap ring overflowed since our last look: silence proves
    #: nothing, the next validation must sweep everything
    overflowed: bool = False
    validations: int = 0


@dataclass
class CheckOutcome:
    """A single-target check plus its component timing breakdown."""

    report: VMCheckReport
    timings: ComponentTimings
    per_vm_searcher: dict[str, float] = field(default_factory=dict)


@dataclass
class PoolOutcome:
    """A full pool cross-check plus its timing breakdown.

    ``remediations`` carries one :class:`~repro.core.repair.
    RemediationRecord` per flagged VM when a repair policy is active
    (empty under ``detect-only`` and for the repair engine's own
    re-verification checks).
    """

    report: PoolReport
    timings: ComponentTimings
    per_vm_searcher: dict[str, float] = field(default_factory=dict)
    remediations: list = field(default_factory=list)


class FetchResult(NamedTuple):
    """Outcome of the acquisition phase over a VM pool.

    ``failed`` maps VMs whose copy could not be acquired to a reason
    string prefixed with a category: ``retry-exhausted:`` when the
    retry budget was spent on transient faults (the VM is likely sick —
    quarantine material), ``unreadable:`` for a permanent introspection
    failure of this one module (e.g. a decoy entry's unbacked DllBase).
    VMs that simply do not have the module loaded appear in neither
    ``parsed`` nor ``failed``. Prefer ``parsed, *rest = fetch_modules(...)``
    when only the copies matter.
    """

    parsed: list[ParsedModule]
    timings: ComponentTimings
    per_vm_searcher: dict[str, float]
    failed: dict[str, str]


class ModChecker:
    """Kernel-module integrity checker over a pool of cloned guests."""

    def __init__(self, hypervisor: Hypervisor,
                 profile: OSProfile | None = None, *,
                 rva_mode: str = "robust",
                 hash_algorithm: str = "md5",
                 enable_caches: bool = True,
                 flush_caches_each_round: bool = True,
                 retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
                 obs: Observability = NULL_OBS,
                 evidence: "EvidenceRecorder | None" = None,
                 incremental: bool = False,
                 recheck_ttl: float | None = None,
                 event_driven: bool = False,
                 paranoia_every: int | None = 64,
                 repair_policy: str = "detect-only",
                 repair_max_attempts: int = 3,
                 batch: bool = True,
                 members: "Callable[[], list[str]] | None" = None,
                 workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.hv = hypervisor
        #: modelled Dom0 threads per check: 1 charges the clock as work
        #: happens (the paper's sequential checker); N > 1 packs each
        #: check's fetch chains and comparisons onto N threads
        self.workers = workers
        self._span_attrs = {"workers": workers} if workers > 1 else {}
        #: the open phase's deferred-charge accumulator (workers > 1)
        self._deferred = None
        #: vectorised acquisition for every VMI session this checker
        #: opens; ``batch=False`` pins the pool to the scalar reference
        #: path (the differential harness's control arm)
        self.batch = batch
        #: optional membership closure: when set, the checker's pool is
        #: whatever names the closure returns *right now* instead of
        #: every guest on the hypervisor. This is how a fleet shard
        #: scopes its checker to the shard's own VMs while sharing one
        #: hypervisor with every sibling shard; a daemon over this
        #: checker watches the same names.
        self.members = members
        if profile is None:
            guests = hypervisor.guests()
            if not guests:
                raise InsufficientPool("no guests to derive a profile from")
            profile = OSProfile.from_guest(guests[0].kernel)
        self.profile = profile
        self.costs = DEFAULT_COST_MODEL
        self.enable_caches = enable_caches
        self.flush_caches_each_round = flush_caches_each_round
        self.retry = retry
        self.obs = obs
        #: forensic capture hook; bundles materialise only when a pool
        #: verdict is non-clean, so the clean path never pays for it
        self.evidence = evidence
        #: incremental mode: content-addressed manifests let unchanged
        #: modules skip the walk/copy/parse/compare pipeline entirely
        self.incremental = incremental or event_driven
        #: event-driven mode (implies incremental): committed manifests
        #: write-protect their pages, and later validations check only
        #: what trapped — O(writes) instead of O(pages) at steady state
        self.event_driven = event_driven
        #: force a full entry-verify + sweep every N trap validations
        #: (None/0 disables): a cheap hedge against any write path the
        #: trap model does not observe
        self.paranoia_every = paranoia_every
        #: (vm, module) -> armed protection state
        self._protections: dict[tuple[str, str], _Protection] = {}
        #: replay and trap-path accounting (cumulative; published by
        #: the metrics, folded over shards by a fleet)
        self.stats = CheckerStats()
        self.recheck_ttl = recheck_ttl
        self.manifests = ManifestStore(ttl=recheck_ttl)
        #: the replay store of both pool votes (see :meth:`_replay`):
        #: (module, vm_a, vm_b) -> (key_a, key_b, PairComparison) and
        #: ("canonical", module, counterpart, member) -> (key_c, key_m,
        #: CanonicalRecord); replayed only when both content keys still
        #: match, so a stale entry is unreachable rather than evicted
        self._pair_cache: LRUCache[tuple, tuple] = LRUCache(8192)
        #: per-fetch acquisition metadata, reset by every fetch round
        self._acq_meta: dict[str, _AcqMeta] = {}
        #: each VM's searcher + parser work in the last fetch round, on
        #: the phase meter: the fetch items of a workers > 1 makespan
        self._fetch_work: dict[str, float] = {}
        self._vmis: dict[str, VMIInstance] = {}
        #: per-VM counters folded in from retired sessions, so the
        #: cumulative VMI metrics survive re-attach (reboot churn)
        #: without ever running backwards
        self._vmi_stats_base: dict[str, "VMIStats"] = {}
        #: VMs whose live session was opened as a borrowed reference (a
        #: scoped checker voting a sibling shard's VM): their per-VM
        #: series belong to the home shard, so a retired borrowed
        #: session folds into nothing this checker publishes
        self._borrowed: set[str] = set()
        self.parser = ModuleParser(charge=self._charge, obs=obs)
        self.checker = IntegrityChecker(rva_mode=rva_mode,
                                        hash_algorithm=hash_algorithm,
                                        charge=self._charge, obs=obs)
        # Imported here, not at module top: repair pulls in the
        # forensics package, whose bundle machinery reaches back into
        # core types.
        from .repair import REPAIR_POLICIES, RepairEngine
        if repair_policy not in REPAIR_POLICIES:
            raise ValueError(f"unknown repair policy {repair_policy!r}; "
                             f"expected one of {REPAIR_POLICIES}")
        #: "detect-only" keeps verdicts as alerts; "repair" and
        #: "quarantine-on-repeat-failure" attach a RepairEngine that
        #: writes flagged modules back to the majority's clean image
        self.repair_policy = repair_policy
        self.repair: RepairEngine | None = None
        if repair_policy != "detect-only":
            self.repair = RepairEngine(
                self, max_attempts=repair_max_attempts,
                quarantine=repair_policy == "quarantine-on-repeat-failure")
        #: re-entrancy guard: the repair engine's re-verification runs
        #: through check_pool and must not trigger nested remediation
        #: (or a second evidence capture for the same incident)
        self._in_repair = False

    #: ``stats`` counters ``bench/`` reads off the checker itself
    pair_replays = alias("pair_replays")
    trap_fallbacks = alias("trap_fallbacks")

    def _charge(self, cpu_seconds: float) -> None:
        self.hv.charge_dom0(cpu_seconds)

    # -- VMI session management ------------------------------------------------------

    def _retire_vmi(self, vm_name: str) -> None:
        """Drop a session, preserving its counters for the metrics."""
        vmi = self._vmis.pop(vm_name, None)
        if vmi is None:
            return
        if vm_name in self._borrowed:
            self._borrowed.discard(vm_name)
            return
        self._vmi_stats_base[vm_name] = fold(
            self._vmi_stats_base.get(vm_name, VMIStats()), vmi.stats)

    def vmi_for(self, vm_name: str) -> VMIInstance:
        vmi = self._vmis.get(vm_name)
        if vmi is not None and self._vmi_stale(vm_name, vmi):
            self._retire_vmi(vm_name)
            vmi = None
        if vmi is None:
            vmi = VMIInstance(self.hv, vm_name, self.profile,
                              enable_caches=self.enable_caches,
                              retry=self.retry, batch=self.batch,
                              obs=self.obs)
            self._vmis[vm_name] = vmi
            if self.members is not None and vm_name not in self.members():
                self._borrowed.add(vm_name)
        return vmi

    def _vmi_stale(self, vm_name: str, vmi: VMIInstance) -> bool:
        """A cached session is stale when its guest rebooted (the CR3
        and page tables it captured at attach are gone) or the name now
        resolves to a different domain (destroy + create)."""
        try:
            domain = self.hv.domain(vm_name)
        except DomainNotFound:
            return True     # re-attach will raise VMIInitError cleanly
        return (domain is not vmi.domain
                or domain.boot_generation != vmi.boot_generation)

    # -- pool membership -------------------------------------------------------

    def admit_vm(self, vm_name: str) -> None:
        """A VM joined (or re-joined) the pool: drop any stale session.

        The next :meth:`vmi_for` re-attaches against the domain's
        current boot generation. Any manifests for the VM go too — an
        (re-)admission means we no longer know what is in its memory.
        """
        self._retire_vmi(vm_name)
        self.invalidate_manifests(vm_name, reason="admit")

    def evict_vm(self, vm_name: str) -> None:
        """A VM left the pool: release its introspection session."""
        self._retire_vmi(vm_name)
        self.invalidate_manifests(vm_name, reason="evict")

    # -- incremental manifests -------------------------------------------------

    def invalidate_manifests(self, vm_name: str | None = None,
                             module_name: str | None = None, *,
                             reason: str) -> int:
        """Drop cached manifests (all / one VM / one (vm, module)).

        The invalidation surface of the incremental pipeline: called on
        membership changes (``admit``/``evict``), on a flagged verdict
        (``flagged``), on content drift detected by the sweep
        (``page-delta``/``entry-moved``), and by the daemon on breaker
        trips (``breaker``) and migration completions (``migration``).
        Emits one ``manifest.invalidated`` audit event when anything
        was actually removed.
        """
        removed = self.manifests.invalidate(vm_name, module_name,
                                            reason=reason)
        # Protections exist to keep a manifest honest; a manifest that
        # no longer exists must not keep frames protected (and a
        # protection may outlive its manifest, e.g. LRU eviction, so
        # this does not condition on ``removed``). Only event-driven
        # mode ever arms one.
        for key in [k for k in self._protections
                    if (vm_name is None or k[0] == vm_name)
                    and (module_name is None or k[1] == module_name)]:
            self._drop_protection(*key)
        if removed:
            events = self.obs.events
            if events.enabled:
                events.emit("manifest.invalidated",
                            vm=vm_name or "*", module=module_name or "*",
                            reason=reason, entries=removed)
        return removed

    def _try_manifest(self, vmi: VMIInstance, searcher: ModuleSearcher,
                      module_name: str) -> ParsedModule | None:
        """The cached fast path for one VM, or None for full work.

        One validator serves both cached modes. A structurally valid
        manifest (generation + TTL, free) is the entry ticket. Then
        either the trap path validates it from write-trap evidence —
        when an armed protection's silence can be trusted — or the
        sweep gate does: the LDR entry still in place (six u32 reads)
        and the per-page checksum sweep (every page is observed; what
        the sweep skips is the copy/parse/compare machinery, not the
        looking). A passing sweep arms a protection in event-driven
        mode, or clears the flags of the one that forced the re-sweep.
        Incremental mode is this validator with arming off: nothing is
        ever armed, so every validation sweeps. Any mismatch
        invalidates and reports None, and the caller runs the full
        pipeline in the same round.
        """
        vm_name = vmi.domain.name
        manifest = self.manifests.lookup(
            vm_name, module_name,
            boot_generation=vmi.boot_generation, now=self.hv.clock.now)
        rec = self._live_protection(vmi, module_name, manifest)
        if manifest is None:
            return None
        if rec is not None:
            rec.validations += 1
            paranoia_due = bool(self.paranoia_every) \
                and rec.validations % self.paranoia_every == 0
            if not (rec.overflowed or paranoia_due):
                return self._trap_validate(vmi, searcher, module_name,
                                           manifest, rec)
            self._fallback(vm_name, module_name,
                           "exhausted" if rec.overflowed else "paranoia")
        if not (self._verify_entry(vmi, searcher, module_name, manifest)
                and self._pages_match(vmi, module_name, manifest)):
            return None
        if rec is not None:
            if rec.guard_dirty:
                self._refresh_guards(vmi, rec, manifest)
            rec.overflowed = False
            rec.guard_dirty = False
            rec.dirty_pages.clear()
        elif self.event_driven:
            self._arm_protection(vmi, module_name, manifest)
        return self._manifest_hit(vmi, module_name, manifest,
                                  pages=len(manifest.page_digests))

    def _verify_entry(self, vmi: VMIInstance, searcher: ModuleSearcher,
                      module_name: str, manifest: CheckManifest) -> bool:
        """The LDR entry still describes the same mapping."""
        if not searcher.verify_cached_entry(manifest.ldr_entry_va,
                                            dll_base=manifest.base,
                                            size_of_image=manifest.size):
            self.invalidate_manifests(vmi.domain.name, module_name,
                                      reason="entry-moved")
            return False
        return True

    def _pages_match(self, vmi: VMIInstance, module_name: str,
                     manifest: CheckManifest,
                     pages: set[int] | None = None) -> bool:
        """Re-digest ``pages`` (default: the full sweep) and compare."""
        try:
            if pages is None:
                matched = vmi.checksum_va_range(
                    manifest.base, manifest.size) == manifest.page_digests
            else:
                digests = vmi.checksum_pages(manifest.base, manifest.size,
                                             pages)
                matched = all(digest == manifest.page_digests[idx]
                              for idx, digest in digests.items())
        except (TransientFault, RetryExhausted):
            raise       # sick VM: the caller degrades it
        except IntrospectionFault:
            # a page of the recorded range no longer translates — a
            # content change as far as the manifest is concerned; fall
            # back to the full walk, which sees the current truth
            matched = False
        if not matched:
            self.invalidate_manifests(vmi.domain.name, module_name,
                                      reason="page-delta")
        return matched

    def _manifest_hit(self, vmi: VMIInstance, module_name: str,
                      manifest: CheckManifest, *,
                      pages: int) -> ParsedModule:
        """Serve a validated manifest (``pages`` = pages re-digested)."""
        self._acq_meta[vmi.domain.name] = _AcqMeta(
            ldr_entry_va=manifest.ldr_entry_va, base=manifest.base,
            size=manifest.size, boot_generation=manifest.boot_generation,
            digests=manifest.page_digests,
            content_key=manifest.content_key, parsed=manifest.parsed,
            from_manifest=True)
        events = self.obs.events
        if events.enabled:
            events.emit("manifest.hit", vm=vmi.domain.name,
                        module=module_name, pages=pages)
        return manifest.parsed

    # -- event-driven mode (write-protection traps) ----------------------------

    def _live_protection(self, vmi: VMIInstance, module_name: str,
                         manifest: CheckManifest | None,
                         ) -> _Protection | None:
        """The armed protection still vouching for ``manifest``, if any.

        Always None outside event-driven mode. Inside it, drains the
        VM's trap ring into the protections first, then drops a record
        armed against a different incarnation of the manifest or one a
        lifecycle event disarmed behind our back (a ``lifecycle``
        fallback: traps could not have fired, so its silence means
        nothing). A manifest miss drops the record without a drain.
        """
        if not self.event_driven:
            return None
        vm_name = vmi.domain.name
        if manifest is None:
            # generation/TTL/eviction miss: whatever was armed no
            # longer matches anything we can validate against
            self._drop_protection(vm_name, module_name)
            return None
        self.route_drained_traps(vm_name, *vmi.drain_traps())
        rec = self._protections.get((vm_name, module_name))
        if rec is None:
            return None
        if (rec.boot_generation != manifest.boot_generation
                or rec.base != manifest.base or rec.size != manifest.size):
            self._drop_protection(vm_name, module_name)
            return None
        if rec.epoch != vmi.domain.protection_epoch:
            self._fallback(vm_name, module_name, "lifecycle")
            self._drop_protection(vm_name, module_name)
            return None
        return rec

    def _trap_validate(self, vmi: VMIInstance, searcher: ModuleSearcher,
                       module_name: str, manifest: CheckManifest,
                       rec: _Protection) -> ParsedModule | None:
        """Validate from trap evidence: O(writes) instead of O(pages).

        A clean ring costs nothing beyond the drain. A guard trap
        re-runs the LDR entry verify; image traps re-digest exactly the
        written pages, plus any page that could never be armed
        (``unprotectable`` fallback).
        """
        if rec.guard_dirty:
            # someone wrote near the LDR node: re-run the entry verify
            # and re-derive the guards (the neighbours may have moved)
            if not self._verify_entry(vmi, searcher, module_name, manifest):
                return None
            self._refresh_guards(vmi, rec, manifest)
            rec.guard_dirty = False
        pages = rec.dirty_pages | set(rec.unprotected)
        if pages:
            if rec.unprotected:
                self._fallback(vmi.domain.name, module_name,
                               "unprotectable")
            if not self._pages_match(vmi, module_name, manifest, pages):
                return None
            self.stats.trap_pages_checked += len(pages)
            rec.dirty_pages.clear()
        self.stats.trap_validations += 1
        return self._manifest_hit(vmi, module_name, manifest,
                                  pages=len(pages))

    def route_drained_traps(self, vm_name: str, traps, overflowed: bool,
                            ) -> None:
        """Route one drained trap ring into every affected protection.

        Callers pass ``*vmi.drain_traps()``. Routing, not consumption:
        a guard page may back the LDR nodes of several modules and an
        overflow taints every protection on the VM, so each drained
        trap updates *all* matching records. The repair engine drains
        the ring itself (it needs the trap list to count writes racing
        its armed window) and hands the drain here so other modules'
        protections on the same VM still observe those writes.
        """
        if not traps and not overflowed:
            return
        for (rec_vm, _mod), rec in self._protections.items():
            if rec_vm != vm_name:
                continue
            if overflowed:
                rec.overflowed = True
            for trap in traps:
                idx = rec.page_index.get(trap.gfn)
                if idx is not None:
                    rec.dirty_pages.add(idx)
                if trap.gfn in rec.guard_gfns:
                    rec.guard_dirty = True
        events = self.obs.events
        if events.enabled:
            events.emit("trap.delivered", vm=vm_name, traps=len(traps),
                        writes=sum(t.writes for t in traps),
                        overflowed=overflowed)

    def _arm_protection(self, vmi: VMIInstance, module_name: str,
                        manifest: CheckManifest) -> None:
        """Write-protect a freshly validated manifest (best effort).

        Arms the image range plus the LDR guard pages. A guest that
        faults mid-arming simply stays on the sweep path — protections
        are an optimisation, never a correctness dependency.
        """
        vm_name = vmi.domain.name
        epoch = vmi.domain.protection_epoch
        try:
            page_gfns = vmi.protect_va_range(manifest.base, manifest.size)
            guard_gfns = self._protect_guards(vmi, manifest)
        except IntrospectionFault:
            self._drop_protection(vm_name, module_name)
            return
        rec = _Protection(
            base=manifest.base, size=manifest.size,
            boot_generation=manifest.boot_generation, epoch=epoch,
            page_gfns=page_gfns,
            page_index={gfn: i for i, gfn in enumerate(page_gfns)
                        if gfn is not None},
            unprotected=tuple(i for i, gfn in enumerate(page_gfns)
                              if gfn is None),
            guard_gfns=guard_gfns)
        self._protections[(vm_name, module_name)] = rec
        events = self.obs.events
        if events.enabled:
            events.emit("trap.protected", vm=vm_name, module=module_name,
                        pages=len(rec.page_index) + len(guard_gfns),
                        unprotectable=len(rec.unprotected))

    def _protect_guards(self, vmi: VMIInstance,
                        manifest: CheckManifest) -> tuple[int, ...]:
        """Arm the frames every ``verify_cached_entry`` read touches.

        The entry node (through its largest verified field) plus both
        neighbours' LIST_ENTRY heads: any relink the verify could
        detect must write one of these, so a clean ring soundly skips
        the verify. Returned with multiplicity — protections refcount,
        and shared frames must be released as many times as armed.
        """
        entry = manifest.ldr_entry_va
        entry_span = vmi.profile.offset("LDR_DATA_TABLE_ENTRY.size")
        succ = vmi.read_u32(entry)          # node.FLINK
        pred = vmi.read_u32(entry + 4)      # node.BLINK
        list_span = vmi.profile.offset("LIST_ENTRY.size")
        gfns: list[int] = []
        for va, span in ((entry, entry_span), (succ, list_span),
                         (pred, list_span)):
            gfns.extend(g for g in vmi.protect_va_range(va, span)
                        if g is not None)
        return tuple(gfns)

    def _refresh_guards(self, vmi: VMIInstance, rec: _Protection,
                        manifest: CheckManifest) -> None:
        """Re-derive the guard set after a verified guard write (the
        neighbours may legitimately have changed, e.g. another module
        loaded or unloaded next to ours)."""
        for gfn in rec.guard_gfns:
            self.hv.unprotect_guest_frame(vmi.domain.name, gfn)
        rec.guard_gfns = self._protect_guards(vmi, manifest)

    def _drop_protection(self, vm_name: str, module_name: str) -> None:
        """Disarm and forget one protection record (refcount-correct).

        Forgiving about the domain being gone — the hypervisor already
        bulk-dropped the frames on destroy, and ``unprotect`` treats a
        missing domain or frame as a no-op.
        """
        rec = self._protections.pop((vm_name, module_name), None)
        if rec is None:
            return
        for gfn in rec.page_gfns:
            if gfn is not None:
                self.hv.unprotect_guest_frame(vm_name, gfn)
        for gfn in rec.guard_gfns:
            self.hv.unprotect_guest_frame(vm_name, gfn)

    def _fallback(self, vm_name: str, module_name: str,
                  reason: str) -> None:
        """Account one fall-back to sweep work (taxonomy: ``exhausted``
        / ``paranoia`` / ``lifecycle`` / ``unprotectable``)."""
        fallbacks = self.stats.trap_fallbacks
        fallbacks[reason] = fallbacks.get(reason, 0) + 1
        events = self.obs.events
        if events.enabled:
            events.emit("trap.fallback", vm=vm_name, module=module_name,
                        reason=reason)

    def pending_trap_modules(self, vm_names: list[str]) -> list[str]:
        """Drain the given VMs' rings; name the modules needing work.

        The daemon's subscription hook: called at the top of a cycle so
        modules with trapped writes can be re-checked *ahead of* the
        policy rotation instead of waiting their turn. Ring peeks are
        free; only VMs with pending traps pay for a drain. Routed
        state persists on the protection records, so the subsequent
        per-module validation sees exactly what was drained here.
        """
        if not self.event_driven:
            return []
        eligible = set(vm_names)
        for vm_name in vm_names:
            if self.hv.traps.pending(vm_name) == 0:
                continue
            try:
                vmi = self.vmi_for(vm_name)
            except VMIInitError:
                continue    # vanished domain: membership will reconcile
            self.route_drained_traps(vm_name, *vmi.drain_traps())
        return sorted({module for (vm, module), rec
                       in self._protections.items()
                       if vm in eligible
                       and (rec.dirty_pages or rec.guard_dirty
                            or rec.overflowed)})

    def _note_acquisition(self, vmi: VMIInstance, copy,
                          parsed: ParsedModule) -> None:
        """Content-address a full acquisition (incremental mode only).

        The per-page digests are computed over the local buffer just
        copied out (charged at ``hash_per_byte``, which is noise next
        to the copy itself) and become the candidate manifest —
        committed only if this round's verdict comes back clean.
        """
        digests = _page_digests(copy.image)
        self._charge(len(copy.image) * self.costs.hash_per_byte)
        self._acq_meta[copy.vm_name] = _AcqMeta(
            ldr_entry_va=copy.ldr_entry_va, base=copy.base,
            size=len(copy.image), boot_generation=vmi.boot_generation,
            digests=digests,
            content_key=_content_key(copy.base, len(copy.image), digests),
            parsed=parsed, from_manifest=False)

    def _guard(self, mod_a: ParsedModule,
               mod_b: ParsedModule) -> tuple[str, str] | None:
        """Both copies' content keys, or None when either copy has no
        acquisition metadata (full mode: never looked up nor stored)."""
        meta_a = self._acq_meta.get(mod_a.vm_name)
        meta_b = self._acq_meta.get(mod_b.vm_name)
        if meta_a is None or meta_b is None:
            return None
        return meta_a.content_key, meta_b.content_key

    def _cached(self, key: tuple, guard: tuple[str, str]) -> object | None:
        """The result stored under ``key`` if ``guard`` still matches."""
        cached = self._pair_cache.peek(key)
        if cached is not None and (cached[0], cached[1]) == guard:
            return cached[2]
        return None

    def _replay(self, key: tuple, mod_a: ParsedModule,
                mod_b: ParsedModule, compute: Callable[[bool], object],
                ) -> tuple[object, bool]:
        """Serve ``compute``'s result for one pair from ``_pair_cache``
        while both copies' content keys still match.

        Every comparison step here is a pure function of (bytes, base)
        on both sides, and the content keys pin exactly those inputs
        (hence the parse, ``max_rva`` and the adjustment), so a cached
        result whose keys both still match *is* the result. Copies
        without acquisition metadata (full mode) are neither looked up
        nor stored; ``compute(storing)`` learns which. Returns
        ``(result, replayed)``.
        """
        guard = self._guard(mod_a, mod_b)
        if guard is None:
            return compute(False), False
        cached = self._cached(key, guard)
        if cached is not None:
            return cached, True
        result = compute(True)
        self._pair_cache.put(key, (*guard, result))
        return result, False

    def _canonical_member(self, mod: ParsedModule,
                          counterpart: ParsedModule | None,
                          want_ref: Callable[[str], bool],
                          ) -> CanonicalRecord:
        """One canonical-vote member step, replayed from cache when sound.

        A stored record keeps every counterpart digest (the counterpart
        may be the reference in a later round even if it is a partner
        now). Unlike a pairwise replay, a canonical replay still
        charges the step's cost, once and as the same float, so the
        simulated clock is bit-identical to the computed path; the
        saving is host time only. Making it free, as pair replay is, is
        a pending model change. Not counted in ``pair_replays``.
        """
        step = self.checker.canonical_member
        if counterpart is None:
            return step(mod, None, want_ref)
        record, replayed = self._replay(
            ("canonical", mod.module_name, counterpart.vm_name,
             mod.vm_name), counterpart, mod,
            lambda storing: (step(mod, counterpart) if storing
                             else step(mod, counterpart, want_ref)))
        if replayed:
            self._charge(record.cost)
        return record

    def _update_manifests(self, module_name: str,
                          report: PoolReport) -> None:
        """Commit/invalidate manifests from one pool verdict.

        Manifests record hashes *from the last clean verdict*: a fully
        re-acquired copy is committed only when its VM voted clean; a
        flagged VM's manifest is dropped so it can never serve a hit
        while suspect. A sweep hit keeps its manifest untouched — in
        particular ``verified_at`` is NOT refreshed, so the recheck TTL
        measures time since the last *full* verification and a
        tampered-then-restored page cannot hide behind matching
        checksums forever.
        """
        now = self.hv.clock.now
        for vm_name, verdict in report.verdicts.items():
            meta = self._acq_meta.get(vm_name)
            if meta is None:
                continue
            if not verdict.clean:
                self.invalidate_manifests(vm_name, module_name,
                                          reason="flagged")
                continue
            if meta.from_manifest:
                continue
            if meta.base % PAGE_SIZE:
                # a frame-granular sweep cannot address an image whose
                # *base* is unaligned; leave such modules on the full
                # path forever. An unaligned *size* is fine: the tail
                # digest is masked to the in-image bytes at both commit
                # (``_page_digests`` zero-pads) and sweep time
                # (``checksum_va_range`` scopes the final frame).
                continue
            manifest = CheckManifest(
                vm_name=vm_name, module_name=module_name,
                boot_generation=meta.boot_generation, base=meta.base,
                size=meta.size, ldr_entry_va=meta.ldr_entry_va,
                page_digests=meta.digests, content_key=meta.content_key,
                parsed=meta.parsed, verified_at=now)
            self.manifests.commit(manifest)
            if self.event_driven:
                # the clean verdict both commits and arms: from the
                # next cycle on, this module is validated by traps
                self._drop_protection(vm_name, module_name)
                vmi = self._vmis.get(vm_name)
                if vmi is not None and not self._vmi_stale(vm_name, vmi):
                    self._arm_protection(vmi, module_name, manifest)

    def warm_up(self, vm_name: str) -> list[str]:
        """Prime a (re-)admitted VM before it votes in any quorum.

        Re-attaches the VMI session and walks the full loaded-module
        list once, so translation/page caches are warm and a guest that
        cannot even be walked fails *here* — in the membership path,
        where the daemon routes it to the circuit breaker — rather than
        poisoning a sweep. Returns the module names seen.
        """
        vmi = self.vmi_for(vm_name)
        if self.flush_caches_each_round:
            vmi.flush_caches()
        return [e.name for e in ModuleSearcher(vmi).list_modules()]

    # -- observability ---------------------------------------------------------

    def _record_outcome(self, module_name: str, timings: ComponentTimings,
                        report: PoolReport | None = None) -> None:
        """Publish one check's metrics (no-op with NULL_OBS)."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        record_stage_timings(metrics, timings, module=module_name)
        if report is not None:
            record_pool_report(metrics, report, module=module_name)
        # Union of live sessions and retired baselines: a VM that was
        # evicted (and never re-attached) still publishes its folded
        # counters, so the cumulative series never loses a session tail.
        # A scoped (fleet-shard) checker publishes only its *members*'
        # live sessions: a borrowed reference VM gets a session here
        # too, but its per-VM series belongs to its home shard — two
        # publishers on one label would drive the shared counter
        # backwards. A retired borrowed session folds into no baseline
        # (see _retire_vmi), so every baseline is a home VM's.
        members = set(self.members()) if self.members is not None else None
        for vm_name in sorted(set(self._vmis) | set(self._vmi_stats_base)):
            if (members is not None and vm_name not in members
                    and vm_name not in self._vmi_stats_base):
                continue
            record_vmi_instance(metrics, vm_name, self._vmis.get(vm_name),
                                base=self._vmi_stats_base.get(vm_name))
        injector = getattr(self.hv, "fault_injector", None)
        if injector is not None:
            record_stats(metrics, injector.stats)
        if members is None:
            # A fleet owns a scoped checker's manifest, trap and repair
            # series and publishes their fold over its shards: every
            # shard setting its own totals on one unlabelled series
            # would leave the last publisher's value, or run it
            # backwards.
            record_pipeline_stats(
                metrics, self, self.stats, self.manifests.stats,
                self.repair and self.repair.stats,
                entries=len(self.manifests))

    def pool_vm_names(self, vms: list[str] | None = None) -> list[str]:
        if vms is not None:
            return list(vms)
        if self.members is not None:
            return list(self.members())
        return [d.name for d in self.hv.guests()]

    # -- work metering ---------------------------------------------------------

    @contextmanager
    def _phase(self):
        """Meter one check phase (fetch or compare): a no-op for
        ``workers=1``, where charges advance the clock and :meth:`_work`
        reads it; for ``workers>1`` the phase's charges are deferred and
        :meth:`_work` reads their raw Dom0 CPU total."""
        if self.workers == 1:
            yield
            return
        with self.hv.deferred_charges() as acc:
            self._deferred = acc
            try:
                yield
            finally:
                self._deferred = None

    def _work(self) -> float:
        """Work done so far on the open phase's meter (see :meth:`_phase`)."""
        acc = self._deferred
        return self.hv.clock.now if acc is None else acc.total

    def _compare_pairs(self, jobs) -> tuple[list[PairComparison],
                                             list[float]]:
        """Compare each ``(mod_a, mod_b)`` job, replaying when sound.

        The jobs no replay serves are compared in one
        :meth:`IntegrityChecker.compare_pairs` batch. Then each job, in
        order, charges its cost, is stored for replay and emits
        ``pair.compared``, so the clock, the replay store and the event
        stream read as a per-pair loop. A replayed
        :class:`PairComparison` is the comparison byte for byte,
        including its ``rva_stats``, at zero simulated cost. Returns
        the comparisons and each one's work on the phase meter (a
        replayed pair lengthens no worker).
        """
        jobs = list(jobs)
        keys = [(a.module_name, a.vm_name, b.vm_name) for a, b in jobs]
        guards = [self._guard(a, b) for a, b in jobs]
        hits = [guard is not None and self._cached(key, guard) is not None
                for key, guard in zip(keys, guards)]
        computed = iter(self.checker.compare_pairs(
            [job for job, hit in zip(jobs, hits) if not hit]))
        pairs: list[PairComparison] = []
        work: list[float] = []
        for (mod_a, mod_b), key, guard, hit in zip(jobs, keys, guards, hits):
            start = self._work()
            # a store above may have evicted a hit, as a per-pair loop's
            # store evicts it before that pair's lookup
            pair = self._cached(key, guard) if hit else None
            if pair is not None:
                self.stats.pair_replays += 1
            else:
                pair, cost = (self.checker.compare_pairs([(mod_a, mod_b)])[0]
                              if hit else next(computed))
                self._charge(cost)
                if guard is not None:
                    self._pair_cache.put(key, (*guard, pair))
            self.checker.emit_pair(mod_a.module_name, pair)
            pairs.append(pair)
            work.append(self._work() - start)
        return pairs, work

    def _check_timings(self, timings: ComponentTimings,
                       pair_work: list[float],
                       compare_work: float) -> ComponentTimings:
        """The check's component breakdown; settles the clock.

        ``workers=1``: charges already advanced the clock; add the
        compare span. ``workers>1``: ``timings`` is raw CPU. Pack each
        VM's fetch chain (searcher then parser) and each pair onto the
        workers, advance the clock once, and split the fetch wall time
        between searcher and parser by their CPU shares.
        """
        if self.workers == 1:
            timings.checker = compare_work
            return timings
        scheduler = self.hv.scheduler
        demand = self.hv.guest_demand()
        fetch_wall = scheduler.parallel_elapsed(
            list(self._fetch_work.values()), self.workers, demand)
        check_wall = scheduler.parallel_elapsed(pair_work, self.workers,
                                                demand)
        self.hv.clock.advance(fetch_wall + check_wall)
        s_cpu, p_cpu = timings.searcher, timings.parser
        share = s_cpu / (s_cpu + p_cpu) if s_cpu + p_cpu else 1.0
        return ComponentTimings(searcher=fetch_wall * share,
                                parser=fetch_wall * (1.0 - share),
                                checker=check_wall)

    # -- acquisition phase -------------------------------------------------------------

    def fetch_modules(self, module_name: str, vm_names: list[str],
                      ) -> FetchResult:
        """Run Searcher + Parser for every VM; returns parsed copies.

        VMs where the module is not loaded are skipped (the paper only
        compares "modules actually loaded in memory") — but the Searcher
        time spent *discovering* that is still accounted: the walk was
        charged to the Dom0 clock either way. VMs whose reads keep
        failing after the retry budget land in ``failed`` instead of
        aborting the sweep.

        Times are read on the open phase's meter: simulated seconds
        normally, raw Dom0 CPU-seconds inside a ``workers>1`` check.
        """
        timings = ComponentTimings()
        per_vm: dict[str, float] = {}
        failed: dict[str, str] = {}
        parsed: list[ParsedModule] = []
        events = self.obs.events
        work = self._work
        chains = self._fetch_work = {}

        def acquired(vm_name: str, outcome: str) -> None:
            if events.enabled:
                events.emit("module.acquired", module=module_name,
                            vm=vm_name, outcome=outcome)

        with self.obs.tracer.span("modchecker.fetch", module=module_name,
                                  vms=len(vm_names)) as fetch_span:
            self._acq_meta = {}
            for vm_name in vm_names:
                try:
                    vmi = self.vmi_for(vm_name)
                except VMIInitError as exc:
                    # The domain vanished between membership reconcile
                    # and this sweep (destroy races the check cycle).
                    failed[vm_name] = f"unreachable: {exc}"
                    per_vm[vm_name] = 0.0
                    acquired(vm_name, "unreachable")
                    continue
                if self.flush_caches_each_round:
                    vmi.flush_caches()
                searcher = ModuleSearcher(vmi)
                copy = None
                cached = None
                start = work()
                try:
                    if self.incremental:
                        cached = self._try_manifest(vmi, searcher,
                                                    module_name)
                    if cached is None:
                        copy = searcher.copy_module(module_name)
                except ModuleNotLoadedError:
                    pass
                except (TransientFault, RetryExhausted) as exc:
                    failed[vm_name] = f"retry-exhausted: {exc}"
                except IntrospectionFault as exc:
                    failed[vm_name] = f"unreadable: {exc}"
                elapsed = work() - start
                timings.searcher += elapsed
                per_vm[vm_name] = chains[vm_name] = elapsed
                if cached is not None:
                    # manifest hit: the stored ParsedModule re-enters the
                    # vote directly; no copy, no parse
                    parsed.append(cached)
                    acquired(vm_name, "manifest")
                    continue
                if copy is None:
                    acquired(vm_name, failed.get(vm_name, "not-loaded")
                             .split(":", 1)[0])
                    continue
                start = work()
                parsed_mod = self.parser.parse(copy)
                if self.incremental:
                    self._note_acquisition(vmi, copy, parsed_mod)
                parsed.append(parsed_mod)
                elapsed = work() - start
                timings.parser += elapsed
                chains[vm_name] += elapsed
                acquired(vm_name, "ok")
            fetch_span.set(acquired=len(parsed), failed=len(failed))
        return FetchResult(parsed, timings, per_vm, failed)

    # -- checking modes -------------------------------------------------------------

    def check_on_vm(self, module_name: str, target_vm: str,
                    vms: list[str] | None = None) -> CheckOutcome:
        """Verify ``target_vm``'s copy against the rest of the pool."""
        names = self.pool_vm_names(vms)
        if target_vm not in names:
            names = [target_vm] + names
        events = self.obs.events
        cid = events.current_check or events.new_check_id()
        with events.correlate(cid), \
             self.obs.tracer.span("modchecker.check", module=module_name,
                                  mode="target", target=target_vm,
                                  **self._span_attrs):
            if events.enabled:
                events.emit("check.start", module=module_name,
                            mode="target", target=target_vm,
                            vms=len(names))
            with self._phase():
                parsed, timings, per_vm, failed = self.fetch_modules(
                    module_name, names)
            by_vm = {p.vm_name: p for p in parsed}
            if target_vm in failed:
                raise RetryExhausted(
                    f"cannot acquire {module_name!r} from target {target_vm}: "
                    f"{failed[target_vm]}")
            if target_vm not in by_vm:
                raise ModuleNotLoadedError(
                    f"{module_name!r} not loaded on target {target_vm}")
            others = [p for p in parsed if p.vm_name != target_vm]
            if not others:
                raise InsufficientPool(
                    f"no other VM exposes {module_name!r} for comparison")
            with self.obs.tracer.span("checker.compare", module=module_name,
                                      pairs=len(others)), self._phase():
                start = self._work()
                pairs, pair_work = self._compare_pairs(
                    (by_vm[target_vm], other) for other in others)
                compare_work = self._work() - start
            timings = self._check_timings(timings, pair_work, compare_work)
            report = VMCheckReport(
                module_name=module_name, target_vm=target_vm,
                pairs=tuple(pairs), matches=sum(p.matched for p in pairs),
                comparisons=len(pairs))
            if events.enabled:
                events.emit("check.verdict", module=module_name,
                            mode="target", target=target_vm,
                            clean=report.clean, matches=report.matches,
                            comparisons=report.comparisons)
        self._record_outcome(module_name, timings)
        return CheckOutcome(report=report, timings=timings,
                            per_vm_searcher=per_vm)

    def check_pool(self, module_name: str,
                   vms: list[str] | None = None, *,
                   mode: str = "pairwise") -> PoolOutcome:
        """Cross-check the module on every VM (detection experiments).

        ``mode="pairwise"`` is the paper's O(t²) all-pairs vote;
        ``mode="canonical"`` is the O(t) clustering variant
        (:meth:`IntegrityChecker.check_pool_canonical`).

        VMs whose introspection keeps failing after the retry budget
        are *degraded*: dropped from the quorum, reported in
        ``PoolReport.degraded``, and the majority vote is recomputed
        over the survivors. :class:`InsufficientPool` is raised only
        when the surviving quorum drops below 2.
        """
        if mode not in ("pairwise", "canonical"):
            raise ValueError(f"unknown pool mode {mode!r}")
        names = self.pool_vm_names(vms)
        events = self.obs.events
        cid = events.current_check or events.new_check_id()
        with events.correlate(cid), \
             self.obs.tracer.span("modchecker.check", module=module_name,
                                  mode=mode, **self._span_attrs):
            if events.enabled:
                events.emit("check.start", module=module_name, mode=mode,
                            vms=len(names))
            with self._phase():
                parsed, timings, per_vm, failed = self.fetch_modules(
                    module_name, names)
            if len(parsed) < 2:
                degraded_note = (f" ({len(failed)} degraded: "
                                 f"{', '.join(sorted(failed))})"
                                 if failed else "")
                raise InsufficientPool(
                    f"{module_name!r} present on {len(parsed)} VM(s); "
                    f"need at least 2{degraded_note}")
            n_pairs = (len(parsed) - 1 if mode == "canonical"
                       else len(parsed) * (len(parsed) - 1) // 2)
            with self.obs.tracer.span("checker.compare", module=module_name,
                                      pairs=n_pairs), self._phase():
                start = self._work()
                if mode == "canonical":
                    # one O(t) pass over a single reference: one work item
                    report = self.checker.check_pool_canonical(
                        parsed, member_step=self._canonical_member)
                    pair_work = [self._work() - start]
                else:
                    pairs, pair_work = self._compare_pairs(
                        (mod_a, mod_b) for i, mod_a in enumerate(parsed)
                        for mod_b in parsed[i + 1:])
                    report = self.checker.vote(parsed, pairs)
                compare_work = self._work() - start
            timings = self._check_timings(timings, pair_work, compare_work)
            report.degraded = dict(failed)
            if self.incremental:
                self._update_manifests(module_name, report)
            if events.enabled:
                events.emit("check.verdict", module=module_name, mode=mode,
                            clean=report.all_clean,
                            flagged=sorted(report.flagged()),
                            degraded=sorted(failed))
            # Forensics ride the alert path only: a clean report never
            # reaches capture, keeping evidence cost off the hot path.
            # The repair engine's own re-verification checks are also
            # excluded — the incident already has its bundle.
            captured = None
            if (self.evidence is not None and not report.all_clean
                    and not self._in_repair):
                captured = self.evidence.record(
                    report, parsed, events=events, check_id=cid or None,
                    captured_at=self.hv.clock.now)
                self.obs.metrics.counter(
                    "modchecker_evidence_bundles_total",
                    "Evidence bundles captured for non-clean "
                    "verdicts").inc()
            remediations: list = []
            if (self.repair is not None and not self._in_repair
                    and not report.all_clean):
                self._in_repair = True
                try:
                    remediations = self.repair.remediate_pool(
                        module_name, report, names,
                        detected_at=self.hv.clock.now)
                finally:
                    self._in_repair = False
                if captured is not None and remediations:
                    self.evidence.attach_remediations(captured,
                                                      remediations)
        self._record_outcome(module_name, timings, report)
        return PoolOutcome(report=report, timings=timings,
                           per_vm_searcher=per_vm,
                           remediations=remediations)

    # -- carving extension (defeats DKOM hiding) ------------------------------------

    def detect_hidden_modules(self, vm_name: str,
                              reference_vm: str | None = None,
                              ) -> list[tuple["CarvedModule", str | None]]:
        """Carve the guest's driver arena and report unlisted modules.

        Returns ``[(carved module, identified name or None)]`` — images
        mapped in kernel space but absent from ``PsLoadedModuleList``
        (DKOM hiding). Identification fingerprints the carved image
        against the modules a reference clone lists.
        """
        from .carver import ModuleCarver
        vmi = self.vmi_for(vm_name)
        if self.flush_caches_each_round:
            vmi.flush_caches()
        searcher = ModuleSearcher(vmi)
        listed = {e.dll_base for e in searcher.list_modules()}
        hidden = ModuleCarver(vmi).find_hidden(listed)
        return self.identify_carved_modules(vm_name, hidden,
                                            reference_vm=reference_vm)

    def identify_carved_modules(self, vm_name: str,
                                hidden: list["CarvedModule"],
                                reference_vm: str | None = None,
                                ) -> list[tuple["CarvedModule", str | None]]:
        """Name already-carved hidden images against a reference clone.

        Split out from :meth:`detect_hidden_modules` so callers that
        have *already* carved the guest (e.g. the daemon's cross-view
        sweep) can identify the findings without paying for a second
        carve of the same VM.
        """
        from .carver import identify_carved
        if not hidden:
            return []
        ref = reference_vm or next(
            (n for n in self.pool_vm_names() if n != vm_name), None)
        named: dict[str, bytes] = {}
        if ref is not None:
            from ..errors import IntrospectionFault
            ref_searcher = ModuleSearcher(self.vmi_for(ref))
            for entry in ref_searcher.list_modules():
                try:
                    named[entry.name] = \
                        ref_searcher.copy_module(entry.name).image
                except IntrospectionFault:
                    # The reference VM may itself carry decoy entries
                    # whose DllBase is unbacked; skip them.
                    continue
        return [(m, identify_carved(m, named)) for m in hidden]

    def check_carved_module(self, carved: "CarvedModule", name: str,
                            vms: list[str] | None = None) -> VMCheckReport:
        """Integrity-check a carved (hidden) module against the pool."""
        names = [n for n in self.pool_vm_names(vms)
                 if n != carved.vm_name]
        parsed, *_ = self.fetch_modules(name, names)
        if not parsed:
            raise InsufficientPool(
                f"no other VM exposes {name!r} for comparison")
        target = self.parser.parse(carved.as_module_copy(name))
        return self.checker.check_target(target, parsed)

    def check_all_modules(self, vms: list[str] | None = None,
                          ) -> dict[str, PoolOutcome]:
        """Sweep every module present in the first pool VM's list."""
        names = self.pool_vm_names(vms)
        if not names:
            raise InsufficientPool("empty VM pool")
        searcher = ModuleSearcher(self.vmi_for(names[0]))
        outcomes: dict[str, PoolOutcome] = {}
        for entry in searcher.list_modules():
            try:
                outcomes[entry.name] = self.check_pool(entry.name, names)
            except InsufficientPool:
                continue
        return outcomes
