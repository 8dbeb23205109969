"""Fleet-scale sharded control plane: many pools, one scheduler.

The paper's linear Module-Searcher scaling (§V-B) makes a 15-clone
testbed a proof of concept, not a deployment. A cloud runs tens of
thousands of guests across *heterogeneous* images — different OS
versions, different driver sets — and cross-VM voting is only sound
within a population that should be byte-identical. This module supplies
the control plane that makes the jump:

**Sharding.** Every guest hashes to a :class:`ShardKey` — its OS
flavor (the LDR layout it walks) plus a fingerprint of its loaded
module set. VMs sharing a key should agree byte-for-byte, so each
shard is a valid majority-voting pool; ``shard_size`` caps how large
one pool may grow before a sibling shard with the same key is opened.
Each :class:`Shard` owns a scoped :class:`~repro.core.modchecker.ModChecker`
(profile derived from its own members — two LDR layouts cannot share a
profile) and a scoped :class:`~repro.core.daemon.CheckDaemon`, so the
PR 3 breaker/membership machinery holds *per shard*.

**Scheduling.** Shards check concurrently on ``workers`` Dom0 threads.
As in ``ModChecker(workers=N)``, concurrency is modelled, not
threaded: each shard's cycle runs with charges deferred
(:meth:`~repro.hypervisor.xen.Hypervisor.deferred_charges`), and the
simulated clock advances once per fleet round by the LPT makespan of
the per-shard costs stretched by Dom0 contention
(:meth:`~repro.hypervisor.scheduler.ContentionScheduler.parallel_elapsed`).
Per-round latency is therefore the *slowest worker's* path, exactly
what a real thread pool would see. Shard checkers stay at
``workers=1``: the fleet already models their concurrency.

**Quorum borrowing.** Churn can starve a shard below the voting floor
(or a key may only ever hold one VM). Instead of suspending checks,
the starved shard's daemon asks the fleet to lend votable references
from *sibling shards with the same key* — borrowed VMs vote this cycle
but their breakers, warm-up and membership stay home. Small shards
thus reach verdicts by borrowing the majority from their siblings.

**Membership.** The fleet owns placement: new guests are keyed and
placed on :meth:`Fleet.reconcile` (new shards open on demand, emptied
shards retire), while per-VM admit/evict/reboot handling stays in each
shard's daemon. Whole shards can be administratively evicted from and
re-admitted to the checking rotation, preserving their breaker state.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.daemon import Alert, CheckDaemon, RoundRobinPolicy
from ..core.modchecker import ModChecker
from ..errors import InsufficientPool
from ..guest.catalog import build_catalog
from ..hypervisor.scheduler import CpuModel
from ..hypervisor.xen import Hypervisor
from ..obs import (NULL_OBS, Observability, record_fleet_cycle,
                   record_manifest_stats, record_repair_stats,
                   record_trap_stats)
from ..pe.builder import DriverBlueprint
from ..vmi.cache import ManifestStats
from ..vmi.symbols import OSProfile

if TYPE_CHECKING:
    from ..core.repair import RepairStats

__all__ = ["ShardKey", "shard_key_for", "Shard", "Fleet", "FleetStats",
           "FleetCycleReport", "FleetTestbed", "build_fleet_testbed",
           "FLEET_VARIANTS"]


@dataclass(frozen=True, order=True)
class ShardKey:
    """What makes two guests comparable: layout + module population."""

    os_flavor: str
    fingerprint: str

    def __str__(self) -> str:
        return f"{self.os_flavor}/{self.fingerprint[:8]}"


def shard_key_for(domain) -> ShardKey:
    """Key a guest by OS flavor and loaded-module-set fingerprint.

    The fingerprint hashes the sorted module *names*: guests running
    the same driver set belong in one voting pool even if a module was
    (legitimately) relocated. Content differences within a pool are
    precisely what the checker is for — they must not split the pool.
    """
    kernel = domain.kernel
    digest = hashlib.md5(
        "\n".join(sorted(kernel.modules)).encode()).hexdigest()
    return ShardKey(os_flavor=kernel.os_flavor, fingerprint=digest)


@dataclass
class Shard:
    """One voting pool: a scoped checker + daemon over its members."""

    name: str
    key: ShardKey
    checker: ModChecker
    daemon: CheckDaemon
    members: set[str] = field(default_factory=set)
    #: administratively in the checking rotation (``Fleet.evict_shard``
    #: clears this; breaker/membership state survives for re-admission)
    admitted: bool = True

    def member_names(self) -> list[str]:
        return sorted(self.members)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class FleetStats:
    """Cumulative fleet counters (never reset; survive shard retirement)."""

    cycles: int = 0
    checks_total: int = 0
    vm_checks_total: int = 0
    borrowed_refs_total: int = 0
    alerts_total: int = 0
    #: terminal remediation outcomes summed over every shard daemon
    #: (only nonzero when ``checker_kwargs`` enables a repair policy)
    repairs_verified_total: int = 0
    repairs_failed_total: int = 0
    repairs_quarantined_total: int = 0
    #: shard lifecycle events: created / retired / admitted / evicted
    shard_events: dict[str, int] = field(default_factory=dict)
    #: per-VM membership events summed over every shard daemon
    #: (admit / evict / reboot) — the fleet publishes these because
    #: scoped daemons must not fight over the shared counter series
    membership_events: dict[str, int] = field(default_factory=dict)
    #: simulated makespan of each fleet round's shard work
    cycle_seconds: list[float] = field(default_factory=list)
    #: total simulated time spent inside shard work (sum of makespans)
    busy_seconds: float = 0.0

    def note_shard_event(self, event: str) -> None:
        self.shard_events[event] = self.shard_events.get(event, 0) + 1

    @property
    def checks_per_sec(self) -> float:
        """Sustained per-VM check throughput over the busy time."""
        if not self.busy_seconds:
            return 0.0
        return self.vm_checks_total / self.busy_seconds

    @property
    def p99_cycle_seconds(self) -> float:
        """99th-percentile simulated fleet-round makespan."""
        if not self.cycle_seconds:
            return 0.0
        ordered = sorted(self.cycle_seconds)
        index = max(0, -(-99 * len(ordered) // 100) - 1)
        return ordered[index]


@dataclass
class _CheckerTotals:
    """Shard checkers' cumulative manifest, trap and repair counters.

    Scoped checkers leave these series to the fleet, which publishes
    this sum: retired shards folded in, live shards added at publish.
    """

    manifests: ManifestStats = field(default_factory=ManifestStats)
    pair_replays: int = 0
    trap_validations: int = 0
    trap_pages_checked: int = 0
    trap_fallbacks: dict[str, int] = field(default_factory=dict)
    #: None until a shard with a repair engine is added (importing
    #: the repair module here would pull in forensics on import)
    repair: "RepairStats | None" = None

    def add(self, mc: ModChecker) -> None:
        self.manifests.merge(mc.manifests.stats)
        self.pair_replays += mc.pair_replays
        self.trap_validations += mc.trap_validations
        self.trap_pages_checked += mc.trap_pages_checked
        for reason, count in mc.trap_fallbacks.items():
            self.trap_fallbacks[reason] = \
                self.trap_fallbacks.get(reason, 0) + count
        if mc.repair is not None:
            if self.repair is None:
                self.repair = type(mc.repair.stats)()
            self.repair.merge(mc.repair.stats)


@dataclass(frozen=True)
class FleetCycleReport:
    """What one fleet round did, for callers and the CLI."""

    cycle: int
    #: simulated makespan of this round's shard work (excl. interval)
    duration: float
    #: (shard name, alert) for every alert any shard raised this round
    alerts: tuple[tuple[str, Alert], ...]
    shards: int
    vms: int
    borrowed: int
    #: verified self-heals this round (``repaired`` alert kind)
    repaired: int = 0


class Fleet:
    """Sharded checking service over one hypervisor's guest pool."""

    def __init__(self, hypervisor: Hypervisor, *,
                 shard_size: int = 64,
                 workers: int = 8,
                 interval: float = 60.0,
                 borrow: bool = True,
                 chaos=None,
                 obs: Observability = NULL_OBS,
                 checker_kwargs: dict | None = None,
                 slo=None) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if (checker_kwargs or {}).get("workers", 1) > 1:
            # a shard checker's own makespan would advance the clock
            # inside the fleet's deferred round: time counted twice
            raise ValueError("shard checkers run with workers=1; set "
                             "the fleet's workers instead")
        self.hv = hypervisor
        self.shard_size = shard_size
        self.workers = workers
        self.interval = interval
        #: lend sibling references to quorum-starved shards
        self.borrow = borrow
        #: global chaos engine, stepped once per fleet round (never
        #: handed to shard daemons — churn is fleet-wide)
        self.chaos = chaos
        self.obs = obs
        #: extra kwargs for every shard's ModChecker (event_driven=...,
        #: retry=..., flush_caches_each_round=..., ...)
        self.checker_kwargs = dict(checker_kwargs or {})
        #: optional :class:`~repro.obs.slo.SloEngine`. The fleet — not
        #: the shard daemons — feeds it: shard clocks are frozen under
        #: deferred charging, so per-shard cycle latency comes from the
        #: deferred cost accumulator (stretched by Dom0 contention),
        #: scoped by shard name so one burning shard cannot hide inside
        #: a healthy fleet average.
        self.slo = slo
        #: the last :class:`~repro.obs.slo.SloStatus` evaluated (None
        #: until the first round with an engine attached)
        self.last_slo_status = None
        self.shards: dict[str, Shard] = {}
        #: VM name -> owning shard name (the fleet's placement truth)
        self._assignment: dict[str, str] = {}
        self.stats = FleetStats()
        self.cycles_run = 0
        #: every alert any shard ever raised, as (shard name, alert)
        self.alert_log: list[tuple[str, Alert]] = []
        self._shard_seq: dict[ShardKey, int] = {}
        #: counters folded in from retired shards so fleet totals never
        #: run backwards (same idiom as ModChecker._vmi_stats_base)
        self._retired = {"checks": 0, "vm_checks": 0, "borrows": 0,
                         "repairs_verified": 0, "repairs_failed": 0,
                         "repairs_quarantined": 0}
        self._retired_membership: dict[str, int] = {}
        self._retired_checkers = _CheckerTotals()
        self.reconcile()

    # -- placement -----------------------------------------------------------

    def _shards_sorted(self) -> list[Shard]:
        return [self.shards[name] for name in sorted(self.shards)]

    def shard_of(self, vm: str) -> Shard | None:
        name = self._assignment.get(vm)
        return self.shards.get(name) if name is not None else None

    def _note_shard_event(self, event: str, shard: Shard) -> None:
        self.stats.note_shard_event(event)
        events = self.obs.events
        if events.enabled:
            events.emit("shard.changed", event=event, shard=shard.name,
                        key=str(shard.key), size=shard.size)

    def _open_shard(self, key: ShardKey, first_domain) -> Shard:
        seq = self._shard_seq.get(key, 0) + 1
        self._shard_seq[key] = seq
        name = f"{key}#{seq}"
        profile = OSProfile.from_guest(first_domain.kernel)
        shard = Shard(name=name, key=key, checker=None,  # type: ignore
                      daemon=None)                       # type: ignore
        shard.checker = ModChecker(
            self.hv, profile, obs=self.obs,
            members=shard.member_names, **self.checker_kwargs)
        # The daemon watches the checker's members and, running inside
        # the round's deferred charges, leaves the clock to the fleet.
        # Canonical vote: a pairwise one over a 64-member shard costs 2k
        # comparisons for the same verdict.
        shard.daemon = CheckDaemon(
            shard.checker, RoundRobinPolicy(per_cycle=1), carve=False,
            lender=(lambda needed, exclude, shard=shard:
                    self.borrow_references(shard, needed, exclude)),
            pool_mode="canonical")
        self.shards[name] = shard
        self._note_shard_event("created", shard)
        return shard

    def _retire_shard(self, name: str) -> None:
        shard = self.shards.pop(name)
        self._fold_counters(shard)
        self._note_shard_event("retired", shard)

    def _fold_counters(self, shard: Shard) -> None:
        self._retired["checks"] += shard.daemon.checks_run
        self._retired["vm_checks"] += shard.daemon.vm_checks_run
        self._retired["borrows"] += shard.daemon.borrowed_refs
        self._retired["repairs_verified"] += shard.daemon.repairs_verified
        self._retired["repairs_failed"] += shard.daemon.repairs_failed
        self._retired["repairs_quarantined"] += \
            shard.daemon.repairs_quarantined
        for _, event, _ in shard.daemon.membership_log:
            self._retired_membership[event] = \
                self._retired_membership.get(event, 0) + 1
        self._retired_checkers.add(shard.checker)

    def _place(self, vm: str, domain) -> Shard:
        key = shard_key_for(domain)
        target = None
        for shard in self._shards_sorted():
            if shard.key == key and shard.size < self.shard_size:
                target = shard
                break
        if target is None:
            target = self._open_shard(key, domain)
        target.members.add(vm)
        self._assignment[vm] = target.name
        return target

    def reconcile(self) -> None:
        """Sync placement with the hypervisor's guest pool.

        Vanished guests leave their shard (the shard daemon then evicts
        them from its breakers on its next cycle); new guests are keyed
        and placed, opening a shard when no same-key shard has room;
        shards emptied by churn retire. Per-VM warm-up, reboot handling
        and breaker state remain the owning daemon's business.
        """
        current = {d.name: d for d in self.hv.guests()}
        for vm in sorted(set(self._assignment) - set(current)):
            shard = self.shard_of(vm)
            if shard is not None:
                shard.members.discard(vm)
            del self._assignment[vm]
        for vm in sorted(set(current) - set(self._assignment)):
            self._place(vm, current[vm])
        for name in [s.name for s in self._shards_sorted() if not s.size]:
            self._retire_shard(name)

    # -- shard administration ------------------------------------------------

    def evict_shard(self, name: str) -> None:
        """Pull a whole shard from the checking rotation.

        Members stay placed (so reconcile does not re-scatter them) and
        the daemon keeps its breaker/membership state for re-admission.
        """
        shard = self.shards[name]
        if shard.admitted:
            shard.admitted = False
            self._note_shard_event("evicted", shard)

    def admit_shard(self, name: str) -> None:
        """Return an evicted shard to the checking rotation."""
        shard = self.shards[name]
        if not shard.admitted:
            shard.admitted = True
            self._note_shard_event("admitted", shard)

    # -- quorum borrowing ----------------------------------------------------

    def borrow_references(self, shard: Shard, needed: int,
                          exclude: list[str]) -> list[str]:
        """Lend votable same-key sibling VMs to a starved shard."""
        if not self.borrow:
            return []
        taken: list[str] = []
        unavailable = set(exclude)
        for other in self._shards_sorted():
            if other is shard or not other.admitted \
                    or other.key != shard.key:
                continue
            for vm in other.daemon.votable_vms():
                if vm in unavailable:
                    continue
                taken.append(vm)
                unavailable.add(vm)
                if len(taken) >= needed:
                    return taken
        return taken

    # -- the fleet round -----------------------------------------------------

    def _refresh_totals(self) -> None:
        self.stats.checks_total = self._retired["checks"] + sum(
            s.daemon.checks_run for s in self.shards.values())
        self.stats.vm_checks_total = self._retired["vm_checks"] + sum(
            s.daemon.vm_checks_run for s in self.shards.values())
        self.stats.borrowed_refs_total = self._retired["borrows"] + sum(
            s.daemon.borrowed_refs for s in self.shards.values())
        self.stats.repairs_verified_total = \
            self._retired["repairs_verified"] + sum(
                s.daemon.repairs_verified for s in self.shards.values())
        self.stats.repairs_failed_total = \
            self._retired["repairs_failed"] + sum(
                s.daemon.repairs_failed for s in self.shards.values())
        self.stats.repairs_quarantined_total = \
            self._retired["repairs_quarantined"] + sum(
                s.daemon.repairs_quarantined for s in self.shards.values())
        membership = dict(self._retired_membership)
        for shard in self.shards.values():
            for _, event, _ in shard.daemon.membership_log:
                membership[event] = membership.get(event, 0) + 1
        self.stats.membership_events = membership

    def _record_checker_totals(self) -> None:
        """Publish the shard checkers' manifest, trap and repair series
        as fleet-wide sums (see :class:`_CheckerTotals`)."""
        live = [s.checker for s in self._shards_sorted()]
        if not live:
            return
        totals = copy.deepcopy(self._retired_checkers)
        for mc in live:
            totals.add(mc)
        metrics = self.obs.metrics
        # every shard checker is built from the same checker_kwargs
        probe = live[0]
        if probe.incremental:
            record_manifest_stats(
                metrics, totals.manifests,
                entries=sum(len(mc.manifests) for mc in live),
                pair_replays=totals.pair_replays)
        if probe.repair is not None:
            record_repair_stats(metrics, totals.repair)
        if probe.event_driven:
            record_trap_stats(
                metrics, self.hv.traps.stats,
                validations=totals.trap_validations,
                pages_checked=totals.trap_pages_checked,
                fallbacks=totals.trap_fallbacks,
                protected_frames=sum(len(d.protected_frames)
                                     for d in self.hv.guests()))

    def run_cycle(self) -> FleetCycleReport:
        """One fleet round: churn, placement, concurrent shard cycles.

        Every admitted shard runs one daemon cycle with its Dom0 costs
        deferred; the clock then advances once by the LPT makespan of
        the per-shard costs over ``workers`` threads — stretched by the
        Dom0 contention factor, which the deferred accumulator records
        raw — plus the scheduling interval.
        """
        clock = self.hv.clock
        events = self.obs.events
        if self.chaos is not None:
            for chaos_event in self.chaos.step():
                if events.enabled:
                    events.emit("chaos.applied", kind=chaos_event.kind,
                                vm=chaos_event.vm)
                if chaos_event.kind == "migrate-finish":
                    shard = self.shard_of(chaos_event.vm)
                    if shard is not None:
                        shard.checker.invalidate_manifests(
                            chaos_event.vm, reason="migration")
        self.reconcile()

        borrowed_before = self._retired["borrows"] + sum(
            s.daemon.borrowed_refs for s in self.shards.values())
        costs: list[float] = []
        ran: list[Shard] = []
        alerts: list[tuple[str, Alert]] = []
        with self.hv.deferred_charges() as acc:
            for shard in self._shards_sorted():
                if not shard.admitted:
                    continue
                ran.append(shard)
                before = acc.total
                try:
                    for alert in shard.daemon.run_cycle():
                        alerts.append((shard.name, alert))
                except InsufficientPool:
                    # every member unreachable: the shard's breakers
                    # and the next reconcile sort it out
                    pass
                costs.append(acc.total - before)
        demand = self.hv.guest_demand()
        span = self.hv.scheduler.parallel_elapsed(costs, self.workers,
                                                  demand)
        clock.advance(span + self.interval)

        self._refresh_totals()
        self.stats.cycles += 1
        self.stats.cycle_seconds.append(span)
        self.stats.busy_seconds += span
        self.stats.alerts_total += len(alerts)
        self.alert_log.extend(alerts)
        borrowed = self.stats.borrowed_refs_total - borrowed_before
        admitted = [s for s in self._shards_sorted() if s.admitted]
        report = FleetCycleReport(
            cycle=self.cycles_run, duration=span, alerts=tuple(alerts),
            shards=len(admitted), vms=sum(s.size for s in admitted),
            borrowed=borrowed,
            repaired=sum(1 for _, a in alerts if a.kind == "repaired"))
        if events.enabled:
            events.emit("fleet.cycle", cycle=self.cycles_run,
                        shards=report.shards, vms=report.vms,
                        alerts=len(alerts), duration=span,
                        borrowed=borrowed)
        if self.slo is not None:
            now = clock.now
            factor = self.hv.scheduler.dom0_slowdown(
                demand, dom0_threads=self.workers)
            for shard, cost in zip(ran, costs):
                # a shard's own simulated latency this round: its raw
                # deferred Dom0 cost under the contention stretch
                self.slo.record(shard.name, "cycle_latency",
                                cost * factor, now)
                if shard.size:
                    votable = len(shard.daemon.votable_vms())
                    self.slo.record(shard.name, "coverage",
                                    votable / shard.size, now)
            for shard_name, alert in alerts:
                if alert.kind in ("integrity", "hidden-module"):
                    # visible at round end; raisable at round start —
                    # the makespan bounds the detection delay
                    self.slo.record(shard_name, "detection_latency",
                                    span, now)
            self.last_slo_status = self.slo.evaluate(now)
        if self.obs.metrics.enabled:
            record_fleet_cycle(
                self.obs.metrics, self.stats,
                shard_sizes={s.name: s.size for s in admitted},
                cycle_seconds=span)
            self._record_checker_totals()
        self.cycles_run += 1
        return report

    def run(self, cycles: int) -> list[FleetCycleReport]:
        return [self.run_cycle() for _ in range(cycles)]


# -- the fleet testbed -------------------------------------------------------

#: Heterogeneous image variants: (os_flavor, loaded module set). Every
#: set carries the kernel + HAL (everything imports from the kernel)
#: plus a distinguishing driver, giving 4 shard keys across 2 LDR
#: layouts — small images on purpose, so a 10k-guest fleet builds in
#: seconds instead of minutes.
FLEET_VARIANTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("xp-sp2", ("ntoskrnl.exe", "hal.dll", "disk.sys")),
    ("xp-sp2", ("ntoskrnl.exe", "hal.dll", "http.sys")),
    ("win2003", ("ntoskrnl.exe", "hal.dll", "disk.sys")),
    ("win2003", ("ntoskrnl.exe", "hal.dll", "dummy.sys")),
)


@dataclass
class FleetTestbed:
    """A heterogeneous cloud: one hypervisor, many image variants."""

    hypervisor: Hypervisor
    catalog: dict[str, DriverBlueprint]
    vm_names: list[str] = field(default_factory=list)

    @property
    def clock(self):
        return self.hypervisor.clock


def build_fleet_testbed(n_vms: int, *, seed: int | None = None,
                        cpu: CpuModel | None = None,
                        variants: tuple[tuple[str, tuple[str, ...]], ...]
                        = FLEET_VARIANTS,
                        infected: dict[str, dict[str, DriverBlueprint]]
                        | None = None) -> FleetTestbed:
    """Build a fleet-scale cloud of ``n_vms`` heterogeneous guests.

    Guests round-robin across ``variants``; blueprints come from one
    shared catalog, so two guests loading the same module agree
    byte-for-byte (the voting invariant). ``infected`` swaps named
    blueprints on named VMs, as in :func:`build_testbed`.
    """
    if n_vms < 1:
        raise ValueError("need at least one guest")
    hv = Hypervisor(cpu=cpu)
    catalog = build_catalog(seed=seed)
    vm_names: list[str] = []
    for i in range(1, n_vms + 1):
        name = f"Dom{i}"
        flavor, modules = variants[(i - 1) % len(variants)]
        guest_catalog = {m: catalog[m] for m in modules}
        if infected and name in infected:
            for mod_name, blueprint in infected[name].items():
                if mod_name not in guest_catalog:
                    raise KeyError(
                        f"{mod_name!r} not in {name}'s variant; "
                        f"cannot infect")
                guest_catalog[mod_name] = blueprint
        hv.create_guest(name, guest_catalog, seed=seed, os_flavor=flavor)
        vm_names.append(name)
    return FleetTestbed(hypervisor=hv, catalog=catalog, vm_names=vm_names)
