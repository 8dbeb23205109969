"""Continuous checking daemon — ModChecker as a cloud service.

The paper positions ModChecker as "initial light-weight consistency
checks" that trigger deeper analysis on discrepancy (§VI). This module
supplies the missing operational loop: a scheduler that sweeps modules
across the pool on the simulated clock, an alert log, and scheduling
policies:

``RoundRobinPolicy``
    every module, in list order, one per cycle slot;
``PriorityPolicy``
    a critical list (e.g. ``hal.dll``, ``ntoskrnl.exe``) every cycle,
    the long tail rotated one-per-cycle.

Each cycle also runs the anti-DKOM carving sweep on one VM (rotating),
so hidden modules surface within ``len(pool)`` cycles.

The daemon degrades rather than dies. Availability failures are routed
through a per-VM **circuit breaker** (:mod:`repro.core.health`): a VM
whose introspection keeps failing after the retry budget is tripped
OPEN — dropped from sweeps and carving, reported via a ``degraded``
alert — then probed HALF_OPEN after a cool-down, with exponential
back-off if the probe fails too. The daemon also tracks **pool
membership** on every cycle: guests created mid-run are admitted (after
a warm-up walk, so they never vote cold), destroyed guests are evicted,
and a rebooted guest — whose cached VMI session now points at a dead
address space — is re-attached and re-warmed before it votes again.
When churn leaves fewer than ``QUORUM_FLOOR`` VMs able to vote, the
cycle emits a degraded alert and suspends integrity checks instead of
crashing. An optional chaos engine (``chaos=``) is stepped at the top
of every cycle, which is how the soak tests drive lifecycle churn
deterministically. The module list is re-discovered every
``rediscover_every`` cycles (and forcibly on any membership change), so
modules loaded after the daemon started are picked up and monitored.

The daemon watches the checker's pool: every hypervisor guest, or the
names a scoped checker's ``members`` closure returns (a fleet shard).
Each cycle ends by advancing the clock one ``interval``, except inside
:meth:`~repro.hypervisor.xen.Hypervisor.deferred_charges`, where the
caller (the fleet's makespan model) owns the clock.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from ..errors import (DomainNotFound, InsufficientPool, IntrospectionFault,
                      RetryExhausted, TransientFault, VMIInitError)
from ..obs import (record_breaker_states, record_chaos_stats,
                   record_daemon_cycle, record_membership)
from .health import BreakerConfig, HealthRegistry
from .modchecker import ModChecker
from .searcher import ModuleSearcher

__all__ = ["Alert", "AlertLog", "SchedulingPolicy", "RoundRobinPolicy",
           "PriorityPolicy", "CheckDaemon", "QUORUM_FLOOR"]

#: fewest votable VMs a pool check needs (voting needs two)
QUORUM_FLOOR = 2


@dataclass(frozen=True)
class Alert:
    """One discrepancy or availability event.

    ``degraded`` names VMs that were dropped from the checking quorum
    for this event (retry budget exhausted); for ``kind="degraded"``
    alerts it is the whole story, for integrity alerts it records which
    VMs could not vote.
    """

    time: float
    module: str
    flagged_vms: tuple[str, ...]
    regions: tuple[str, ...]
    kind: str = "integrity"          # or "hidden-module", "degraded", ...
    degraded: tuple[str, ...] = ()

    def __str__(self) -> str:
        extra = f" [degraded: {','.join(self.degraded)}]" \
            if self.degraded else ""
        return (f"[{self.time:10.3f}s] {self.kind}: {self.module} on "
                f"{','.join(self.flagged_vms)} "
                f"({', '.join(self.regions)}){extra}")


@dataclass
class AlertLog:
    """Append-only alert store with simple queries."""

    alerts: list[Alert] = field(default_factory=list)

    def add(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def for_module(self, module: str) -> list[Alert]:
        return [a for a in self.alerts if a.module == module]

    def for_vm(self, vm: str) -> list[Alert]:
        return [a for a in self.alerts if vm in a.flagged_vms]

    def __len__(self) -> int:
        return len(self.alerts)


class SchedulingPolicy(abc.ABC):
    """Chooses which modules to check in each cycle."""

    @abc.abstractmethod
    def select(self, cycle: int, modules: list[str],
               log: AlertLog) -> list[str]:
        """Modules to check this cycle."""


class RoundRobinPolicy(SchedulingPolicy):
    """``per_cycle`` modules per cycle, rotating through the list."""

    def __init__(self, per_cycle: int = 2) -> None:
        if per_cycle < 1:
            raise ValueError("per_cycle must be >= 1")
        self.per_cycle = per_cycle

    def select(self, cycle: int, modules: list[str],
               log: AlertLog) -> list[str]:
        if not modules:
            return []
        start = (cycle * self.per_cycle) % len(modules)
        picked = [modules[(start + i) % len(modules)]
                  for i in range(min(self.per_cycle, len(modules)))]
        return list(dict.fromkeys(picked))


class PriorityPolicy(SchedulingPolicy):
    """Critical modules every cycle; the rest round-robin."""

    def __init__(self, critical: list[str], tail_per_cycle: int = 1) -> None:
        self.critical = list(critical)
        self.tail = RoundRobinPolicy(tail_per_cycle)

    def select(self, cycle: int, modules: list[str],
               log: AlertLog) -> list[str]:
        tail_modules = [m for m in modules if m not in self.critical]
        picked = [m for m in self.critical if m in modules]
        picked += self.tail.select(cycle, tail_modules, log)
        return picked


class CheckDaemon:
    """Periodic integrity sweeps over the cloud, degrading gracefully."""

    def __init__(self, checker: ModChecker, policy: SchedulingPolicy | None = None,
                 *, interval: float = 60.0, carve: bool = True,
                 rediscover_every: int = 1,
                 breaker: BreakerConfig | None = None,
                 chaos=None,
                 trap_priority: bool = True,
                 lender: Callable[[int, list[str]], list[str]] | None = None,
                 pool_mode: str = "pairwise",
                 slo=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if rediscover_every < 1:
            raise ValueError("rediscover_every must be >= 1")
        self.checker = checker
        self.policy = policy or RoundRobinPolicy()
        self.interval = interval
        self.carve = carve
        self.rediscover_every = rediscover_every
        #: stepped once at the top of every cycle when present (any
        #: object with a ``step()`` — in practice a ChaosEngine)
        self.chaos = chaos
        #: with an event-driven checker, drain the trap rings at the
        #: top of each cycle and re-check the modules that trapped
        #: *before* the policy rotation gets its turn. Disable to keep
        #: the schedule byte-identical to the polling pipelines (the
        #: metamorphic equivalence suite does).
        self.trap_priority = trap_priority
        #: optional quorum lender ``(needed, exclude) -> [vm, ...]``:
        #: when churn leaves this pool short of ``QUORUM_FLOOR``, the
        #: lender supplies votable reference VMs from *outside* the pool
        #: (sibling shards with the same module fingerprint). Borrowed
        #: VMs vote but are never admitted: their breakers, warm-up and
        #: membership stay with their home shard.
        self.lender = lender
        #: "pairwise" (the paper's O(t^2) vote) or "canonical" (the
        #: O(t) clustering vote — what a large fleet shard wants)
        self.pool_mode = pool_mode
        #: optional :class:`~repro.obs.slo.SloEngine`: when set, every
        #: cycle feeds cycle latency / detection latency / MTTR /
        #: coverage under the ``"daemon"`` scope and re-evaluates burn
        #: rates. A fleet does NOT pass this to its shard daemons — the
        #: shard clocks are frozen under deferred charging, so the fleet
        #: records per-shard signals itself from its cost model.
        self.slo = slo
        #: the last :class:`~repro.obs.slo.SloStatus` evaluated (None
        #: until the first cycle with an engine attached)
        self.last_slo_status = None
        #: per-VM circuit breakers
        self.health = HealthRegistry(breaker or BreakerConfig())
        self.log = AlertLog()
        self.cycles_run = 0
        #: pool checks completed / per-VM verdicts produced / borrowed
        #: reference votes used (all cumulative, for the fleet metrics)
        self.checks_run = 0
        self.vm_checks_run = 0
        self.borrowed_refs = 0
        #: terminal remediation outcomes routed through the alert path
        #: (cumulative; only nonzero with a repair-capable checker)
        self.repairs_verified = 0
        self.repairs_failed = 0
        self.repairs_quarantined = 0
        self._modules: list[str] | None = None
        self._modules_cycle = 0
        self._force_rediscover = False
        #: VMs awaiting a successful warm-up walk before they may vote
        self._warmup: set[str] = set()
        #: VM name -> boot generation last seen; seeded from the pool at
        #: construction so cycle 0 does not treat every VM as new
        self._seen_generation: dict[str, int] = {
            d.name: d.boot_generation for d in self._member_domains()}
        #: every membership event observed: (sim time, event, vm) with
        #: event in {"admit", "evict", "reboot"}
        self.membership_log: list[tuple[float, str, str]] = []

    # -- degradation bookkeeping ---------------------------------------------

    @property
    def quarantined(self) -> list[str]:
        """VMs currently excluded from sweeps (sorted for determinism)."""
        return self.health.open_vms()

    def _active_vms(self) -> list[str]:
        """Pool members able to vote: breaker allows, warm-up done."""
        return [vm for vm in self.checker.pool_vm_names()
                if self.health.allowed(vm) and vm not in self._warmup]

    def votable_vms(self) -> list[str]:
        """Public view of the votable pool — what a sibling shard may
        borrow as majority references when its own quorum starves."""
        return self._active_vms()

    def _raise_alert(self, alert: Alert, new_alerts: list[Alert]) -> None:
        """Log + return an alert, and put it on the audit record."""
        self.log.add(alert)
        new_alerts.append(alert)
        events = self.checker.obs.events
        if events.enabled:
            events.emit("alert.raised", kind=alert.kind,
                        module=alert.module,
                        flagged=list(alert.flagged_vms),
                        regions=list(alert.regions))

    def _trip_vm(self, vm: str, reason: str,
                 new_alerts: list[Alert]) -> None:
        """Route a failure to the VM's breaker; alert when it trips."""
        if not self.health.record_failure(vm, reason):
            return
        events = self.checker.obs.events
        if events.enabled:
            events.emit("breaker.tripped", vm=vm, reason=reason)
        # A tripped VM's manifests may describe memory we could no
        # longer read; when the breaker re-closes the VM re-earns its
        # fast path through one full verification.
        self.checker.invalidate_manifests(vm, reason="breaker")
        self._raise_alert(Alert(self.checker.hv.clock.now, "<pool>", (vm,),
                                (reason,), kind="degraded", degraded=(vm,)),
                          new_alerts)

    def _handle_remediations(self, module: str, remediations: list,
                             own: set, new_alerts: list[Alert]) -> None:
        """Fold the repair engine's terminal records into the alert log.

        A verified repair raises a ``repaired`` alert (the operator
        should know the pool self-healed, not just that it alarmed); a
        failed or aborted one raises ``repair-failed`` — never silent —
        and a quarantined record additionally trips the VM's breaker so
        the re-tampering guest stops voting until its cool-down probe.
        Borrowed voters' breakers belong to their home pool, so only
        ``own`` members are tripped here.
        """
        clock = self.checker.hv.clock
        for rec in remediations:
            if rec.status == "verified":
                self.repairs_verified += 1
                if self.slo is not None and rec.mttr is not None:
                    self.slo.record("daemon", "mttr", rec.mttr, clock.now)
                self._raise_alert(
                    Alert(clock.now, module, (rec.vm_name,),
                          tuple(rec.regions), kind="repaired"),
                    new_alerts)
                continue
            reason = rec.reason or "repair retry budget exhausted"
            if rec.status == "quarantined":
                self.repairs_quarantined += 1
                if rec.vm_name in own:
                    self._trip_vm(rec.vm_name,
                                  f"repair quarantine: {reason}",
                                  new_alerts)
            else:
                self.repairs_failed += 1
            self._raise_alert(
                Alert(clock.now, module, (rec.vm_name,),
                      (reason,), kind="repair-failed"
                      if rec.status != "quarantined" else "repair-quarantined"),
                new_alerts)

    # -- membership ----------------------------------------------------------

    def _member_domains(self) -> list:
        """Domains this daemon is responsible for.

        Unscoped, that is every hypervisor guest; under a scoped checker
        (fleet shard) it is the checker's ``members`` resolved against
        the hypervisor — a member whose domain vanished is simply
        absent, which is exactly what lets
        :meth:`_reconcile_membership` evict it.
        """
        members = self.checker.members
        if members is None:
            return list(self.checker.hv.guests())
        domains = []
        for name in members():
            try:
                domains.append(self.checker.hv.domain(name))
            except DomainNotFound:
                continue        # vanished: reconcile will evict it
        return domains

    def _note_membership(self, event: str, vm: str) -> None:
        self.membership_log.append(
            (self.checker.hv.clock.now, event, vm))
        self._force_rediscover = True
        events = self.checker.obs.events
        if events.enabled:
            events.emit("membership.changed", event=event, vm=vm)

    def admit_vm(self, vm: str) -> None:
        """Add a VM to the monitored pool (it warms up before voting)."""
        self._seen_generation[vm] = \
            self.checker.hv.domain(vm).boot_generation
        self.checker.admit_vm(vm)
        self._warmup.add(vm)
        self._note_membership("admit", vm)

    def evict_vm(self, vm: str) -> None:
        """Remove a VM from the monitored pool and forget its state."""
        self._seen_generation.pop(vm, None)
        self._warmup.discard(vm)
        self.health.evict(vm)
        self.checker.evict_vm(vm)
        self._note_membership("evict", vm)

    def _reconcile_membership(self) -> None:
        """Diff the hypervisor's pool against what we last saw.

        New guests are admitted (→ warm-up), vanished guests evicted,
        and a changed boot generation means the guest rebooted behind
        our back: its cached VMI session is stale, so it re-attaches
        and re-warms before voting again.
        """
        current = {d.name: d.boot_generation
                   for d in self._member_domains()}
        for vm in sorted(set(self._seen_generation) - set(current)):
            self.evict_vm(vm)
        for vm, generation in current.items():
            seen = self._seen_generation.get(vm)
            if seen is None:
                self.admit_vm(vm)
            elif generation != seen:
                self._seen_generation[vm] = generation
                self.checker.admit_vm(vm)
                self._warmup.add(vm)
                self._note_membership("reboot", vm)

    def _warm_up_pending(self, new_alerts: list[Alert]) -> None:
        """Try to warm every pending VM; failures go to its breaker."""
        for vm in sorted(self._warmup):
            if not self.health.allowed(vm):
                continue        # breaker OPEN: don't even probe
            try:
                self.checker.warm_up(vm)
            except (TransientFault, RetryExhausted, IntrospectionFault,
                    VMIInitError) as exc:
                self._trip_vm(vm, f"warm-up failed: {exc}", new_alerts)
                continue
            self._warmup.discard(vm)
            self.health.record_success(vm)

    # -- discovery -----------------------------------------------------------

    def _discover_modules(self, active: list[str] | None = None) -> list[str]:
        """(Re-)walk the active VMs' module lists on the discovery TTL.

        The list is refreshed every ``rediscover_every`` cycles so
        modules loaded after the daemon started get monitored too, and
        it is the *union* over the active pool — a module DKOM-hidden
        on one VM stays monitored via every other VM's list. A VM whose
        walk faults — transiently, or permanently on a corrupt list
        (cyclic, NULL FLINK) — is skipped; its checks degrade it on
        their own. If every active VM fails, the last known list is
        reused (or :class:`InsufficientPool` is raised when there never
        was one).
        """
        stale = (self._force_rediscover
                 or self._modules is None
                 or self.cycles_run - self._modules_cycle
                 >= self.rediscover_every)
        if not stale:
            return self._modules  # type: ignore[return-value]
        vms = active if active is not None else self._active_vms()
        if not vms and self._modules is None:
            raise InsufficientPool(
                "no reachable guest to discover modules from")
        union: list[str] = []
        seen: set[str] = set()
        walked = False
        for vm in vms:
            try:
                vmi = self.checker.vmi_for(vm)
                if self.checker.flush_caches_each_round:
                    vmi.flush_caches()
                entries = ModuleSearcher(vmi).list_modules()
            except IntrospectionFault:
                continue
            walked = True
            for entry in entries:
                if entry.name not in seen:
                    seen.add(entry.name)
                    union.append(entry.name)
        if walked:
            self._modules = union
            self._modules_cycle = self.cycles_run
            self._force_rediscover = False
        if self._modules is None:
            raise InsufficientPool(
                "module discovery failed on every reachable guest")
        return self._modules

    # -- the cycle -----------------------------------------------------------

    def run_cycle(self) -> list[Alert]:
        """One daemon cycle: scheduled checks + one carving sweep."""
        clock = self.checker.hv.clock
        obs = self.checker.obs
        events = obs.events
        cycle_start = clock.now
        new_alerts: list[Alert] = []
        scoped = self.checker.members is not None
        # One correlation id per cycle: every event emitted anywhere
        # below — in ModChecker, the integrity checker, the breakers —
        # carries it, making the cycle one joinable causal record.
        check_id = events.new_check_id()
        with events.correlate(check_id), \
             obs.tracer.span("daemon.cycle",
                             cycle=self.cycles_run) as cycle_span:
            if self.chaos is not None:
                for chaos_event in self.chaos.step():
                    if events.enabled:
                        events.emit("chaos.applied", kind=chaos_event.kind,
                                    vm=chaos_event.vm)
                    if chaos_event.kind == "migrate-finish":
                        # Live migration rewrites the guest's physical
                        # placement; page digests recorded pre-move are
                        # no longer evidence about the new frames.
                        self.checker.invalidate_manifests(
                            chaos_event.vm, reason="migration")
            self.health.tick()
            self._reconcile_membership()
            self._warm_up_pending(new_alerts)
            active = self._active_vms()
            borrowed: list[str] = []
            if 0 < len(active) < QUORUM_FLOOR and self.lender is not None:
                # Quorum starved but the pool is not empty: ask the
                # lender for sibling references. Borrowed VMs vote this
                # cycle only; they are never admitted here, and their
                # breakers stay with their home pool. Target one voter
                # *above* the floor: a two-voter pool can only tie on a
                # mismatch (both flagged), while floor+1 lets the
                # borrowed majority out-vote a tampered member.
                needed = QUORUM_FLOOR + 1 - len(active)
                borrowed = [vm for vm in self.lender(needed, active)
                            if vm not in active]
                if borrowed:
                    self.borrowed_refs += len(borrowed)
                    if events.enabled:
                        events.emit("quorum.borrowed",
                                    pool=len(active),
                                    borrowed=list(borrowed),
                                    floor=QUORUM_FLOOR)
            voters = active + borrowed
            own = set(active)

            if len(voters) >= QUORUM_FLOOR and active:
                modules = self._discover_modules(active)
                schedule = self.policy.select(self.cycles_run, modules,
                                              self.log)
                if self.trap_priority:
                    # Trap subscription: modules whose protected pages
                    # were written get re-checked this cycle, ahead of
                    # the rotation, instead of waiting their turn.
                    urgent = [m for m in
                              self.checker.pending_trap_modules(active)
                              if m in modules]
                    schedule = list(dict.fromkeys(urgent + list(schedule)))
                for module in schedule:
                    try:
                        outcome = self.checker.check_pool(
                            module, vms=voters, mode=self.pool_mode)
                    except InsufficientPool:
                        continue
                    report = outcome.report
                    self.checks_run += 1
                    self.vm_checks_run += len(report.verdicts)
                    for vm, reason in sorted(report.degraded.items()):
                        # Exhausted retry budgets and vanished domains
                        # indicate a sick VM; an "unreadable:" reason is a
                        # permanent failure of this one module (e.g. a decoy
                        # entry) — degrade the check, keep the VM voting.
                        # Borrowed voters' health is their home pool's
                        # business, not ours.
                        if vm in own and reason.startswith(
                                ("retry-exhausted", "unreachable")):
                            self._trip_vm(vm, reason, new_alerts)
                    for vm in report.verdicts:
                        if vm in own:
                            self.health.record_success(vm)
                    if not report.all_clean:
                        flagged = tuple(report.flagged())
                        regions: list[str] = []
                        for vm in flagged:
                            for region in report.mismatched_regions(vm):
                                if region not in regions:
                                    regions.append(region)
                        self._raise_alert(
                            Alert(clock.now, module, flagged,
                                  tuple(regions),
                                  degraded=tuple(sorted(report.degraded))),
                            new_alerts)
                    self._handle_remediations(module, outcome.remediations,
                                              own, new_alerts)
            elif scoped or len(self.checker.pool_vm_names()) > len(active):
                # Degrade loudly, never crash the service. Unscoped
                # daemons alert only when *churn* (not pool size as
                # provisioned) starved the quorum — a 1-VM testbed is
                # the operator's choice, not an incident. A scoped
                # (fleet-shard) daemon always alerts: the fleet placed
                # this shard, so an unborrowable starved shard is an
                # operational signal its operator needs to see.
                self._raise_alert(
                    Alert(clock.now, "<pool>", (),
                          (f"quorum starved: {len(active)} votable "
                           f"VM(s), floor is {QUORUM_FLOOR}; "
                           f"integrity checks suspended",),
                          kind="degraded",
                          degraded=tuple(self.health.open_vms())),
                    new_alerts)

            if self.carve and active:
                self._carve_sweep(active, new_alerts)

            cycle_span.set(alerts=len(new_alerts),
                           quarantined=len(self.health.open_vms()),
                           pool=len(active))
            if events.enabled:
                events.emit("daemon.cycle", cycle=self.cycles_run,
                            alerts=len(new_alerts), pool=len(active),
                            quarantined=len(self.health.open_vms()))
        self.cycles_run += 1
        if self.slo is not None:
            now = clock.now
            self.slo.record("daemon", "cycle_latency",
                            now - cycle_start, now)
            pool = self.checker.pool_vm_names()
            if pool:
                self.slo.record("daemon", "coverage",
                                len(active) / len(pool), now)
            for alert in new_alerts:
                if alert.kind in ("integrity", "hidden-module"):
                    self.slo.record("daemon", "detection_latency",
                                    alert.time - cycle_start, now)
            self.last_slo_status = self.slo.evaluate(now)
        if obs.metrics.enabled:
            record_daemon_cycle(obs.metrics,
                                duration=clock.now - cycle_start,
                                alerts=new_alerts,
                                quarantined=len(self.health.open_vms()))
            record_breaker_states(obs.metrics, self.health)
            if not scoped:
                # Scoped daemons share one registry with their sibling
                # shards; the cumulative membership counters carry no
                # per-pool label, so per-shard publication would fight
                # over one series. The fleet publishes its own
                # membership aggregates instead.
                record_membership(
                    obs.metrics,
                    pool_size=len(self.checker.pool_vm_names()),
                    events=self.membership_log)
            if self.chaos is not None and hasattr(self.chaos, "stats"):
                record_chaos_stats(obs.metrics, self.chaos.stats)
        if not self.checker.hv.charges_deferred:
            clock.advance(self.interval)
        return new_alerts

    def _carve_sweep(self, active: list[str],
                     new_alerts: list[Alert]) -> None:
        """Cross-view one rotating VM, carving its driver arena *once*.

        The carve is shared between hidden-module detection and decoy
        spotting: ``cross_view`` already carved the arena, so its
        ``carved_only`` images go straight to identification instead of
        a second carve of the same guest.
        """
        from .crossview import cross_view
        clock = self.checker.hv.clock
        target = active[self.cycles_run % len(active)]
        try:
            vmi = self.checker.vmi_for(target)
            if self.checker.flush_caches_each_round:
                vmi.flush_caches()
            view = cross_view(vmi)
            identified = self.checker.identify_carved_modules(
                target, view.carved_only)
        except (TransientFault, RetryExhausted, VMIInitError) as exc:
            self._trip_vm(target, f"carving sweep failed: {exc}",
                          new_alerts)
            return
        events = self.checker.obs.events
        if events.enabled:
            events.emit("module.carved", vm=target,
                        hidden=len(identified),
                        decoys=len(view.listed_only))
        for carved, name in identified:
            self._raise_alert(
                Alert(clock.now, name or f"<unknown@{carved.base:#x}>",
                      (target,), ("unlinked from PsLoadedModuleList",),
                      kind="hidden-module"),
                new_alerts)
        for entry in view.listed_only:
            self._raise_alert(
                Alert(clock.now, entry.name, (target,),
                      (f"DllBase {entry.dll_base:#x} not backed "
                       f"by a module image",),
                      kind="decoy-entry"),
                new_alerts)

    def run(self, cycles: int) -> AlertLog:
        """Run ``cycles`` sweeps; returns the accumulated alert log."""
        for _ in range(cycles):
            self.run_cycle()
        return self.log
