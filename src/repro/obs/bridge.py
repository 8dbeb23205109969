"""Bridges from pipeline state to the metrics registry.

The pipeline already keeps rich counters (:class:`~repro.vmi.core.VMIStats`,
:class:`~repro.hypervisor.faults.FaultStats`,
:class:`~repro.core.report.PoolReport`,
:class:`~repro.perf.timing.ComponentTimings`); this module maps them
onto a stable metric vocabulary so exporters, dashboards and the CI
gate all speak the same names:

===========================================  ======  ========================
``modchecker_checks_total``                  counter ``module``, ``verdict``
``modchecker_quorum_size``                   gauge   ``module``
``modchecker_degraded_votes_total``          counter ``vm``, ``category``
``modchecker_stage_seconds``                 histo   ``stage``
``modchecker_vmi_pages_mapped_total``        counter ``vm``
``modchecker_vmi_bytes_read_total``          counter ``vm``
``modchecker_vmi_translations_total``        counter ``vm``
``modchecker_vmi_batch_pages_total``         counter ``vm``
``modchecker_vmi_batch_fallbacks_total``     counter ``vm``
``modchecker_cache_hits_total``              counter ``vm``, ``cache``
``modchecker_cache_hit_ratio``               gauge   ``vm``, ``cache``
``modchecker_vmi_transient_faults_total``    counter ``vm``
``modchecker_vmi_retries_total``             counter ``vm``
``modchecker_vmi_retries_recovered_total``   counter ``vm``
``modchecker_faults_injected_total``         counter ``kind``
``modchecker_daemon_cycle_seconds``          histo   (none)
``modchecker_daemon_alerts_total``           counter ``kind``
``modchecker_daemon_quarantined``            gauge   (none)
``modchecker_breaker_state``                 gauge   ``vm``
``modchecker_breaker_transitions_total``     counter ``vm``, ``state``
``modchecker_pool_size``                     gauge   (none)
``modchecker_membership_events_total``       counter ``event``
``modchecker_chaos_events_total``            counter ``kind``
``modchecker_manifest_hits_total``           counter (none)
``modchecker_manifest_misses_total``         counter ``reason``
``modchecker_manifest_invalidations_total``  counter ``reason``
``modchecker_manifest_entries``              gauge   (none)
``modchecker_pair_replays_total``            counter (none)
``modchecker_vmi_pages_protected_total``     counter ``vm``
``modchecker_vmi_traps_drained_total``       counter ``vm``
``modchecker_trap_validations_total``        counter (none)
``modchecker_trap_pages_checked_total``      counter (none)
``modchecker_trap_fallbacks_total``          counter ``reason``
``modchecker_traps_total``                   counter ``outcome``
``modchecker_protected_frames``              gauge   (none)
``modchecker_fleet_shards``                  gauge   (none)
``modchecker_fleet_vms``                     gauge   (none)
``modchecker_fleet_shard_size``              gauge   ``shard``
``modchecker_fleet_cycle_seconds``           histo   (none)
``modchecker_fleet_checks_total``            counter (none)
``modchecker_fleet_vm_checks_total``         counter (none)
``modchecker_fleet_borrowed_refs_total``     counter (none)
``modchecker_fleet_shard_events_total``      counter ``event``
``modchecker_repair_attempts_total``         counter (none)
``modchecker_repair_outcomes_total``         counter ``status``
``modchecker_repair_hunks_written_total``    counter (none)
``modchecker_repair_bytes_written_total``    counter (none)
``modchecker_repair_raced_writes_total``     counter (none)
``modchecker_repair_mttr_seconds``           gauge   ``stat``
``modchecker_slo_state``                     gauge   ``objective``
``modchecker_slo_budget_remaining``          gauge   ``objective``
``modchecker_slo_burn_rate``                 gauge   ``objective``, ``window``
``modchecker_slo_events_total``              counter ``objective``, ``outcome``
``modchecker_slo_breaches_total``            counter ``objective``
``modchecker_slo_latency``                   gauge   ``objective``, ``quantile``
===========================================  ======  ========================

Cumulative sources are published with :meth:`Counter.set_to` (they
already count monotonically); per-round values (cache hit ratios, which
reset with each :meth:`VMIInstance.flush_caches`) are gauges. Stage
latencies are fed from the same :class:`ComponentTimings` the cost
model produces, so the Prometheus ``modchecker_stage_seconds_sum``
series reconciles exactly with the simulated timing breakdown.
"""

from __future__ import annotations

from ..perf.timing import ComponentTimings

__all__ = ["STAGES", "BREAKER_STATE_VALUES", "record_stage_timings",
           "record_pool_report", "record_vmi_instance",
           "record_fault_stats", "record_daemon_cycle",
           "record_breaker_states", "record_membership",
           "record_chaos_stats", "record_manifest_stats",
           "record_trap_stats", "record_fleet_cycle",
           "record_repair_stats", "record_slo_status"]

#: The pipeline stages of the Fig. 7/8 breakdown.
STAGES = ("searcher", "parser", "checker")


def record_stage_timings(metrics, timings: ComponentTimings,
                         module: str | None = None) -> None:
    """Feed one check's component breakdown into the stage histogram."""
    hist = metrics.histogram(
        "modchecker_stage_seconds",
        "Simulated seconds per pipeline stage per check")
    for stage in STAGES:
        hist.observe(getattr(timings, stage), stage=stage)
    if module is not None:
        metrics.histogram(
            "modchecker_check_seconds",
            "Simulated end-to-end seconds per check").observe(
                timings.total, module=module)


def record_pool_report(metrics, report, module: str | None = None) -> None:
    """PoolReport -> quorum/verdict/degradation metrics."""
    module = module if module is not None else report.module_name
    verdict = "clean" if report.all_clean else "flagged"
    metrics.counter(
        "modchecker_checks_total",
        "Completed pool checks by verdict").inc(
            module=module, verdict=verdict)
    metrics.gauge(
        "modchecker_quorum_size",
        "Surviving voting quorum of the last check").set(
            len(report.verdicts), module=module)
    degraded = metrics.counter(
        "modchecker_degraded_votes_total",
        "Votes lost to degraded (unacquirable) VMs")
    for vm, reason in sorted(report.degraded.items()):
        category = reason.split(":", 1)[0] if ":" in reason else "other"
        degraded.inc(vm=vm, category=category)


def record_vmi_instance(metrics, vm_name: str, vmi, base=None) -> None:
    """VMIStats + cache state for one introspection session.

    ``base`` carries the folded counters of earlier sessions on the
    same VM (the checker re-attaches after a reboot); adding it keeps
    the cumulative series monotonic across session restarts. ``vmi``
    may be ``None`` for a VM with *only* folded history (its session
    was retired — reboot, eviction — and not yet re-attached): the
    cumulative counters still publish, so an evicted VM's final
    session tail is never silently dropped from the totals; only the
    per-round cache-ratio gauges (meaningless without a live session)
    are skipped.
    """
    stats = vmi.stats if vmi is not None else base
    if stats is None:
        return
    if vmi is not None and base is not None:
        stats = type(stats)(**{
            name: getattr(base, name) + value
            for name, value in vars(stats).items()})
    metrics.counter(
        "modchecker_vmi_pages_mapped_total",
        "Foreign guest frames mapped into Dom0").set_to(
            stats.pages_mapped, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_bytes_read_total",
        "Guest bytes copied out through VMI").set_to(
            stats.bytes_read, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_translations_total",
        "Guest page-table walks performed").set_to(
            stats.translations, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_batch_pages_total",
        "Pages served by the vectorised acquisition path").set_to(
            stats.batch_pages, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_batch_fallbacks_total",
        "Batched calls that stood down to the scalar path").set_to(
            stats.batch_fallbacks, vm=vm_name)
    hits = metrics.counter(
        "modchecker_cache_hits_total",
        "VMI cache hits (cumulative, never reset)")
    hits.set_to(stats.translation_cache_hits, vm=vm_name, cache="v2p")
    hits.set_to(stats.page_cache_hits, vm=vm_name, cache="page")
    if vmi is not None:
        ratio = metrics.gauge(
            "modchecker_cache_hit_ratio",
            "Per-round cache hit ratio (resets with each cache flush)")
        ratio.set(vmi.v2p_cache.hit_rate, vm=vm_name, cache="v2p")
        ratio.set(vmi.page_cache.hit_rate, vm=vm_name, cache="page")
    metrics.counter(
        "modchecker_vmi_transient_faults_total",
        "Transient introspection faults observed").set_to(
            stats.transient_faults, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_retries_total",
        "Guest reads re-issued after a transient fault").set_to(
            stats.retries, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_retries_recovered_total",
        "Reads that succeeded after at least one retry").set_to(
            stats.retries_recovered, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_pages_protected_total",
        "Guest frames armed with write-protection").set_to(
            stats.pages_protected, vm=vm_name)
    metrics.counter(
        "modchecker_vmi_traps_drained_total",
        "Coalesced write traps drained by this session").set_to(
            stats.traps_drained, vm=vm_name)


def record_fault_stats(metrics, fault_stats) -> None:
    """FaultStats -> injected-fault counters, one series per kind."""
    counter = metrics.counter(
        "modchecker_faults_injected_total",
        "Faults injected by kind")
    stats = fault_stats.as_dict()
    for kind in ("transient", "torn_pages", "stale_served", "paged_out",
                 "window_hits", "unreachable"):
        counter.set_to(stats[kind], kind=kind)
    metrics.counter(
        "modchecker_faulted_reads_total",
        "Guest reads that passed through the fault gate").set_to(
            stats["reads"])


def record_daemon_cycle(metrics, *, duration: float, alerts,
                        quarantined: int) -> None:
    """One daemon sweep: cycle latency, alert mix, quarantine depth."""
    metrics.histogram(
        "modchecker_daemon_cycle_seconds",
        "Simulated seconds per daemon cycle").observe(duration)
    alert_counter = metrics.counter(
        "modchecker_daemon_alerts_total", "Alerts raised by kind")
    for alert in alerts:
        alert_counter.inc(kind=alert.kind)
    metrics.gauge(
        "modchecker_daemon_quarantined",
        "VMs currently quarantined").set(quarantined)


#: Numeric encoding of circuit-breaker states for the state gauge
#: (ordered by severity so dashboards can threshold on it).
BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


def record_breaker_states(metrics, health) -> None:
    """HealthRegistry -> per-VM breaker state + transition counters."""
    state_gauge = metrics.gauge(
        "modchecker_breaker_state",
        "Circuit breaker state per VM (0=closed, 1=half-open, 2=open)")
    for vm, state in health.states().items():
        state_gauge.set(BREAKER_STATE_VALUES[state.value], vm=vm)
    transitions = metrics.counter(
        "modchecker_breaker_transitions_total",
        "Circuit breaker transitions by entered state")
    for vm, counts in health.transition_counts().items():
        for state, count in sorted(counts.items()):
            transitions.set_to(count, vm=vm, state=state)


def record_membership(metrics, *, pool_size: int, events) -> None:
    """Pool membership: current size plus the cumulative event log.

    ``events`` is the daemon's ``membership_log`` — (time, event, vm)
    tuples; being cumulative, it is published with ``set_to``.
    """
    metrics.gauge(
        "modchecker_pool_size",
        "Guests currently in the monitored pool").set(pool_size)
    totals: dict[str, int] = {}
    for _, event, _ in events:
        totals[event] = totals.get(event, 0) + 1
    counter = metrics.counter(
        "modchecker_membership_events_total",
        "Pool membership events by kind")
    for event, count in sorted(totals.items()):
        counter.set_to(count, event=event)


def record_manifest_stats(metrics, stats, *, entries: int,
                          pair_replays: int = 0) -> None:
    """ManifestStats counters -> incremental-pipeline metrics.

    ``stats`` is a :class:`~repro.vmi.cache.ManifestStats` (one
    store's, or a fleet's sum over its shards). All sources are
    cumulative (a store never resets its counters), so everything
    publishes via ``set_to``; the only instantaneous value is
    ``entries``, the manifests held right now, which is a gauge. The
    miss/invalidations reason labels follow the taxonomy documented on
    :class:`~repro.vmi.cache.ManifestStore`.
    """
    metrics.counter(
        "modchecker_manifest_hits_total",
        "Manifest lookups that found a structurally valid entry").set_to(
            stats.hits)
    misses = metrics.counter(
        "modchecker_manifest_misses_total",
        "Manifest lookups that missed, by reason")
    for reason, count in sorted(stats.misses.items()):
        misses.set_to(count, reason=reason)
    invalidations = metrics.counter(
        "modchecker_manifest_invalidations_total",
        "Manifest entries dropped, by reason")
    for reason, count in sorted(stats.invalidations.items()):
        invalidations.set_to(count, reason=reason)
    metrics.gauge(
        "modchecker_manifest_entries",
        "Manifests currently held by the store").set(entries)
    metrics.counter(
        "modchecker_pair_replays_total",
        "Pairwise comparisons served from the content-keyed "
        "replay cache").set_to(pair_replays)


def record_trap_stats(metrics, queue_stats, *, validations: int,
                      pages_checked: int, fallbacks: dict,
                      protected_frames: int) -> None:
    """Event-driven pipeline counters -> trap metrics.

    ``queue_stats`` is the hypervisor ring's
    :class:`~repro.hypervisor.traps.TrapStats`; ``validations`` /
    ``pages_checked`` / ``fallbacks`` come from the checker's trap
    path. All cumulative, hence ``set_to``; the only instantaneous
    value is the pool-wide protected-frame count, a gauge. The
    ``fallbacks`` reason labels follow the taxonomy ``exhausted`` /
    ``paranoia`` / ``lifecycle`` / ``unprotectable``.
    """
    metrics.counter(
        "modchecker_trap_validations_total",
        "Manifest validations satisfied purely by trap evidence").set_to(
            validations)
    metrics.counter(
        "modchecker_trap_pages_checked_total",
        "Pages re-digested because traps (or unprotectable pages) "
        "named them").set_to(pages_checked)
    fallback_counter = metrics.counter(
        "modchecker_trap_fallbacks_total",
        "Trap validations that fell back to sweep work, by reason")
    for reason, count in sorted(fallbacks.items()):
        fallback_counter.set_to(count, reason=reason)
    ring = metrics.counter(
        "modchecker_traps_total",
        "Write traps through the hypervisor ring, by outcome")
    snap = queue_stats.snapshot()
    for outcome in ("delivered", "coalesced", "dropped", "drained"):
        ring.set_to(snap[outcome], outcome=outcome)
    metrics.gauge(
        "modchecker_protected_frames",
        "Guest frames currently write-protected across the pool").set(
            protected_frames)


def record_fleet_cycle(metrics, stats, *, shard_sizes: dict,
                       cycle_seconds: float) -> None:
    """FleetStats + shard census -> fleet control-plane metrics.

    ``stats`` is the fleet's cumulative
    :class:`~repro.cloud.fleet.FleetStats` (hence ``set_to``);
    ``shard_sizes`` maps shard name -> member count right now;
    ``cycle_seconds`` is this round's simulated makespan.
    """
    metrics.gauge(
        "modchecker_fleet_shards",
        "Shards currently in the fleet").set(len(shard_sizes))
    metrics.gauge(
        "modchecker_fleet_vms",
        "VMs currently placed across all shards").set(
            sum(shard_sizes.values()))
    size_gauge = metrics.gauge(
        "modchecker_fleet_shard_size", "Members per shard")
    for shard, size in sorted(shard_sizes.items()):
        size_gauge.set(size, shard=shard)
    metrics.histogram(
        "modchecker_fleet_cycle_seconds",
        "Simulated seconds per fleet scheduler round (makespan over "
        "concurrent shards)").observe(cycle_seconds)
    metrics.counter(
        "modchecker_fleet_checks_total",
        "Pool checks completed across all shards").set_to(
            stats.checks_total)
    metrics.counter(
        "modchecker_fleet_vm_checks_total",
        "Per-VM verdicts produced across all shards").set_to(
            stats.vm_checks_total)
    metrics.counter(
        "modchecker_fleet_borrowed_refs_total",
        "Reference votes borrowed from sibling shards").set_to(
            stats.borrowed_refs_total)
    events = metrics.counter(
        "modchecker_fleet_shard_events_total",
        "Shard lifecycle events by kind")
    for event, count in sorted(stats.shard_events.items()):
        events.set_to(count, event=event)
    # The fleet owns the per-VM membership series: its scoped shard
    # daemons share one registry and must not race on this counter, so
    # they skip record_membership and the fleet sums their logs.
    membership = metrics.counter(
        "modchecker_membership_events_total",
        "Pool membership events by kind")
    for event, count in sorted(stats.membership_events.items()):
        membership.set_to(count, event=event)


def record_repair_stats(metrics, repair_stats) -> None:
    """RepairStats -> remediation counters + the MTTR gauge family.

    ``repair_stats`` is the engine's cumulative
    :class:`~repro.core.repair.RepairStats` (hence ``set_to``); the
    MTTR aggregates (mean/max over verified remediations, simulated
    seconds from detection verdict to verified-clean re-check) publish
    as a ``stat``-labelled gauge so dashboards can threshold on either.
    """
    metrics.counter(
        "modchecker_repair_attempts_total",
        "Write-back remediation attempts").set_to(repair_stats.attempts)
    outcomes = metrics.counter(
        "modchecker_repair_outcomes_total",
        "Terminal remediation outcomes by status")
    outcomes.set_to(repair_stats.verified, status="verified")
    outcomes.set_to(repair_stats.failed, status="failed")
    outcomes.set_to(repair_stats.quarantined, status="quarantined")
    outcomes.set_to(repair_stats.aborted, status="aborted")
    metrics.counter(
        "modchecker_repair_hunks_written_total",
        "Tamper/structural hunks written back to guests").set_to(
            repair_stats.hunks_written)
    metrics.counter(
        "modchecker_repair_bytes_written_total",
        "Guest bytes written back by the repair engine").set_to(
            repair_stats.bytes_written)
    metrics.counter(
        "modchecker_repair_raced_writes_total",
        "Guest writes trapped inside armed repair windows").set_to(
            repair_stats.raced_writes)
    mttr = metrics.gauge(
        "modchecker_repair_mttr_seconds",
        "Detect-to-verified-clean time over verified remediations "
        "(simulated clock)")
    mttr.set(repair_stats.mttr_mean, stat="mean")
    mttr.set(repair_stats.mttr_max, stat="max")


#: Numeric encoding of SLO states for the state gauge (ordered by
#: severity, mirroring the fleet exit-code contract 0/1/2).
SLO_STATE_VALUES = {"ok": 0, "warn": 1, "critical": 2}


def record_slo_status(metrics, status, *, breaches: dict) -> None:
    """Pooled :class:`~repro.obs.slo.SloStatus` -> ``modchecker_slo_*``.

    ``status`` is the engine's aggregate (worst state / min budget /
    max burn across scopes); ``breaches`` maps objective name to the
    cumulative count of breach *edges* (entries into critical), which
    publishes via ``set_to``. The quantile gauges carry the HDR
    histogram's p50/p90/p99/p999 — seconds for latency objectives, a
    fraction for ``coverage``, hence the unitless metric name.
    """
    state_gauge = metrics.gauge(
        "modchecker_slo_state",
        "SLO state per objective (0=ok, 1=warn, 2=critical)")
    budget_gauge = metrics.gauge(
        "modchecker_slo_budget_remaining",
        "Error budget remaining over the slow window (1=untouched)")
    burn_gauge = metrics.gauge(
        "modchecker_slo_burn_rate",
        "Error-budget burn rate per alerting window")
    events_counter = metrics.counter(
        "modchecker_slo_events_total",
        "Classified SLO events by outcome (lifetime totals)")
    breach_counter = metrics.counter(
        "modchecker_slo_breaches_total",
        "Burn-rate breach edges (entries into critical)")
    quantile_gauge = metrics.gauge(
        "modchecker_slo_latency",
        "HDR-histogram quantiles of the objective's signal")
    for obj in status.objectives:
        state_gauge.set(SLO_STATE_VALUES[obj.state], objective=obj.name)
        budget_gauge.set(obj.budget_remaining, objective=obj.name)
        burn_gauge.set(obj.fast_burn, objective=obj.name, window="fast")
        burn_gauge.set(obj.slow_burn, objective=obj.name, window="slow")
        # lifetime totals, not window counts: windows shrink as
        # events age out and a counter must never go backwards
        events_counter.set_to(obj.total_good, objective=obj.name,
                              outcome="good")
        events_counter.set_to(obj.total_bad, objective=obj.name,
                              outcome="bad")
        breach_counter.set_to(breaches.get(obj.name, 0),
                              objective=obj.name)
        for q, value in obj.quantiles.items():
            quantile_gauge.set(
                value, objective=obj.name,
                quantile=f"p{str(q).replace('0.', '')}")


def record_chaos_stats(metrics, chaos_stats) -> None:
    """ChaosStats -> lifecycle-churn counters, one series per kind."""
    counter = metrics.counter(
        "modchecker_chaos_events_total",
        "Lifecycle chaos events applied by kind")
    stats = chaos_stats.as_dict()
    for kind in ("reboots", "pauses", "unpauses", "migrations",
                 "migrations_finished", "destroys", "creates"):
        counter.set_to(stats[kind], kind=kind)
