"""Bridges from pipeline state to the metrics registry.

Cumulative counters are declared on the stats objects that own them
(see :mod:`repro.counters`) and published by :func:`record_stats` via
:meth:`Counter.set_to`. The rest is hand-published here: per-round
gauges (cache hit ratios reset with each cache flush), breaker and SLO
state, and the stage histograms, fed from the cost model's
:class:`ComponentTimings` so ``modchecker_stage_seconds_sum``
reconciles with the simulated breakdown. ``docs/OBSERVABILITY.md``
lists every family (``tools/check_event_vocab.py`` checks it).
"""

from __future__ import annotations

from ..counters import fold
from ..perf.timing import ComponentTimings

__all__ = ["STAGES", "BREAKER_STATE_VALUES", "record_stats",
           "record_stage_timings", "record_pool_report",
           "record_vmi_instance", "record_daemon_cycle",
           "record_breaker_states", "record_membership",
           "record_pipeline_stats", "record_fleet_cycle",
           "record_slo_status"]

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


def record_stats(metrics, stats, group: str = "", **labels) -> None:
    """Publish one ``group`` of the series ``type(stats)`` declares, with
    ``labels`` added to each. A dict source publishes one series per
    key, sorted, and registers its family even while empty."""
    for name, help, field, fixed, by, kind in type(stats).SERIES[group]:
        if kind == "counter":
            publish = metrics.counter(name, help).set_to
        else:
            publish = metrics.gauge(name, help).set
        value = getattr(stats, field)
        if by is not None:
            for key, count in sorted(value.items()):
                publish(count, **{by: key}, **labels)
        elif fixed:
            publish(value, **fixed, **labels)
        else:
            publish(value, **labels)


def record_vmi_instance(metrics, vm_name: str, vmi, base=None) -> None:
    """VMIStats + cache state for one introspection session.

    ``base`` folds earlier sessions on the VM (retired by a reboot or
    eviction), keeping the series monotonic across re-attaches. With
    ``vmi=None`` only that folded history publishes — an evicted VM's
    last session tail is never dropped — minus the per-round cache
    ratio gauges, which need a live session.
    """
    stats = vmi.stats if vmi is not None else base
    if stats is None:
        return
    if vmi is not None and base is not None:
        stats = fold(base, stats)
    record_stats(metrics, stats, vm=vm_name)
    if vmi is not None:
        ratio = metrics.gauge(
            "modchecker_cache_hit_ratio",
            "Per-round cache hit ratio (resets with each cache flush)")
        ratio.set(vmi.v2p_cache.hit_rate, vm=vm_name, cache="v2p")
        ratio.set(vmi.page_cache.hit_rate, vm=vm_name, cache="page")
    record_stats(metrics, stats, "faults", vm=vm_name)


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


def record_membership(metrics, stats, *, pool_size: int) -> None:
    """Pool size gauge + a DaemonStats' membership event counters."""
    metrics.gauge(
        "modchecker_pool_size",
        "Guests currently in the monitored pool").set(pool_size)
    record_stats(metrics, stats)


def record_pipeline_stats(metrics, checker, counters, manifests, repair,
                          *, entries: int) -> None:
    """Manifest, repair and trap series, for ``checker``'s pipeline mode.

    ``counters`` (CheckerStats), ``manifests`` and ``repair`` (None
    without an engine) are the checker's own stats, or a fleet's folds
    over its shard checkers. ``entries`` (manifests held now) and the
    pool's write-protected frames are gauges.
    """
    if checker.incremental:
        record_stats(metrics, manifests)
        metrics.gauge(
            "modchecker_manifest_entries",
            "Manifests currently held by the store").set(entries)
        record_stats(metrics, counters)
    if repair is not None:
        record_stats(metrics, repair)
    if checker.event_driven:
        record_stats(metrics, counters, "traps")
        record_stats(metrics, checker.hv.traps.stats)
        metrics.gauge(
            "modchecker_protected_frames",
            "Guest frames currently write-protected across the pool").set(
                sum(len(d.protected_frames) for d in checker.hv.guests()))


def record_fleet_cycle(metrics, stats, *, shard_sizes: dict,
                       cycle_seconds: float) -> None:
    """FleetStats, shard census (name -> members now) and this round's
    simulated makespan -> fleet control-plane metrics."""
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
    record_stats(metrics, stats)


#: Numeric encoding of SLO states for the state gauge (ordered by
#: severity, mirroring the fleet exit-code contract 0/1/2).
SLO_STATE_VALUES = {"ok": 0, "warn": 1, "critical": 2}


def record_slo_status(metrics, status, *, breaches: dict) -> None:
    """Pooled :class:`~repro.obs.slo.SloStatus` -> ``modchecker_slo_*``.

    ``breaches`` maps objective -> cumulative breach edges (entries
    into critical). The quantile gauges carry the HDR histogram's
    p50/p90/p99/p999: seconds for latency objectives, a fraction for
    ``coverage``, hence the unitless metric name.
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
