"""Bridge tests for the churn-era metrics: breaker state, membership,
chaos counters, and counter monotonicity across VMI session restarts."""

from __future__ import annotations

from repro.cloud import ChaosStats, build_testbed
from repro.core import ModChecker
from repro.core.daemon import DaemonStats
from repro.core.health import BreakerConfig, HealthRegistry
from repro.obs import (BREAKER_STATE_VALUES, MetricsRegistry,
                       record_breaker_states, record_membership,
                       record_stats, record_vmi_instance)


class TestBreakerMetrics:
    def test_state_gauge_encodes_severity(self):
        health = HealthRegistry(BreakerConfig(open_cycles=1))
        health.record_failure("Dom1", "down")
        health.breaker("Dom2").record_success()
        reg = MetricsRegistry()
        record_breaker_states(reg, health)
        gauge = reg.gauge("modchecker_breaker_state")
        assert gauge.value(vm="Dom1") == BREAKER_STATE_VALUES["open"]
        assert gauge.value(vm="Dom2") == BREAKER_STATE_VALUES["closed"]

    def test_transition_counters_cumulative(self):
        health = HealthRegistry(BreakerConfig(open_cycles=1))
        health.record_failure("Dom1")
        health.tick()                      # -> half_open
        health.record_success("Dom1")      # -> closed
        reg = MetricsRegistry()
        record_breaker_states(reg, health)
        counter = reg.counter("modchecker_breaker_transitions_total")
        assert counter.value(vm="Dom1", state="open") == 1
        assert counter.value(vm="Dom1", state="half_open") == 1
        assert counter.value(vm="Dom1", state="closed") == 1
        # Re-recording the same registry state is idempotent.
        record_breaker_states(reg, health)
        assert counter.value(vm="Dom1", state="open") == 1


class TestMembershipMetrics:
    def test_pool_size_and_event_totals(self):
        reg = MetricsRegistry()
        stats = DaemonStats(
            membership_events={"admit": 2, "reboot": 1, "evict": 1})
        record_membership(reg, stats, pool_size=4)
        assert reg.gauge("modchecker_pool_size").value() == 4
        counter = reg.counter("modchecker_membership_events_total")
        assert counter.value(event="admit") == 2
        assert counter.value(event="reboot") == 1
        assert counter.value(event="evict") == 1

    def test_cumulative_log_replays_monotonically(self):
        # the daemon keeps running counts next to its membership log;
        # republishing after another event moves the counter forward
        reg = MetricsRegistry()
        stats = DaemonStats(membership_events={"admit": 1})
        record_membership(reg, stats, pool_size=3)
        stats.membership_events["admit"] += 1
        record_membership(reg, stats, pool_size=4)
        assert reg.counter(
            "modchecker_membership_events_total").value(event="admit") == 2


class TestChaosMetrics:
    def test_event_counters_by_kind(self):
        stats = ChaosStats(steps=5, reboots=2, pauses=1, unpauses=1,
                           migrations=1, migrations_finished=1,
                           destroys=0, creates=1)
        reg = MetricsRegistry()
        record_stats(reg, stats)
        counter = reg.counter("modchecker_chaos_events_total")
        assert counter.value(kind="reboots") == 2
        assert counter.value(kind="creates") == 1
        assert counter.value(kind="destroys") == 0


class TestVmiCounterContinuity:
    def test_session_restart_never_goes_backwards(self):
        # A reboot retires the VMI session; the checker folds the old
        # session's counters into a baseline so the published totals
        # stay monotonic (set_to would raise otherwise).
        tb = build_testbed(2, seed=42)
        mc = ModChecker(tb.hypervisor, tb.profile)
        vm = tb.vm_names[0]
        mc.check_pool("hal.dll")
        reg = MetricsRegistry()
        record_vmi_instance(reg, vm, mc.vmi_for(vm),
                            base=mc._vmi_stats_base.get(vm))
        before = reg.counter(
            "modchecker_vmi_pages_mapped_total").value(vm=vm)
        assert before > 0

        tb.hypervisor.reboot(vm)
        mc.admit_vm(vm)                     # retires the stale session
        mc.check_pool("hal.dll")            # fresh session, small counts
        record_vmi_instance(reg, vm, mc.vmi_for(vm),
                            base=mc._vmi_stats_base.get(vm))
        after = reg.counter(
            "modchecker_vmi_pages_mapped_total").value(vm=vm)
        assert after >= before

    def test_two_reboot_cycles_stay_monotonic_end_to_end(self):
        # TWO full reboot/retire cycles through ModChecker's own
        # publication path (_record_outcome with live metrics): every
        # re-attach folds another baseline, and set_to would raise if
        # any published total ever ran backwards.
        from repro.obs import make_observability
        tb = build_testbed(2, seed=42)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        vm = tb.vm_names[0]
        counter = obs.metrics.counter("modchecker_vmi_pages_mapped_total")

        totals = []
        mc.check_pool("hal.dll")
        totals.append(counter.value(vm=vm))
        for _ in range(2):                  # reboot -> retire -> re-check
            tb.hypervisor.reboot(vm)
            mc.admit_vm(vm)
            mc.check_pool("hal.dll")
            totals.append(counter.value(vm=vm))
        assert totals[0] > 0
        assert totals == sorted(totals)
        # and each cycle actually added introspection work
        assert totals[2] > totals[0]

    def test_evicted_vm_keeps_publishing_folded_totals(self):
        # Regression: _record_outcome used to iterate live sessions
        # only, so an evicted VM's final session tail silently vanished
        # from the published totals until (unless) it re-attached.
        from repro.obs import make_observability
        tb = build_testbed(3, seed=7)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        gone = tb.vm_names[2]
        survivors = tb.vm_names[:2]
        counter = obs.metrics.counter("modchecker_vmi_pages_mapped_total")

        mc.check_pool("hal.dll")
        before = counter.value(vm=gone)
        assert before > 0
        mc.evict_vm(gone)                   # retires the session
        mc.check_pool("hal.dll", vms=survivors)
        assert counter.value(vm=gone) == before

    def test_record_vmi_instance_accepts_retired_only_state(self):
        from repro.obs import MetricsRegistry
        from repro.vmi.core import VMIStats
        reg = MetricsRegistry()
        base = VMIStats(pages_mapped=7, bytes_read=512)
        record_vmi_instance(reg, "DomX", None, base=base)
        counter = reg.counter("modchecker_vmi_pages_mapped_total")
        assert counter.value(vm="DomX") == 7
        # no live session -> the per-round cache-ratio gauges are absent
        assert reg.gauge("modchecker_cache_hit_ratio").value(
            vm="DomX", cache="v2p") == 0.0
        # nothing at all to publish is a no-op, not a crash
        record_vmi_instance(reg, "DomY", None, base=None)
        assert counter.value(vm="DomY") == 0
