"""Graceful degradation: quorum voting, quarantine and recovery.

The resilience contract from the fault-injection tentpole: a VM whose
introspection keeps failing after the retry budget is *degraded* —
dropped from the quorum and reported, never allowed to abort a sweep —
and the daemon quarantines it for a bounded number of cycles before
probing again. Permanent per-module failures (a decoy entry's unbacked
``DllBase``) degrade one check without quarantining a healthy VM.
"""

from __future__ import annotations

import pytest

from repro.attacks.memory import LdrDecoyAttack
from repro.cloud import build_testbed, stage_experiment
from repro.core import BreakerConfig, CheckDaemon, ModChecker
from repro.core.daemon import RoundRobinPolicy
from repro.errors import InsufficientPool, RetryExhausted
from repro.hypervisor import FaultConfig, FaultInjector
from repro.pe import build_driver

SEED = 42

#: every read on the targeted domain opens an outage window far longer
#: than the default retry budget can sleep through — guaranteed
#: exhaustion, deterministic degradation
SICK = dict(unreachable_rate=1.0, unreachable_duration=10.0)


def _sick_injector(*domains):
    return FaultInjector(FaultConfig(only_domains=tuple(domains), **SICK),
                         seed=SEED)


class TestPoolDegradation:
    def test_sick_vm_is_degraded_not_fatal(self):
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        with _sick_injector("Dom2").installed(tb.hypervisor):
            out = mc.check_pool("hal.dll")
        report = out.report
        assert set(report.degraded) == {"Dom2"}
        assert report.degraded["Dom2"].startswith("retry-exhausted")
        # Dom2 carries no verdict; the survivors vote and stay clean
        assert "Dom2" not in report.verdicts
        assert sorted(report.verdicts) == ["Dom1", "Dom3", "Dom4"]
        assert report.all_clean

    def test_detection_survives_degradation(self):
        # E1 on Dom3 still fires when an unrelated VM drops out.
        scenario = stage_experiment("E1", n_vms=6, victim="Dom3", seed=SEED)
        with _sick_injector("Dom5").installed(
                scenario.testbed.hypervisor):
            report = scenario.run_pool_check().report
        assert report.flagged() == ["Dom3"]
        assert set(report.degraded) == {"Dom5"}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_destroyed_vm_degrades_as_unreachable(self, workers):
        # an explicit vms= list may name a guest destroyed since the
        # caller built it: that VM degrades, the check goes on
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, workers=workers)
        tb.hypervisor.destroy("Dom2")
        report = mc.check_pool("hal.dll", tb.vm_names).report
        assert set(report.degraded) == {"Dom2"}
        assert report.degraded["Dom2"].startswith("unreachable:")
        assert sorted(report.verdicts) == ["Dom1", "Dom3", "Dom4"]
        assert report.all_clean

    def test_insufficient_quorum_raises(self):
        tb = build_testbed(3, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        with _sick_injector("Dom1", "Dom2").installed(tb.hypervisor):
            with pytest.raises(InsufficientPool) as err:
                mc.check_pool("hal.dll")
        assert "degraded" in str(err.value)

    def test_degraded_target_raises_retry_exhausted(self):
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        with _sick_injector("Dom2").installed(tb.hypervisor):
            with pytest.raises(RetryExhausted):
                mc.check_on_vm("hal.dll", "Dom2")

    def test_decoy_entry_is_unreadable_not_retry_exhausted(self):
        tb = build_testbed(4, seed=SEED)
        LdrDecoyAttack(decoy_name="ghost.sys").apply(
            tb.hypervisor.domain("Dom2").kernel)
        mc = ModChecker(tb.hypervisor, tb.profile)
        parsed, _, _, failed = mc.fetch_modules("ghost.sys", tb.vm_names)
        assert parsed == []
        assert set(failed) == {"Dom2"}
        assert failed["Dom2"].startswith("unreadable")

    def test_sixteen_vm_pool_at_five_percent_transients(self):
        """The acceptance scenario: 16 VMs, 5% transient rate, default
        retry — the sweep completes and matches the fault-free run."""
        baseline_tb = build_testbed(16, seed=SEED)
        baseline = ModChecker(baseline_tb.hypervisor,
                              baseline_tb.profile).check_pool("hal.dll")

        tb = build_testbed(16, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        injector = FaultInjector(FaultConfig(transient_rate=0.05), seed=SEED)
        with injector.installed(tb.hypervisor):
            out = mc.check_pool("hal.dll")
        assert injector.stats.transient > 0
        surviving = set(out.report.verdicts)
        assert surviving | set(out.report.degraded) == \
            set(baseline.report.verdicts)
        assert out.report.flagged() == [
            vm for vm in baseline.report.flagged() if vm in surviving]
        assert out.report.all_clean


class TestDaemonQuarantine:
    def _daemon(self, tb, **kwargs):
        mc = ModChecker(tb.hypervisor, tb.profile)
        return CheckDaemon(mc, RoundRobinPolicy(per_cycle=2), **kwargs)

    def test_quarantine_and_recovery(self):
        tb = build_testbed(4, seed=SEED)
        daemon = self._daemon(tb, breaker=BreakerConfig(open_cycles=2))
        injector = _sick_injector("Dom3")
        injector.install(tb.hypervisor)
        alerts = daemon.run_cycle()
        assert daemon.quarantined == ["Dom3"]
        assert any(a.kind == "degraded" and a.degraded == ("Dom3",)
                   for a in alerts)
        # while quarantined, Dom3 is out of the sweep...
        injector.uninstall()
        assert "Dom3" not in daemon._active_vms()
        daemon.run_cycle()
        daemon.run_cycle()
        # ...and after the quarantine expires it rejoins cleanly
        assert daemon.quarantined == []
        assert daemon.run_cycle() == []
        assert "Dom3" in daemon._active_vms()

    def test_decoy_does_not_quarantine(self):
        tb = build_testbed(4, seed=SEED)
        LdrDecoyAttack(decoy_name="ghost.sys").apply(
            tb.hypervisor.domain("Dom2").kernel)
        daemon = self._daemon(tb)
        daemon.policy = RoundRobinPolicy(per_cycle=32)  # cover every module
        for _ in range(4):
            daemon.run_cycle()
        assert daemon.quarantined == []
        assert not any(a.kind == "degraded" for a in daemon.log.alerts)
        # the cross-view sweep still exposes the decoy for what it is
        assert any(a.kind == "decoy-entry" for a in daemon.log.alerts)

    def test_all_vms_unreachable_degrades_not_crashes(self):
        # Every breaker OPEN → the quorum is starved; the service must
        # report that and keep running, not die on InsufficientPool.
        tb = build_testbed(3, seed=SEED)
        daemon = self._daemon(tb)
        for vm in tb.vm_names:
            daemon.health.breaker(vm).record_failure("forced")
            daemon.health.breaker(vm).open_left = 99
        alerts = daemon.run_cycle()
        assert daemon.quarantined == sorted(tb.vm_names)
        assert [a.kind for a in alerts] == ["degraded"]
        assert "quorum starved" in alerts[0].regions[0]
        # next cycles keep degrading without ever raising
        daemon.run_cycle()
        assert all(a.kind == "degraded" for a in daemon.log.alerts)


class TestDaemonRediscovery:
    def test_new_module_is_picked_up(self):
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        daemon = CheckDaemon(mc, RoundRobinPolicy(), rediscover_every=1)
        daemon.run_cycle()
        assert "lateload.sys" not in daemon._modules
        blueprint = build_driver("lateload.sys", seed=7, n_functions=4,
                                 avg_function_size=64, data_size=0x100)
        for vm in tb.vm_names:
            tb.hypervisor.domain(vm).kernel.load_module(blueprint)
        daemon.run_cycle()
        assert "lateload.sys" in daemon._modules

    def test_rediscovery_ttl_respected(self):
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile)
        daemon = CheckDaemon(mc, RoundRobinPolicy(), rediscover_every=3)
        daemon.run_cycle()
        first_cycle = daemon._modules_cycle
        daemon.run_cycle()
        assert daemon._modules_cycle == first_cycle       # cached
        daemon.run_cycle()
        daemon.run_cycle()
        assert daemon._modules_cycle > first_cycle        # TTL elapsed

    def test_union_keeps_hidden_module_monitored(self):
        # DKOM-unlinking dummy.sys on the *first* VM must not drop it
        # from the monitored set — the other clones still list it.
        tb = build_testbed(4, seed=SEED)
        tb.hypervisor.domain("Dom1").kernel.unload_module("dummy.sys")
        mc = ModChecker(tb.hypervisor, tb.profile)
        daemon = CheckDaemon(mc, RoundRobinPolicy())
        daemon.run_cycle()
        assert "dummy.sys" in daemon._modules
