"""Dynamic membership: admit/evict/reboot reconciliation, warm-up
gating, and the quorum floor."""

import pytest

from repro.cloud import build_testbed
from repro.core import CheckDaemon, ModChecker, RoundRobinPolicy


@pytest.fixture
def env():
    tb = build_testbed(3, seed=42)
    checker = ModChecker(tb.hypervisor, tb.profile)
    daemon = CheckDaemon(checker, RoundRobinPolicy(per_cycle=2))
    return tb, checker, daemon


def _events(daemon):
    return [(event, vm) for _, event, vm in daemon.membership_log]


class TestReconcile:
    def test_new_guest_admitted_and_warmed_up(self, env):
        tb, checker, daemon = env
        daemon.run_cycle()
        tb.hypervisor.create_guest("Late", tb.catalog, seed=99)
        alerts = daemon.run_cycle()
        assert ("admit", "Late") in _events(daemon)
        assert "Late" in checker.pool_vm_names()
        # Warm-up happened inside the same cycle: the VM can vote now.
        assert "Late" in daemon._active_vms()
        assert all(a.kind == "degraded" or "Late" not in a.flagged_vms
                   for a in alerts)

    def test_destroyed_guest_evicted(self, env):
        tb, checker, daemon = env
        daemon.run_cycle()
        victim = tb.vm_names[0]
        tb.hypervisor.destroy(victim)
        daemon.run_cycle()
        assert ("evict", victim) in _events(daemon)
        assert victim not in checker.pool_vm_names()
        assert victim not in daemon._active_vms()

    def test_reboot_detected_via_generation(self, env):
        tb, checker, daemon = env
        daemon.run_cycle()
        rebooted = tb.vm_names[1]
        tb.hypervisor.reboot(rebooted)
        daemon.run_cycle()
        assert ("reboot", rebooted) in _events(daemon)
        # Re-attached session sees the new layout, so checks keep passing.
        alerts = daemon.run_cycle()
        assert [a for a in alerts if a.kind != "degraded"] == []

    def test_no_spurious_events_on_stable_pool(self, env):
        _, _, daemon = env
        daemon.run_cycle()
        daemon.run_cycle()
        assert daemon.membership_log == []

    def test_membership_forces_rediscovery(self, env):
        tb, _, daemon = env
        daemon = CheckDaemon(daemon.checker, RoundRobinPolicy(per_cycle=2),
                             rediscover_every=1000)
        daemon.run_cycle()
        assert not daemon._force_rediscover
        tb.hypervisor.create_guest("Late", tb.catalog, seed=99)
        daemon.run_cycle()          # reconcile flags + clears it via walk
        assert not daemon._force_rediscover
        assert ("admit", "Late") in _events(daemon)


class TestManualMembership:
    def test_admit_requires_warmup_before_voting(self, env):
        tb, checker, daemon = env
        tb.hypervisor.create_guest("Fresh", tb.catalog, seed=7)
        daemon.admit_vm("Fresh")
        assert "Fresh" in checker.pool_vm_names()
        assert "Fresh" not in daemon._active_vms()   # not warmed yet
        daemon.run_cycle()
        assert "Fresh" in daemon._active_vms()

    def test_evict_clears_all_state(self, env):
        # The pool itself is the hypervisor's guest list; evicting
        # clears the daemon's per-VM bookkeeping (breaker, warm-up,
        # generation) and logs the event.
        tb, checker, daemon = env
        victim = tb.vm_names[2]
        tb.hypervisor.destroy(victim)
        daemon.health.record_failure(victim, "forced")
        daemon.evict_vm(victim)
        assert victim not in checker.pool_vm_names()
        assert daemon.health.states() == {}
        assert victim not in daemon._seen_generation
        assert ("evict", victim) in _events(daemon)

    def test_readmitted_vm_gets_fresh_breaker(self, env):
        tb, _, daemon = env
        victim = tb.vm_names[0]
        daemon.health.breaker(victim).record_failure("forced")
        daemon.evict_vm(victim)
        daemon.admit_vm(victim)
        assert daemon.health.allowed(victim)


class TestQuorumFloor:
    def test_starved_pool_degrades_not_crashes(self, env):
        _, _, daemon = env
        for vm in daemon.checker.pool_vm_names():
            daemon.health.breaker(vm).record_failure("forced")
            daemon.health.breaker(vm).open_left = 99
        alerts = daemon.run_cycle()
        assert len(alerts) == 1
        assert alerts[0].kind == "degraded"
        assert "quorum starved" in alerts[0].regions[0]

    def test_checks_resume_when_quorum_returns(self, env):
        _, _, daemon = env
        vms = daemon.checker.pool_vm_names()
        for vm in vms:
            daemon.health.breaker(vm).record_failure("forced")
            daemon.health.breaker(vm).open_left = 2
        daemon.run_cycle()                  # starved
        daemon.run_cycle()                  # cool-downs expire -> HALF_OPEN
        alerts = daemon.run_cycle()         # probes pass, checks resume
        assert daemon.quarantined == []
        assert [a for a in alerts if a.kind != "degraded"] == []
        assert sorted(daemon._active_vms()) == sorted(vms)
