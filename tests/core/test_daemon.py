"""Unit tests for the checking daemon and scheduling policies."""

import struct

import pytest

from repro.attacks import RuntimeCodePatchAttack
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.core.daemon import (Alert, AlertLog, CheckDaemon, PriorityPolicy,
                               RoundRobinPolicy)


@pytest.fixture
def tb():
    # 4 VMs so a single infection is exactly localised (with 3, the
    # strict majority rule ties and flags the whole pool).
    return build_testbed(4, seed=42)


@pytest.fixture
def mc(tb):
    return ModChecker(tb.hypervisor, tb.profile)


class TestPolicies:
    MODULES = ["a", "b", "c", "d", "e"]

    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy(per_cycle=2)
        log = AlertLog()
        seen = []
        for cycle in range(5):
            seen += policy.select(cycle, self.MODULES, log)
        assert set(seen) == set(self.MODULES)

    def test_round_robin_per_cycle(self):
        policy = RoundRobinPolicy(per_cycle=3)
        assert len(policy.select(0, self.MODULES, AlertLog())) == 3

    def test_round_robin_small_list(self):
        policy = RoundRobinPolicy(per_cycle=4)
        assert policy.select(0, ["x"], AlertLog()) == ["x"]

    def test_round_robin_invalid(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy(0)

    def test_priority_always_includes_critical(self):
        policy = PriorityPolicy(critical=["a", "c"])
        for cycle in range(4):
            picked = policy.select(cycle, self.MODULES, AlertLog())
            assert picked[0] == "a" and picked[1] == "c"


class TestAlertLog:
    def test_queries(self):
        log = AlertLog()
        log.add(Alert(1.0, "hal.dll", ("Dom2",), (".text",)))
        log.add(Alert(2.0, "http.sys", ("Dom1", "Dom2"), (".text",)))
        assert len(log) == 2
        assert len(log.for_module("hal.dll")) == 1
        assert len(log.for_vm("Dom2")) == 2
        assert len(log.for_vm("Dom9")) == 0

    def test_str(self):
        alert = Alert(1.5, "hal.dll", ("Dom2",), (".text",))
        assert "hal.dll" in str(alert) and "Dom2" in str(alert)


class TestDaemon:
    def test_clean_pool_quiet(self, mc):
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=5), carve=True)
        log = daemon.run(4)
        assert len(log) == 0
        assert daemon.cycles_run == 4

    def test_cycles_advance_clock(self, tb, mc):
        daemon = CheckDaemon(mc, interval=30.0, carve=False)
        t0 = tb.clock.now
        daemon.run(3)
        assert tb.clock.now >= t0 + 90.0

    def test_infection_alerts_once_discovered(self, tb, mc):
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain("Dom2").kernel, tb.catalog["hal.dll"])
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=10), carve=False)
        alerts = daemon.run_cycle()
        assert len(alerts) == 1
        assert alerts[0].module == "hal.dll"
        assert alerts[0].flagged_vms == ("Dom2",)
        assert ".text" in alerts[0].regions

    def test_hidden_module_alert_via_carving(self, tb, mc):
        tb.hypervisor.domain("Dom1").kernel.unload_module("dummy.sys")
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=1), carve=True)
        log = daemon.run(3)          # carving rotates over the 3 VMs
        hidden = [a for a in log.alerts if a.kind == "hidden-module"]
        assert len(hidden) >= 1
        assert hidden[0].module == "dummy.sys"
        assert hidden[0].flagged_vms == ("Dom1",)

    def test_clock_moves_only_outside_deferred_charges(self, tb, mc,
                                                       monkeypatch):
        """Inside ``deferred_charges`` the caller owns the clock: a cycle
        leaves it alone. Outside, the cycle's Dom0 work moves it and the
        cycle then advances it by exactly ``interval``."""
        hv = tb.hypervisor
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=2),
                             interval=30.0, carve=False)
        t0 = tb.clock.now
        with hv.deferred_charges() as acc:
            assert hv.charges_deferred
            daemon.run_cycle()
        assert not hv.charges_deferred
        assert acc.total > 0
        assert tb.clock.now == t0

        elapsed = []
        charge = hv.charge_dom0
        monkeypatch.setattr(hv, "charge_dom0",
                            lambda cpu, op=None: elapsed.append(
                                charge(cpu, op)) or elapsed[-1])
        daemon.run_cycle()
        assert sum(elapsed) > 0
        assert tb.clock.now - t0 == pytest.approx(sum(elapsed) + 30.0,
                                                  rel=0, abs=1e-9)

    def test_scope_comes_from_checker_members(self, tb):
        """A daemon over a scoped checker watches only its members and,
        sharing its registry with sibling pools, publishes no
        membership series."""
        from repro.obs import make_observability
        obs = make_observability(tb.clock)
        members = ["Dom1", "Dom2", "Dom3"]
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs,
                        members=lambda: list(members))
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=2),
                             carve=False)
        assert sorted(daemon._seen_generation) == members
        daemon.run_cycle()
        assert sorted(daemon._seen_generation) == members
        assert daemon.checker.pool_vm_names() == members
        assert daemon.membership_log == []
        members.remove("Dom3")
        daemon.run_cycle()
        assert [(e, vm) for _, e, vm in daemon.membership_log] == \
            [("evict", "Dom3")]
        assert "Dom4" not in daemon._seen_generation
        assert "modchecker_membership_events_total" \
            not in obs.metrics.to_prometheus()

    def test_invalid_interval(self, mc):
        with pytest.raises(ValueError):
            CheckDaemon(mc, interval=0)

    @pytest.mark.parametrize("flink", ["self", "null"])
    def test_corrupt_module_list_skips_vm(self, tb, mc, monkeypatch, flink):
        """One guest's corrupt list (a cyclic or NULL FLINK) must not
        crash the cycle: discovery skips that VM, the union comes from
        the others, and the VM's own checks degrade it."""
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=1), carve=False)
        daemon.run_cycle()
        modules = list(daemon._modules)
        kernel = tb.hypervisor.domain("Dom2").kernel
        head = kernel.symbols["PsLoadedModuleList"]
        first = struct.unpack("<I", kernel.aspace.read(head, 4))[0]
        kernel.aspace.write(
            first, struct.pack("<I", first if flink == "self" else 0))
        reports = []
        check_pool = mc.check_pool

        def recording(*args, **kwargs):
            outcome = check_pool(*args, **kwargs)
            reports.append(outcome.report)
            return outcome

        monkeypatch.setattr(mc, "check_pool", recording)
        cycle = daemon.cycles_run
        daemon.run_cycle()
        assert daemon.cycles_run == cycle + 1
        assert daemon._modules == modules
        assert daemon._modules_cycle == cycle
        assert reports
        for report in reports:
            assert report.degraded["Dom2"].startswith("unreadable:")
            assert "Dom2" not in report.verdicts


class TestDaemonCrossView:
    def test_decoy_entry_alert(self, tb, mc):
        from repro.attacks import LdrDecoyAttack
        LdrDecoyAttack().apply(tb.hypervisor.domain("Dom1").kernel)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=1), carve=True)
        log = daemon.run(4)          # rotation reaches Dom1 on cycle 0
        decoys = [a for a in log.alerts if a.kind == "decoy-entry"]
        assert decoys
        assert decoys[0].module == "ghost.sys"
        assert decoys[0].flagged_vms == ("Dom1",)


class TestDaemonCarveOnce:
    def test_one_carve_per_cycle(self, tb, mc, monkeypatch):
        # Regression: the daemon used to carve the same guest twice per
        # cycle — once for hidden-module detection, once inside the
        # cross-view decoy check.
        from repro.core.carver import ModuleCarver
        calls = []
        original = ModuleCarver.carve

        def counting_carve(self):
            calls.append(self.vmi.domain.name)
            return original(self)

        monkeypatch.setattr(ModuleCarver, "carve", counting_carve)
        daemon = CheckDaemon(mc, RoundRobinPolicy(), carve=True)
        daemon.run_cycle()
        assert len(calls) == 1
