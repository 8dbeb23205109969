"""Unit tests for the hypervisor."""

import pytest

from repro.cloud import build_testbed
from repro.core.modchecker import ModChecker
from repro.errors import DomainNotFound, DomainStateError
from repro.hypervisor.xen import Hypervisor


@pytest.fixture
def hv(catalog):
    hypervisor = Hypervisor()
    hypervisor.create_guest("Dom1", catalog, seed=1)
    hypervisor.create_guest("Dom2", catalog, seed=2)
    return hypervisor


class TestLifecycle:
    def test_dom0_exists(self, hv):
        assert hv.domain("Dom0").name == "Dom0"
        assert hv.domain(0).name == "Dom0"

    def test_guests_listed_in_order(self, hv):
        assert [d.name for d in hv.guests()] == ["Dom1", "Dom2"]

    def test_duplicate_name_rejected(self, hv, catalog):
        with pytest.raises(DomainStateError, match="already exists"):
            hv.create_guest("Dom1", catalog)

    def test_unknown_domain(self, hv):
        with pytest.raises(DomainNotFound):
            hv.domain("DomX")
        with pytest.raises(DomainNotFound):
            hv.domain(99)

    def test_pause_unpause(self, hv):
        hv.pause("Dom1")
        assert hv.domain("Dom1").runnable_vcpus == 0.0
        hv.unpause("Dom1")

    def test_destroy(self, hv):
        hv.destroy("Dom2")
        with pytest.raises(DomainNotFound):
            hv.domain("Dom2")

    def test_destroy_dom0_rejected(self, hv):
        with pytest.raises(DomainStateError):
            hv.destroy("Dom0")


class TestIntrospectionSurface:
    def test_guest_cr3(self, hv):
        cr3 = hv.guest_cr3("Dom1")
        assert cr3 == hv.domain("Dom1").kernel.cr3

    def test_dom0_has_no_cr3(self, hv):
        with pytest.raises(DomainStateError):
            hv.guest_cr3("Dom0")

    def test_read_guest_frame_matches_guest_memory(self, hv):
        kernel = hv.domain("Dom1").kernel
        kernel.memory.write(5 * 4096 + 8, b"evidence")
        frame = hv.read_guest_frame("Dom1", 5)
        assert frame[8:16] == b"evidence"
        assert len(frame) == 4096

    def test_read_guest_physical(self, hv):
        kernel = hv.domain("Dom1").kernel
        kernel.memory.write(0x1234, b"\xAA\xBB")
        assert hv.read_guest_physical("Dom1", 0x1234, 2) == b"\xAA\xBB"

    def test_cannot_introspect_dom0(self, hv):
        with pytest.raises(DomainStateError):
            hv.read_guest_frame("Dom0", 0)


class TestCpuAccounting:
    def test_charge_advances_clock(self, hv):
        t0 = hv.clock.now
        hv.charge_dom0(0.5)
        assert hv.clock.now > t0

    def test_idle_guests_no_stretch(self, hv):
        elapsed = hv.charge_dom0(1.0)
        assert elapsed == pytest.approx(1.0)

    def test_loaded_guests_stretch(self, hv):
        for name in ("Dom1", "Dom2"):
            hv.domain(name).set_load(cpu=1.0)
        elapsed = hv.charge_dom0(1.0)
        assert elapsed > 1.0

    def test_guest_demand_sums(self, hv):
        hv.domain("Dom1").set_load(cpu=0.5)
        hv.domain("Dom2").set_load(cpu=1.0)
        assert hv.guest_demand() == pytest.approx(1.5)

    def test_negative_charge_rejected(self, hv):
        with pytest.raises(ValueError):
            hv.charge_dom0(-0.1)

    def test_cpu_seconds_accumulate(self, hv):
        hv.charge_dom0(0.25)
        hv.charge_dom0(0.25)
        assert hv.dom0_cpu_seconds == pytest.approx(0.5)


class TestDeferredCharges:
    def test_collects_without_advancing(self, hv):
        t0 = hv.clock.now
        with hv.deferred_charges() as acc:
            hv.charge_dom0(1.0)
            hv.charge_dom0(2.0)
        assert acc.total == pytest.approx(3.0)
        assert hv.clock.now == t0

    def test_restores_normal_charging(self, hv):
        with hv.deferred_charges():
            hv.charge_dom0(1.0)
        t0 = hv.clock.now
        hv.charge_dom0(1.0)
        assert hv.clock.now > t0

    def test_cpu_seconds_still_counted(self, hv):
        before = hv.dom0_cpu_seconds
        with hv.deferred_charges():
            hv.charge_dom0(2.0)
        assert hv.dom0_cpu_seconds == pytest.approx(before + 2.0)

    def test_nested_contexts_restore_outer(self, hv):
        # Regression: the inner context used to `del` the shadowing
        # attribute on exit, so the *outer* accumulator stopped
        # collecting and charges leaked straight to the clock.
        t0 = hv.clock.now
        with hv.deferred_charges() as outer:
            hv.charge_dom0(1.0)
            with hv.deferred_charges() as inner:
                hv.charge_dom0(2.0)
            assert inner.total == pytest.approx(2.0)
            hv.charge_dom0(4.0)  # must still be deferred by `outer`
            assert hv.clock.now == t0
        assert outer.total == pytest.approx(5.0)
        assert hv.clock.now == t0

    def test_nested_inner_totals_do_not_double_count(self, hv):
        with hv.deferred_charges() as outer:
            with hv.deferred_charges() as inner:
                hv.charge_dom0(3.0)
        assert inner.total == pytest.approx(3.0)
        assert outer.total == pytest.approx(0.0)

    def test_triply_nested_unwinds_in_order(self, hv):
        t0 = hv.clock.now
        with hv.deferred_charges() as a:
            with hv.deferred_charges():
                with hv.deferred_charges():
                    hv.charge_dom0(1.0)
                hv.charge_dom0(1.0)
            hv.charge_dom0(1.0)
        assert a.total == pytest.approx(1.0)
        assert hv.clock.now == t0
        hv.charge_dom0(0.5)  # normal charging restored
        assert hv.clock.now > t0


class TestChargeCache:
    """``charge_dom0`` re-derives the contention factor only when a
    demand field or the guest set changed (see test_charge_cache.py for
    the differential check of the factor itself)."""

    @pytest.fixture
    def demand_calls(self, monkeypatch):
        calls = []
        orig = Hypervisor.guest_demand

        def counted(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(Hypervisor, "guest_demand", counted)
        return calls

    @pytest.fixture(scope="class")
    def pool(self):
        tb = build_testbed(15, seed=42)
        tb.set_guest_loads(0.5)
        return tb, ModChecker(tb.hypervisor, tb.profile)

    def test_static_pool_check_derives_factor_at_most_once(
            self, pool, demand_calls):
        _, checker = pool
        checker.check_pool("hal.dll", mode="canonical")
        assert len(demand_calls) <= 1

    def test_one_load_change_costs_one_recompute(self, pool, demand_calls):
        tb, checker = pool
        checker.check_pool("ntoskrnl.exe", mode="canonical")
        before = len(demand_calls)
        tb.guest("Dom4").set_load(cpu=1.0)
        checker.check_pool("ntoskrnl.exe", mode="canonical")
        assert len(demand_calls) == before + 1

    def test_class_level_hook_sees_deferred_charges(self, hv, monkeypatch):
        # installed the way bench/tracing.py installs its hooks
        seen = []
        orig = Hypervisor.__dict__["charge_dom0"]

        def hooked(self, cpu_seconds):
            seen.append(cpu_seconds)
            return orig(self, cpu_seconds)

        monkeypatch.setattr(Hypervisor, "charge_dom0", hooked)
        with hv.deferred_charges() as outer:
            hv.charge_dom0(1.0)
            with hv.deferred_charges() as inner:
                hv.charge_dom0(2.0)
        assert seen == [1.0, 2.0]
        assert (outer.total, inner.total) == (1.0, 2.0)


class TestSnapshots:
    def test_snapshot_revert_restores_memory(self, hv):
        kernel = hv.domain("Dom1").kernel
        hv.snapshot("Dom1")
        before = kernel.read_module_image("hal.dll")
        base = kernel.module("hal.dll").base
        kernel.aspace.write(base + 0x1000, b"INFECTED")
        assert kernel.read_module_image("hal.dll") != before
        hv.revert("Dom1")
        assert kernel.read_module_image("hal.dll") == before

    def test_revert_without_snapshot_rejected(self, hv):
        with pytest.raises(DomainStateError, match="no snapshot"):
            hv.revert("Dom1")

    def test_snapshot_dom0_rejected(self, hv):
        with pytest.raises(DomainStateError):
            hv.snapshot("Dom0")
