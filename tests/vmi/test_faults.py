"""Fault injector + retry policy: determinism, fault taxonomy, overhead.

Covers the resilience layer end to end at the VMI level: the seeded
:class:`FaultInjector` must produce identical fault schedules for
identical (seed, read-sequence) pairs, each fault class must behave as
documented (transient raises once, torn serves stale bytes, windows
expire on the simulated clock), and — the acceptance bar — with all
rates at zero the whole layer must be simulated-time invisible.
"""

from __future__ import annotations

import gc

import pytest

from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.errors import (DomainUnreachable, PagedOutFault, RetryExhausted,
                          TransientFault, VMIInitError)
from repro.hypervisor import FaultConfig, FaultInjector, Hypervisor
from repro.rng import derive_seed
from repro.vmi import DEFAULT_RETRY_POLICY, RetryPolicy, VMIInstance

SEED = 42


@pytest.fixture
def tb():
    return build_testbed(4, seed=SEED)


def _vmi(tb, name="Dom1", retry=DEFAULT_RETRY_POLICY):
    return VMIInstance(tb.hypervisor, name, tb.profile, retry=retry)


def _list_va(tb):
    """A kernel VA that is always mapped: the module-list head."""
    return tb.profile.symbol("PsLoadedModuleList")


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        assert not FaultConfig().any_faults

    @pytest.mark.parametrize("kw", [
        {"transient_rate": -0.1},
        {"torn_page_rate": 1.5},
        {"paged_out_duration": -1.0},
        {"transient_rate": 0.6, "unreachable_rate": 0.6},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultConfig(**kw)

    def test_any_faults(self):
        assert FaultConfig(transient_rate=0.01).any_faults
        assert FaultConfig(torn_page_rate=0.01).any_faults


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(backoff_base=0.002, backoff_factor=2.0,
                             backoff_cap=0.005)
        assert policy.backoff(0) == pytest.approx(0.002)
        assert policy.backoff(1) == pytest.approx(0.004)
        assert policy.backoff(2) == pytest.approx(0.005)

    def test_worst_case_covers_default_paged_out_window(self):
        # The default budget must be able to sleep past the default
        # paged-out window, else backoff-retry could never help.
        assert (DEFAULT_RETRY_POLICY.worst_case_backoff
                > FaultConfig().paged_out_duration)

    @pytest.mark.parametrize("kw", [
        {"max_attempts": 0}, {"module_attempts": 0},
        {"backoff_base": -1.0}, {"backoff_factor": 0.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)


class TestLifecycle:
    def test_install_uninstall_restores_pristine_path(self, tb):
        hv = tb.hypervisor
        injector = FaultInjector(FaultConfig(torn_page_rate=0.5), seed=1)
        injector.install(hv)
        assert hv.fault_injector is injector
        hv.read_guest_frame("Dom1", 0)
        hv.read_guest_physical("Dom1", 0, 4)
        assert injector.stats.reads == 2
        injector.uninstall()
        assert hv.fault_injector is None
        # reads no longer pass through the gate
        hv.read_guest_frame("Dom1", 0)
        hv.read_guest_physical("Dom1", 0, 4)
        assert injector.stats.reads == 2

    def test_uninstall_leaves_the_instance_dict_unmaterialised(self):
        """Install and uninstall must not build ``hv``'s ``__dict__``:
        once built, CPython serves every later attribute load on ``hv``
        from it, and each ``charge_dom0`` gets slower. The dict shows up
        among the instance's GC referents only once materialised, so
        this never reads ``hv.__dict__`` itself. A fresh subclass gets
        fresh shared attribute keys: CPython stops adding keys to a
        class's shared set after many instances, and a new attribute
        then materialises the dict whatever the injector does."""
        hv = type("FreshHypervisor", (Hypervisor,), {})()

        def attribute_dicts():
            return [r for r in gc.get_referents(hv)
                    if isinstance(r, dict) and "clock" in r]

        assert attribute_dicts() == []
        with FaultInjector(FaultConfig(), seed=1).installed(hv):
            pass
        assert attribute_dicts() == []
        assert hv.read_guest_frame.__func__ is Hypervisor.read_guest_frame
        assert hv.read_guest_physical.__func__ \
            is Hypervisor.read_guest_physical
        assert hv.fault_injector is None

    def test_install_after_many_hypervisors_keeps_the_dict_unbuilt(self):
        """CPython stops growing a class's shared attribute keys after
        some instances; an attribute a later instance gains then builds
        its ``__dict__``. Installing only sets an attribute every
        ``Hypervisor`` has from ``__init__``, so even after that point
        install and uninstall leave the dict unbuilt."""
        hvs = [Hypervisor() for _ in range(48)]
        hv = Hypervisor()

        def attribute_dicts():
            return [r for r in gc.get_referents(hv)
                    if isinstance(r, dict) and "clock" in r]

        assert attribute_dicts() == []
        injector = FaultInjector(FaultConfig(), seed=1).install(hv)
        assert attribute_dicts() == []
        injector.uninstall()
        assert attribute_dicts() == []
        assert len(hvs) == 48

    def test_double_install_rejected(self, tb):
        injector = FaultInjector(seed=1)
        injector.install(tb.hypervisor)
        with pytest.raises(RuntimeError):
            injector.install(tb.hypervisor)
        injector.uninstall()

    def test_context_manager(self, tb):
        hv = tb.hypervisor
        with FaultInjector(seed=1).installed(hv) as injector:
            assert hv.fault_injector is injector
        assert hv.fault_injector is None

    def test_seed_derived_from_project_chain(self):
        injector = FaultInjector(seed=5)
        assert injector.seed == derive_seed(5, "fault-injector")
        assert FaultInjector(seed=6).seed != injector.seed


class TestDeterminism:
    def _run(self):
        tb = build_testbed(4, seed=SEED)
        injector = FaultInjector(FaultConfig(transient_rate=0.05,
                                             torn_page_rate=0.02),
                                 seed=SEED)
        with injector.installed(tb.hypervisor):
            mc = ModChecker(tb.hypervisor, tb.profile)
            outcome = mc.check_pool("hal.dll")
        return injector.stats.as_dict(), outcome, tb.clock.now

    def test_same_seed_same_schedule(self):
        stats_a, outcome_a, now_a = self._run()
        stats_b, outcome_b, now_b = self._run()
        assert stats_a == stats_b
        assert stats_a["reads"] > 0
        assert now_a == now_b
        assert (outcome_a.report.flagged() == outcome_b.report.flagged())
        assert outcome_a.report.degraded == outcome_b.report.degraded

    def test_different_seed_different_schedule(self, tb):
        a = FaultInjector(FaultConfig(transient_rate=0.5), seed=1)
        b = FaultInjector(FaultConfig(transient_rate=0.5), seed=2)
        draws_a = [float(a.rng.random()) for _ in range(32)]
        draws_b = [float(b.rng.random()) for _ in range(32)]
        assert draws_a != draws_b


class TestFaultClasses:
    def test_transient_raises_and_retry_recovers(self, tb):
        injector = FaultInjector(FaultConfig(transient_rate=0.10), seed=SEED)
        vmi = _vmi(tb)
        with injector.installed(tb.hypervisor):
            data = vmi.read_va(_list_va(tb), 8)
        assert len(data) == 8
        assert injector.stats.transient > 0
        assert vmi.stats.transient_faults > 0 or vmi.stats.retries == 0

    def test_transient_without_retry_propagates(self, tb):
        injector = FaultInjector(FaultConfig(transient_rate=1.0), seed=SEED)
        vmi = _vmi(tb, retry=None)
        with injector.installed(tb.hypervisor):
            with pytest.raises(TransientFault):
                vmi.read_va(_list_va(tb), 8)

    def test_retry_exhaustion_chains_the_last_fault(self, tb):
        injector = FaultInjector(FaultConfig(transient_rate=1.0), seed=SEED)
        vmi = _vmi(tb, retry=RetryPolicy(max_attempts=3, module_attempts=1))
        with injector.installed(tb.hypervisor):
            with pytest.raises(RetryExhausted) as err:
                vmi.read_va(_list_va(tb), 8)
        assert isinstance(err.value.__cause__, TransientFault)
        # RetryExhausted is deliberately NOT transient: outer layers
        # must degrade, never re-enter the retry loop.
        assert not isinstance(err.value, TransientFault)
        assert vmi.stats.retries == 2
        assert vmi.stats.transient_faults == 3

    def test_backoff_advances_simulated_clock(self, tb):
        injector = FaultInjector(FaultConfig(transient_rate=1.0), seed=SEED)
        policy = RetryPolicy(max_attempts=3, module_attempts=1)
        vmi = _vmi(tb, retry=policy)
        before = tb.clock.now
        with injector.installed(tb.hypervisor):
            with pytest.raises(RetryExhausted):
                vmi.read_va(_list_va(tb), 8)
        slept = policy.backoff(0) + policy.backoff(1)
        assert tb.clock.now - before >= slept

    def test_paged_out_window_expires_on_the_clock(self, tb):
        injector = FaultInjector(FaultConfig(paged_out_rate=1.0), seed=SEED)
        vmi = _vmi(tb, retry=None)
        va = _list_va(tb)
        with injector.installed(tb.hypervisor):
            with pytest.raises(PagedOutFault):
                vmi.read_va(va, 8)
            # window is open: even with rates zeroed the frame blocks
            injector.config = FaultConfig()
            with pytest.raises(PagedOutFault):
                vmi.read_va(va, 8)
            assert injector.stats.window_hits == 1
            tb.clock.advance(FaultConfig().paged_out_duration + 0.001)
            assert len(vmi.read_va(va, 8)) == 8

    def test_default_retry_rides_out_paged_out_window(self, tb):
        # One roll opens a 10 ms paged-out window, then rates drop to
        # zero; the default backoff (2+4+8 ms) sleeps past the window.
        injector = FaultInjector(FaultConfig(paged_out_rate=1.0), seed=SEED)
        original_roll = injector._roll

        def roll_once(domid, frame_no, name):
            try:
                return original_roll(domid, frame_no, name)
            finally:
                injector.config = FaultConfig()

        injector._roll = roll_once
        vmi = _vmi(tb)
        with injector.installed(tb.hypervisor):
            data = vmi.read_va(_list_va(tb), 8)
        assert len(data) == 8
        assert injector.stats.paged_out == 1
        assert injector.stats.window_hits > 0
        assert vmi.stats.retries > 0

    def test_unreachable_blocks_the_whole_domain(self, tb):
        injector = FaultInjector(FaultConfig(unreachable_rate=1.0),
                                 seed=SEED)
        vmi = _vmi(tb, retry=None)
        va = _list_va(tb)
        with injector.installed(tb.hypervisor):
            with pytest.raises(DomainUnreachable):
                vmi.read_va(va, 8)
            injector.config = FaultConfig()
            # a *different* address on the same domain is down too
            with pytest.raises(DomainUnreachable):
                vmi.read_va(va + 0x10000, 8)
            # but another domain is untouched
            other = _vmi(tb, "Dom2", retry=None)
            assert len(other.read_va(va, 8)) == 8
            tb.clock.advance(FaultConfig().unreachable_duration + 0.001)
            assert len(vmi.read_va(va, 8)) == 8

    def test_torn_read_serves_stale_snapshot(self, tb):
        injector = FaultInjector(FaultConfig(torn_page_rate=1.0), seed=SEED)
        vmi = _vmi(tb, retry=None, name="Dom1")
        vmi.enable_caches = False
        va = _list_va(tb)
        with injector.installed(tb.hypervisor):
            first = vmi.read_va(va, 16)       # records the snapshot
            pa = vmi.translate_kv2p(va)
            memory = tb.hypervisor.domain("Dom1").kernel.memory
            memory.write(pa, b"\xAA" * 16)     # guest mutates mid-sweep
            second = vmi.read_va(va, 16)       # torn: stale bytes
            assert second == first
            assert injector.stats.stale_served > 0
        # with the injector gone the mutation is visible
        vmi.flush_caches()
        assert vmi.read_va(va, 16) == b"\xAA" * 16

    def test_only_domains_scopes_injection(self, tb):
        injector = FaultInjector(
            FaultConfig(transient_rate=1.0, only_domains=("Dom2",)),
            seed=SEED)
        with injector.installed(tb.hypervisor):
            healthy = _vmi(tb, "Dom1", retry=None)
            assert len(healthy.read_va(_list_va(tb),
                                       8)) == 8
            sick = _vmi(tb, "Dom2", retry=None)
            with pytest.raises(TransientFault):
                sick.read_va(_list_va(tb), 8)


class TestZeroOverhead:
    """Rate 0 (or no injector) must be simulated-time invisible."""

    def _pool_run(self, *, injector=False, retry=DEFAULT_RETRY_POLICY):
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, retry=retry)
        if injector:
            inj = FaultInjector(FaultConfig(), seed=SEED)
            with inj.installed(tb.hypervisor):
                outcome = mc.check_pool("hal.dll")
            assert inj.stats.injected == 0
        else:
            outcome = mc.check_pool("hal.dll")
        return tb.clock.now, outcome

    def test_rate_zero_injector_adds_no_simulated_time(self):
        bare_now, bare = self._pool_run(injector=False)
        inj_now, injected = self._pool_run(injector=True)
        assert inj_now == bare_now
        assert injected.timings.total == bare.timings.total
        assert injected.report.flagged() == bare.report.flagged()

    def test_retry_layer_free_without_faults(self):
        with_retry_now, with_retry = self._pool_run(retry=None)
        without_now, without = self._pool_run(retry=DEFAULT_RETRY_POLICY)
        assert with_retry_now == without_now
        assert with_retry.timings.total == without.timings.total


class TestVMIInitChaining:
    def test_init_error_chains_cause(self, tb):
        with pytest.raises(VMIInitError) as err:
            VMIInstance(tb.hypervisor, "NoSuchDom", tb.profile)
        assert err.value.__cause__ is not None
