"""The incremental check pipeline: manifests, replay, invalidation.

Covers the full invalidation taxonomy (reboot generation, TTL, page
delta, DKOM entry moves, membership, breaker trips, migrations,
flagged verdicts), the commit-on-clean-only rule, pair replay
soundness, and sequential/parallel parity.
"""

import pytest

from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import build_testbed
from repro.core import ModChecker

MODULE = "hal.dll"


@pytest.fixture
def warm_checker(clean_testbed):
    """An incremental checker with manifests committed for hal.dll."""
    tb = clean_testbed
    mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
    report = mc.check_pool(MODULE).report
    assert report.all_clean
    return tb, mc


class TestFastPath:
    def test_second_round_hits_all_manifests(self, warm_checker):
        tb, mc = warm_checker
        out = mc.check_pool(MODULE)
        assert out.report.all_clean
        assert mc.manifests.stats.hits == len(tb.vm_names)
        assert mc.manifests.stats.misses == {"absent": len(tb.vm_names)}

    def test_fast_path_skips_copy_and_parse(self, warm_checker):
        tb, mc = warm_checker
        mapped_before = {vm: vmi.stats.pages_mapped
                         for vm, vmi in mc._vmis.items()}
        mc.check_pool(MODULE)
        for vm, vmi in mc._vmis.items():
            # sweep checksums pages hypervisor-side; the image pages
            # are never foreign-mapped again
            assert vmi.stats.pages_checksummed > 0
            delta = vmi.stats.pages_mapped - mapped_before[vm]
            assert delta * 4096 < 0x4000  # page-table walks only

    def test_fast_round_at_least_3x_cheaper(self, warm_checker):
        tb, mc = warm_checker
        with tb.clock.span() as cold:
            # fresh checker on the same pool = the full-cost baseline
            ModChecker(tb.hypervisor, tb.profile).check_pool(MODULE)
        with tb.clock.span() as warm:
            mc.check_pool(MODULE)
        assert cold.elapsed >= 3.0 * warm.elapsed

    def test_pair_replays_served(self, warm_checker):
        tb, mc = warm_checker
        t = len(tb.vm_names)
        mc.check_pool(MODULE)
        assert mc.pair_replays == t * (t - 1) // 2

    def test_off_by_default(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile)
        mc.check_pool(MODULE)
        mc.check_pool(MODULE)
        assert not mc.incremental
        assert len(mc.manifests) == 0
        assert mc.pair_replays == 0


class TestInvalidation:
    def test_reboot_bumps_generation(self, warm_checker):
        tb, mc = warm_checker
        victim = tb.vm_names[0]
        tb.hypervisor.reboot(victim)
        report = mc.check_pool(MODULE).report
        assert report.all_clean
        assert mc.manifests.stats.misses.get("generation") == 1

    def test_ttl_forces_full_recheck(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True,
                        recheck_ttl=1000.0)
        mc.check_pool(MODULE)
        tb.clock.advance(999.0)
        mc.check_pool(MODULE)           # still inside the TTL
        assert mc.manifests.stats.misses.get("ttl") is None
        tb.clock.advance(2.0)
        mc.check_pool(MODULE)           # expired: full path again
        assert mc.manifests.stats.misses.get("ttl") == len(tb.vm_names)

    def test_sweep_hits_do_not_refresh_ttl(self, clean_testbed):
        """verified_at marks the last FULL verification; manifest hits
        must not push the TTL horizon forward."""
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True,
                        recheck_ttl=1000.0)
        mc.check_pool(MODULE)
        for _ in range(4):
            tb.clock.advance(300.0)
            mc.check_pool(MODULE)
        # 1200s of sweep hits elapsed: the TTL must have fired once
        assert mc.manifests.stats.misses.get("ttl") == len(tb.vm_names)

    def test_page_delta_detected_and_flagged(self, warm_checker, catalog):
        tb, mc = warm_checker
        victim = tb.vm_names[1]
        RuntimeCodePatchAttack().apply(tb.hypervisor.domain(victim).kernel,
                                       catalog[MODULE])
        report = mc.check_pool(MODULE).report
        assert sorted(report.flagged()) == [victim]
        inv = mc.manifests.stats.invalidations
        assert inv.get("page-delta") == 1
        # the flagged VM keeps failing the vote and never re-earns a
        # manifest; everyone else keeps their fast path
        report = mc.check_pool(MODULE).report
        assert sorted(report.flagged()) == [victim]
        assert (victim, MODULE) not in mc.manifests._entries

    def test_dkom_unlink_caught_by_entry_check(self, warm_checker):
        """A DKOM unlink leaves the node intact; the neighbour check
        must still notice and route the VM through the full walk."""
        tb, mc = warm_checker
        victim = tb.vm_names[0]
        tb.hypervisor.domain(victim).kernel.unload_module(MODULE)
        report = mc.check_pool(MODULE).report
        assert victim not in report.verdicts     # not loaded -> no vote
        assert mc.manifests.stats.invalidations.get("entry-moved") == 1

    def test_admit_evict_drop_manifests(self, warm_checker):
        tb, mc = warm_checker
        victim = tb.vm_names[0]
        mc.evict_vm(victim)
        assert mc.manifests.stats.invalidations.get("evict") == 1
        mc.check_pool(MODULE)       # victim re-earns its manifest
        mc.admit_vm(victim)
        assert mc.manifests.stats.invalidations.get("admit") == 1

    def test_public_invalidate_emits_event(self, clean_testbed):
        from repro.obs import make_observability
        tb = clean_testbed
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True,
                        obs=obs)
        mc.check_pool(MODULE)
        removed = mc.invalidate_manifests(reason="test-sweep")
        assert removed == len(tb.vm_names)
        evs = obs.events.by_name("manifest.invalidated")
        assert len(evs) == 1
        assert evs[0].attrs == {"vm": "*", "module": "*",
                                "reason": "test-sweep",
                                "entries": len(tb.vm_names)}
        # empty store: no second event
        assert mc.invalidate_manifests(reason="test-sweep") == 0
        assert len(obs.events.by_name("manifest.invalidated")) == 1


class TestDaemonWiring:
    def test_migrate_finish_invalidates(self, clean_testbed):
        from repro.core.daemon import CheckDaemon

        class OneMigration:
            """Minimal chaos stand-in: migrate Dom1, then nothing."""
            def __init__(self, hv, vm):
                self.hv, self.vm = hv, vm
                self.fired = False

            def step(self):
                from repro.cloud.chaos import ChaosEvent
                if self.fired:
                    return []
                self.fired = True
                now = self.hv.clock.now
                self.hv.migrate_start(self.vm)
                self.hv.migrate_finish(self.vm)
                return [ChaosEvent(now, "migrate-start", self.vm),
                        ChaosEvent(now, "migrate-finish", self.vm)]

        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        daemon = CheckDaemon(mc)
        daemon.run_cycle()          # warm: manifests committed
        daemon.chaos = OneMigration(tb.hypervisor, tb.vm_names[0])
        daemon.run_cycle()
        assert mc.manifests.stats.invalidations.get("migration", 0) >= 1

    def test_breaker_trip_invalidates(self, clean_testbed):
        from repro.core.daemon import CheckDaemon
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        daemon = CheckDaemon(mc)
        daemon.run_cycle()
        victim = tb.vm_names[0]
        before = mc.manifests.stats.invalidations.get("breaker", 0)
        tripped = False
        for _ in range(10):     # default fail_threshold is small
            daemon._trip_vm(victim, "forced failure", [])
            if mc.manifests.stats.invalidations.get("breaker", 0) > before:
                tripped = True
                break
        assert tripped


class TestParallelParity:
    def test_parallel_fast_path_and_same_verdicts(self, clean_testbed,
                                                  catalog):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, workers=4,
                        incremental=True)
        r1 = mc.check_pool(MODULE).report
        assert r1.all_clean
        r2 = mc.check_pool(MODULE).report
        assert r2.all_clean
        assert mc.manifests.stats.hits == len(tb.vm_names)
        t = len(tb.vm_names)
        assert mc.pair_replays == t * (t - 1) // 2
        victim = tb.vm_names[1]
        RuntimeCodePatchAttack().apply(tb.hypervisor.domain(victim).kernel,
                                       catalog[MODULE])
        r3 = mc.check_pool(MODULE).report
        assert sorted(r3.flagged()) == [victim]

    def test_parallel_warm_round_is_cheaper(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, workers=4,
                        incremental=True)
        with tb.clock.span() as cold:
            mc.check_pool(MODULE)
        with tb.clock.span() as warm:
            mc.check_pool(MODULE)
        assert warm.elapsed < cold.elapsed


class TestCommitRules:
    def test_manifest_not_committed_for_flagged_vm(self, clean_testbed,
                                                   catalog):
        tb = clean_testbed
        victim = tb.vm_names[0]
        RuntimeCodePatchAttack().apply(tb.hypervisor.domain(victim).kernel,
                                       catalog[MODULE])
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        report = mc.check_pool(MODULE).report
        assert sorted(report.flagged()) == [victim]
        assert (victim, MODULE) not in mc.manifests._entries
        for vm in tb.vm_names:
            if vm != victim:
                assert (vm, MODULE) in mc.manifests._entries

    def test_replay_requires_both_keys(self, warm_checker, catalog):
        """A pair where one side re-acquired must be recomputed, not
        replayed against the stale comparison."""
        tb, mc = warm_checker
        victim = tb.vm_names[1]
        RuntimeCodePatchAttack().apply(tb.hypervisor.domain(victim).kernel,
                                       catalog[MODULE])
        replays_before = mc.pair_replays
        report = mc.check_pool(MODULE).report
        t = len(tb.vm_names)
        # only pairs not involving the tampered VM replay
        assert (mc.pair_replays - replays_before
                == (t - 1) * (t - 2) // 2)
        assert sorted(report.flagged()) == [victim]
