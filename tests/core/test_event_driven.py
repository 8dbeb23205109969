"""Event-driven monitoring: protections, traps, fallbacks, accounting.

The third checking mode (``event_driven=True``): a committed manifest
write-protects its pages plus the LDR guard frames, and later
validations check only what trapped — O(writes) instead of O(pages).
These tests cover arming, targeted re-checks, the full fallback
taxonomy (exhausted / paranoia / lifecycle / unprotectable), guard
handling, the daemon subscription hook, and the tail-masking commit
rule that lets an image ending mid-page earn a manifest at all.
"""

import dataclasses

import pytest

from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.hypervisor.xen import Hypervisor
from repro.mem.physical import PAGE_SIZE
from repro.obs import make_observability
from repro.pe.structures import FileHeader, OptionalHeader
from repro.vmi import OSProfile

MODULE = "hal.dll"


@pytest.fixture
def warm(clean_testbed):
    """An event-driven checker with protections armed for hal.dll."""
    tb = clean_testbed
    mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
    assert mc.check_pool(MODULE).report.all_clean
    return tb, mc


def _image_va(tb, vm, page=1, offset=5):
    mod = tb.hypervisor.domain(vm).kernel.module(MODULE)
    return mod.base + page * PAGE_SIZE + offset


class TestArming:
    def test_event_driven_implies_incremental(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        assert mc.incremental and mc.event_driven

    def test_first_round_arms_every_vm(self, warm):
        tb, mc = warm
        assert sorted(vm for vm, _ in mc._protections) == \
            sorted(tb.vm_names)
        n_pages = -(-tb.hypervisor.domain(tb.vm_names[0]).kernel
                    .module(MODULE).size_of_image // PAGE_SIZE)
        for vm in tb.vm_names:
            # image pages + entry guard + two neighbour guards
            assert len(tb.hypervisor.domain(vm).protected_frames) \
                >= n_pages

    def test_steady_state_is_one_empty_drain(self, warm):
        tb, mc = warm
        checksummed = {vm: vmi.stats.pages_checksummed
                       for vm, vmi in mc._vmis.items()}
        out = mc.check_pool(MODULE)
        assert out.report.all_clean
        assert mc.trap_validations == len(tb.vm_names)
        assert mc.trap_pages_checked == 0
        for vm, vmi in mc._vmis.items():
            assert vmi.stats.pages_checksummed == checksummed[vm]

    def test_steady_state_cheaper_than_incremental_sweep(self,
                                                         clean_testbed):
        tb = clean_testbed
        sweep = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        event = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        sweep.check_pool(MODULE)
        event.check_pool(MODULE)
        with tb.clock.span() as s:
            sweep.check_pool(MODULE)
        with tb.clock.span() as e:
            event.check_pool(MODULE)
        assert e.elapsed < s.elapsed

    def test_invalidate_disarms_everything(self, warm):
        tb, mc = warm
        mc.invalidate_manifests(reason="test-sweep")
        assert mc._protections == {}
        for vm in tb.vm_names:
            assert tb.hypervisor.domain(vm).protected_frames == {}


class TestTargetedRecheck:
    def test_dirty_page_rechecked_not_swept(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        kernel = tb.hypervisor.domain(vm).kernel
        mod = kernel.module(MODULE)
        # rewrite one byte with its own value: content unchanged, but
        # the write still traps and must be re-digested
        va = mod.base + 2 * PAGE_SIZE + 7
        kernel.aspace.write(va, kernel.aspace.read(va, 1))
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_pages_checked == 1
        assert mc.manifests.stats.invalidations.get("page-delta") is None

    def test_tamper_caught_via_trap(self, warm, catalog):
        tb, mc = warm
        victim = tb.vm_names[1]
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain(victim).kernel, catalog[MODULE])
        report = mc.check_pool(MODULE).report
        assert sorted(report.flagged()) == [victim]
        assert mc.manifests.stats.invalidations.get("page-delta") == 1

    def test_unrelated_writes_do_not_trap(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        kernel = tb.hypervisor.domain(vm).kernel
        other = kernel.module("ndis.sys")      # not under protection
        kernel.aspace.write(other.base + 64, b"\x90" * 8)
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_pages_checked == 0

    def test_pending_trap_modules_names_dirty_work(self, warm):
        tb, mc = warm
        assert mc.pending_trap_modules(tb.vm_names) == []
        vm = tb.vm_names[2]
        tb.hypervisor.domain(vm).kernel.aspace.write(
            _image_va(tb, vm), b"\x90")
        assert mc.pending_trap_modules(tb.vm_names) == [MODULE]
        # routing persisted on the record: the next check still sees it
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_pages_checked == 1

    def test_pending_trap_modules_off_path(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        assert mc.pending_trap_modules(tb.vm_names) == []


class TestFallbacks:
    def test_paranoia_resweeps_periodically(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True,
                        paranoia_every=2)
        for _ in range(4):
            assert mc.check_pool(MODULE).report.all_clean
        # validations 2 per VM by round 3: one paranoia sweep each
        assert mc.trap_fallbacks.get("paranoia", 0) >= len(tb.vm_names)

    def test_paranoia_disabled(self, clean_testbed):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True,
                        paranoia_every=None)
        for _ in range(4):
            mc.check_pool(MODULE)
        assert mc.trap_fallbacks.get("paranoia") is None

    def test_ring_overflow_falls_back_exhausted(self, catalog):
        hv = Hypervisor(trap_capacity=1)
        for i in range(1, 4):
            hv.create_guest(f"Dom{i}", catalog, seed=i)
        profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
        mc = ModChecker(hv, profile, event_driven=True)
        assert mc.check_pool(MODULE).report.all_clean
        kernel = hv.domain("Dom1").kernel
        mod = kernel.module(MODULE)
        for page in (1, 2):                    # second frame overflows
            va = mod.base + page * PAGE_SIZE
            kernel.aspace.write(va, kernel.aspace.read(va, 1))
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_fallbacks.get("exhausted") == 1
        # the sweep cleared the slate: next round is steady-state again
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_fallbacks.get("exhausted") == 1

    def test_lifecycle_drop_falls_back_and_rearms(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        tb.hypervisor.migrate_start(vm)
        tb.hypervisor.migrate_finish(vm)     # epoch bump, no reboot
        assert tb.hypervisor.domain(vm).protected_frames == {}
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_fallbacks.get("lifecycle") == 1
        # re-armed against the new epoch
        rec = mc._protections[(vm, MODULE)]
        assert rec.epoch == tb.hypervisor.domain(vm).protection_epoch
        assert tb.hypervisor.domain(vm).protected_frames

    @pytest.mark.parametrize("mode", ["full", "incremental", "event"])
    def test_migration_blackout_is_a_mode_difference(self, mode):
        """A documented divergence between the pipeline modes.

        ``migrate_start`` puts a guest in a read blackout but leaves its
        protections armed (they drop only at ``migrate_finish``). Full
        and incremental mode must read the guest, exhaust the retry
        budget and degrade it; event-driven mode serves the manifest
        from trap silence without a read, so the migrating guest keeps
        voting.
        """
        tb = build_testbed(5, seed=0)
        mc = ModChecker(tb.hypervisor, tb.profile,
                        incremental=mode == "incremental",
                        event_driven=mode == "event")
        mc.check_pool(MODULE)
        mc.check_pool(MODULE)
        tb.hypervisor.migrate_start("Dom3")
        report = mc.check_pool(MODULE).report
        assert report.all_clean
        if mode == "event":
            assert report.degraded == {}
            assert "Dom3" in report.verdicts
            assert mc.trap_validations == 2 * 5     # warm round + this one
        else:
            assert list(report.degraded) == ["Dom3"]
            assert report.degraded["Dom3"].startswith("retry-exhausted:")
            assert "Dom3" not in report.verdicts

    def test_reboot_drops_protection_with_manifest(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        tb.hypervisor.reboot(vm)
        assert mc.check_pool(MODULE).report.all_clean
        # generation miss dropped the armed record before re-arming
        rec = mc._protections[(vm, MODULE)]
        assert rec.boot_generation == \
            tb.hypervisor.domain(vm).boot_generation

    def test_unprotectable_pages_stay_on_sweep_path(self, catalog):
        hv = Hypervisor(protect_limit=4)       # too small for the image
        for i in range(1, 4):
            hv.create_guest(f"Dom{i}", catalog, seed=i)
        profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
        mc = ModChecker(hv, profile, event_driven=True)
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_fallbacks.get("unprotectable", 0) >= 3
        assert mc.trap_pages_checked > 0       # unarmed pages re-swept


class TestGuards:
    def test_benign_guard_write_reverifies_entry(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        kernel = tb.hypervisor.domain(vm).kernel
        entry = kernel.module(MODULE).ldr_entry_va
        # scribble a field verify_cached_entry does not read (0x30 is
        # past FLINK/BLINK/DllBase/SizeOfImage) — guard fires, the
        # verify passes, the manifest survives
        kernel.aspace.write(entry + 0x30, b"\x01")
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.manifests.stats.invalidations.get("entry-moved") is None
        assert not mc._protections[(vm, MODULE)].guard_dirty

    def test_dkom_unlink_trips_guard_then_entry_check(self, warm):
        tb, mc = warm
        victim = tb.vm_names[0]
        tb.hypervisor.domain(victim).kernel.unload_module(MODULE)
        report = mc.check_pool(MODULE).report
        assert victim not in report.verdicts     # not loaded -> no vote
        assert mc.manifests.stats.invalidations.get("entry-moved") == 1
        assert (victim, MODULE) not in mc._protections

    def test_snapshot_revert_floods_and_resweeps(self, warm):
        tb, mc = warm
        vm = tb.vm_names[0]
        tb.hypervisor.snapshot(vm)
        tb.hypervisor.revert(vm)
        assert mc.check_pool(MODULE).report.all_clean
        # every protected frame trapped: the whole image re-digested
        n_pages = -(-tb.hypervisor.domain(vm).kernel
                    .module(MODULE).size_of_image // PAGE_SIZE)
        assert mc.trap_pages_checked >= n_pages


class TestParallelParity:
    def test_parallel_event_driven_same_verdicts(self, clean_testbed,
                                                 catalog):
        tb = clean_testbed
        mc = ModChecker(tb.hypervisor, tb.profile, workers=4,
                        event_driven=True)
        assert mc.event_driven and mc.incremental
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.check_pool(MODULE).report.all_clean
        assert mc.trap_validations == len(tb.vm_names)
        victim = tb.vm_names[1]
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain(victim).kernel, catalog[MODULE])
        r3 = mc.check_pool(MODULE).report
        assert sorted(r3.flagged()) == [victim]

    def test_parallel_trap_accounting_matches_sequential(self,
                                                         clean_testbed):
        tb = clean_testbed
        seq = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        for _ in range(3):
            seq.check_pool(MODULE)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4,
                         event_driven=True)
        for _ in range(3):
            par.check_pool(MODULE)
        assert par.trap_validations == seq.trap_validations
        assert par.trap_pages_checked == seq.trap_pages_checked
        assert par.trap_fallbacks == seq.trap_fallbacks


class TestObservability:
    def test_trap_events_emitted(self, clean_testbed):
        tb = clean_testbed
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True,
                        obs=obs)
        mc.check_pool(MODULE)
        assert len(obs.events.by_name("trap.protected")) == \
            len(tb.vm_names)
        vm = tb.vm_names[0]
        tb.hypervisor.domain(vm).kernel.aspace.write(
            _image_va(tb, vm), b"\x90")
        mc.check_pool(MODULE)
        delivered = obs.events.by_name("trap.delivered")
        assert len(delivered) == 1
        assert delivered[0].attrs["vm"] == vm
        assert delivered[0].attrs["traps"] == 1

    def test_fallback_event_carries_reason(self, clean_testbed):
        tb = clean_testbed
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True,
                        paranoia_every=2, obs=obs)
        for _ in range(3):
            mc.check_pool(MODULE)
        evs = obs.events.by_name("trap.fallback")
        assert evs and all(e.attrs["reason"] == "paranoia" for e in evs)

    def test_trap_metrics_published(self, clean_testbed):
        tb = clean_testbed
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True,
                        obs=obs)
        mc.check_pool(MODULE)
        mc.check_pool(MODULE)
        metrics = obs.metrics
        assert metrics.counter("modchecker_trap_validations_total") \
            .value() == len(tb.vm_names)
        assert metrics.gauge("modchecker_protected_frames").value() > 0
        assert metrics.counter("modchecker_traps_total") \
            .value(outcome="drained") >= 0


class TestTailMasking:
    """Regression: an image ending mid-page used to be refused a
    manifest (commit) and, worse, the sweep hashed co-resident bytes
    past its tail, so neighbours could spuriously invalidate it."""

    @pytest.fixture
    def unaligned_pool(self, catalog):
        patched = dict(catalog)
        bp = patched["dummy.sys"]
        opt_off = bp.e_lfanew + 4 + FileHeader.SIZE
        opt = OptionalHeader.unpack(bp.file_bytes[opt_off:])
        new_opt = dataclasses.replace(opt,
                                      size_of_image=opt.size_of_image - 16)
        fb = bytearray(bp.file_bytes)
        fb[opt_off:opt_off + OptionalHeader.SIZE] = new_opt.pack()
        patched["dummy.sys"] = dataclasses.replace(
            bp, file_bytes=bytes(fb), optional_header=new_opt)
        hv = Hypervisor()
        for i in range(1, 4):
            hv.create_guest(f"Dom{i}", patched, seed=i)
        profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
        return hv, profile

    def _mod(self, hv, vm="Dom1"):
        return hv.domain(vm).kernel.module("dummy.sys")

    def test_unaligned_image_earns_a_manifest(self, unaligned_pool):
        hv, profile = unaligned_pool
        assert self._mod(hv).size_of_image % PAGE_SIZE != 0
        mc = ModChecker(hv, profile, incremental=True)
        assert mc.check_pool("dummy.sys").report.all_clean
        assert mc.check_pool("dummy.sys").report.all_clean
        assert mc.manifests.stats.hits == 3

    def test_beyond_tail_scribble_keeps_manifest_hitting(self,
                                                         unaligned_pool):
        hv, profile = unaligned_pool
        mc = ModChecker(hv, profile, incremental=True)
        mc.check_pool("dummy.sys")
        for vm in ("Dom1", "Dom2", "Dom3"):
            mod = self._mod(hv, vm)
            hv.domain(vm).kernel.aspace.write(
                mod.base + mod.size_of_image, b"\xEE" * 16)
        assert mc.check_pool("dummy.sys").report.all_clean
        assert mc.manifests.stats.hits == 3
        assert mc.manifests.stats.invalidations.get("page-delta") is None

    def test_in_range_tail_write_still_invalidates(self, unaligned_pool):
        hv, profile = unaligned_pool
        mc = ModChecker(hv, profile, incremental=True)
        mc.check_pool("dummy.sys")
        mod = self._mod(hv, "Dom2")
        hv.domain("Dom2").kernel.aspace.write(
            mod.base + mod.size_of_image - 4, b"\xBB" * 4)
        mc.check_pool("dummy.sys")
        assert mc.manifests.stats.invalidations.get("page-delta") == 1

    def test_event_driven_handles_unaligned_tail(self, unaligned_pool):
        hv, profile = unaligned_pool
        mc = ModChecker(hv, profile, event_driven=True)
        assert mc.check_pool("dummy.sys").report.all_clean
        # beyond-tail scribble traps (same frame) but the masked
        # re-digest must not invalidate
        mod = self._mod(hv, "Dom1")
        hv.domain("Dom1").kernel.aspace.write(
            mod.base + mod.size_of_image, b"\xEE" * 16)
        assert mc.check_pool("dummy.sys").report.all_clean
        assert mc.trap_pages_checked == 1
        assert mc.manifests.stats.invalidations.get("page-delta") is None
