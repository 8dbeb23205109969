"""Restore-on-tamper repair engine: self-healing pools.

Covers the full remediation ladder: verified in-place restore (with
relocations re-applied at the victim's own base), the racing adversary
losing to the retry budget, quarantine escalation when it does not, and
the LDR-blinding attack that attestation must refuse to "repair".
"""

from __future__ import annotations

import pytest

from repro.attacks import (LdrBlindingAttack, RacingWriterAttack,
                           RuntimeCodePatchAttack, attack_for_experiment)
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.core.daemon import CheckDaemon, RoundRobinPolicy
from repro.core.repair import (REPAIR_POLICIES, RemediationRecord,
                               RepairEngine, RepairStats, _clip_to_regions,
                               _diff_segments)
from repro.obs import make_observability

SEED = 42
VICTIM = "Dom2"


def make_checker(tb, policy="repair", attempts=3, **kwargs):
    return ModChecker(tb.hypervisor, tb.profile, repair_policy=policy,
                      repair_max_attempts=attempts, **kwargs)


def infect(tb, hal_blueprint, vm=VICTIM, attack=None):
    attack = attack or RuntimeCodePatchAttack()
    return attack.apply(tb.hypervisor.domain(vm).kernel, hal_blueprint)


class TestPolicies:
    def test_detect_only_is_default_and_never_repairs(self, clean_testbed,
                                                      hal_blueprint):
        infect(clean_testbed, hal_blueprint)
        mc = ModChecker(clean_testbed.hypervisor, clean_testbed.profile)
        assert mc.repair is None
        out = mc.check_pool("hal.dll")
        assert out.report.flagged() == [VICTIM]
        assert out.remediations == []
        # tampered state untouched
        assert not mc.check_pool("hal.dll").report.all_clean

    def test_unknown_policy_rejected(self, clean_testbed):
        with pytest.raises(ValueError, match="unknown repair policy"):
            make_checker(clean_testbed, policy="nuke-from-orbit")

    def test_policy_names_closed(self):
        assert REPAIR_POLICIES == (
            "detect-only", "repair", "quarantine-on-repeat-failure")


class TestVerifiedRepair:
    def test_tamper_is_repaired_and_reverified(self, clean_testbed,
                                               hal_blueprint):
        result = infect(clean_testbed, hal_blueprint)
        mc = make_checker(clean_testbed)
        out = mc.check_pool("hal.dll")
        assert out.report.flagged() == [VICTIM]
        (rec,) = out.remediations
        assert rec.status == "verified"
        assert rec.vm_name == VICTIM
        assert rec.attempts == 1
        assert rec.regions == (".text",)
        assert not rec.aborted and rec.reason is None
        # the pool is actually clean afterwards, not just reported so
        assert mc.check_pool("hal.dll").report.all_clean
        # the guest bytes themselves are restored
        kernel = clean_testbed.hypervisor.domain(VICTIM).kernel
        va = result.details["va"]
        restored = kernel.aspace.read(va, len(result.details["patch"]) // 2)
        assert restored.hex() == result.details["original"][:len(restored) * 2]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_e2_victim_healed(self, workers):
        # E2 booted infected (inline hook baked into the image on disk):
        # the repair restores the in-memory copy to the majority's
        attack, module = attack_for_experiment("E2")
        tb = build_testbed(4, seed=SEED)
        infected = attack.apply(tb.catalog[module]).infected
        tb = build_testbed(4, seed=SEED,
                           infected={VICTIM: {module: infected}})
        mc = make_checker(tb, workers=workers)
        out = mc.check_pool(module)
        assert out.report.flagged() == [VICTIM]
        (rec,) = out.remediations
        assert rec.status == "verified"
        assert rec.mttr > 0
        assert mc.check_pool(module).report.all_clean

    def test_writes_only_unexplained_bytes(self, clean_testbed,
                                           hal_blueprint):
        """Relocation-explained differences must never be written.

        Clones load hal.dll at different bases, so the reference image
        differs from the victim's at every fixup site; a repair that
        wrote those would clobber the victim's own relocations. The
        write plan reconstructs the reference *at the victim's base*
        first, so only the tampered bytes remain to write.
        """
        patch = b"\xEB\xFE\x90\x90"
        infect(clean_testbed, hal_blueprint,
               attack=RuntimeCodePatchAttack(patch=patch))
        bases = {vm: clean_testbed.hypervisor.domain(vm).kernel
                 .module("hal.dll").base for vm in clean_testbed.vm_names}
        assert len(set(bases.values())) > 1, "testbed should relocate"
        mc = make_checker(clean_testbed)
        (rec,) = mc.check_pool("hal.dll").remediations
        assert rec.status == "verified"
        # one contiguous patch -> one hunk, exactly the patched bytes
        assert rec.hunks_written == 1
        assert rec.bytes_written == len(patch)

    def test_mttr_is_deterministic_per_seed(self, hal_blueprint):
        def run():
            tb = build_testbed(4, seed=SEED)
            infect(tb, hal_blueprint)
            mc = make_checker(tb)
            (rec,) = mc.check_pool("hal.dll").remediations
            return rec.detected_at, rec.resolved_at, rec.mttr
        assert run() == run()

    def test_mttr_measures_detect_to_verified(self, clean_testbed,
                                              hal_blueprint):
        infect(clean_testbed, hal_blueprint)
        mc = make_checker(clean_testbed)
        (rec,) = mc.check_pool("hal.dll").remediations
        assert rec.mttr == pytest.approx(rec.resolved_at - rec.detected_at)
        assert rec.mttr > 0

    def test_repair_events_emitted(self, clean_testbed, hal_blueprint):
        infect(clean_testbed, hal_blueprint)
        obs = make_observability(clean_testbed.clock)
        mc = make_checker(clean_testbed, obs=obs)
        mc.check_pool("hal.dll")
        (attempted,) = obs.events.by_name("repair.attempted")
        assert attempted.attrs["vm"] == VICTIM
        assert attempted.attrs["reference"] != VICTIM
        (verified,) = obs.events.by_name("repair.verified")
        assert verified.attrs["mttr"] > 0
        assert not obs.events.by_name("repair.failed")

    def test_manifests_invalidated_with_repaired_reason(self, clean_testbed,
                                                        hal_blueprint):
        infect(clean_testbed, hal_blueprint)
        mc = make_checker(clean_testbed, incremental=True)
        calls = []
        original = mc.invalidate_manifests

        def spy(vm, module=None, *, reason):
            calls.append((vm, module, reason))
            return original(vm, module, reason=reason)

        mc.invalidate_manifests = spy
        mc.check_pool("hal.dll")
        assert (VICTIM, "hal.dll", "repaired") in calls

    def test_no_remediation_on_clean_pool(self, clean_testbed):
        mc = make_checker(clean_testbed)
        out = mc.check_pool("hal.dll")
        assert out.report.all_clean
        assert out.remediations == []
        assert mc.repair.stats.attempts == 0


class TestRacingAdversary:
    def test_racer_below_budget_converges_verified(self, clean_testbed,
                                                   hal_blueprint):
        mc = make_checker(clean_testbed, attempts=3)
        racer = RacingWriterAttack(rewrites=2)
        racer.apply(clean_testbed.hypervisor.domain(VICTIM).kernel,
                    hal_blueprint)
        racer.arm(clean_testbed.clock)
        try:
            (rec,) = mc.check_pool("hal.dll").remediations
        finally:
            racer.disarm()
        assert rec.status == "verified"
        assert rec.attempts == 3            # two rounds lost to the racer
        assert rec.raced_writes >= 2        # armed traps saw the rewrites
        assert racer.rewrites_done == 2
        assert mc.check_pool("hal.dll").report.all_clean

    def test_racer_at_budget_escalates_to_quarantine(self, clean_testbed,
                                                     hal_blueprint):
        mc = make_checker(clean_testbed,
                          policy="quarantine-on-repeat-failure", attempts=2)
        quarantined = []
        mc.repair.on_quarantine = \
            lambda vm, mod, why: quarantined.append((vm, mod))
        racer = RacingWriterAttack(rewrites=10)
        racer.apply(clean_testbed.hypervisor.domain(VICTIM).kernel,
                    hal_blueprint)
        racer.arm(clean_testbed.clock)
        try:
            (rec,) = mc.check_pool("hal.dll").remediations
        finally:
            racer.disarm()
        assert rec.status == "quarantined"
        assert rec.attempts == 2
        assert not rec.aborted
        assert quarantined == [(VICTIM, "hal.dll")]

    def test_no_silent_failures_without_quarantine(self, clean_testbed,
                                                   hal_blueprint):
        """Plain "repair" policy: an unhealed VM ends "failed", loudly."""
        mc = make_checker(clean_testbed, attempts=2)
        racer = RacingWriterAttack(rewrites=10)
        racer.apply(clean_testbed.hypervisor.domain(VICTIM).kernel,
                    hal_blueprint)
        racer.arm(clean_testbed.clock)
        try:
            (rec,) = mc.check_pool("hal.dll").remediations
        finally:
            racer.disarm()
        assert rec.status == "failed"
        assert rec.reason == "re-verification still flagged"

    def test_race_is_deterministic(self, hal_blueprint):
        def run():
            tb = build_testbed(4, seed=SEED)
            mc = make_checker(tb, attempts=3)
            racer = RacingWriterAttack(rewrites=2)
            racer.apply(tb.hypervisor.domain(VICTIM).kernel, hal_blueprint)
            racer.arm(tb.clock)
            try:
                (rec,) = mc.check_pool("hal.dll").remediations
            finally:
                racer.disarm()
            return (rec.status, rec.attempts, rec.raced_writes,
                    rec.mttr, tuple(racer.rewrite_times))
        assert run() == run()


class TestBlindingAttack:
    def test_spoofed_dllbase_aborts_without_writing(self, clean_testbed,
                                                    hal_blueprint):
        kernel = clean_testbed.hypervisor.domain(VICTIM).kernel
        result = LdrBlindingAttack().apply(kernel, hal_blueprint)
        alias = kernel.module(result.details["alias"])
        before = bytes(kernel.aspace.read(alias.base, alias.size_of_image))
        mc = make_checker(clean_testbed)
        out = mc.check_pool("hal.dll")
        assert out.report.flagged() == [VICTIM]
        (rec,) = out.remediations
        assert rec.aborted
        assert rec.status == "failed"
        assert rec.reason.startswith("aborted:")
        assert rec.bytes_written == 0 and rec.hunks_written == 0
        # the aliased innocent module was never touched
        after = bytes(kernel.aspace.read(alias.base, alias.size_of_image))
        assert after == before

    def test_abort_never_escalates_past_quarantine_label(self, clean_testbed,
                                                         hal_blueprint):
        """Quarantine policy still quarantines, but the record keeps
        ``aborted`` so forensics can tell refusal from retry exhaustion."""
        kernel = clean_testbed.hypervisor.domain(VICTIM).kernel
        LdrBlindingAttack().apply(kernel, hal_blueprint)
        mc = make_checker(clean_testbed,
                          policy="quarantine-on-repeat-failure")
        (rec,) = mc.check_pool("hal.dll").remediations
        assert rec.status == "quarantined"
        assert rec.aborted
        assert rec.attempts == 1            # refusal does not retry

    def test_abort_recorded_in_evidence_bundle(self, clean_testbed,
                                               hal_blueprint, tmp_path):
        from repro.forensics import EvidenceRecorder, load_bundle
        kernel = clean_testbed.hypervisor.domain(VICTIM).kernel
        LdrBlindingAttack().apply(kernel, hal_blueprint)
        recorder = EvidenceRecorder(out_dir=tmp_path)
        mc = make_checker(clean_testbed, evidence=recorder)
        mc.check_pool("hal.dll")
        bundle = recorder.last
        (rec,) = bundle.remediations
        assert rec.aborted and rec.bytes_written == 0
        # and it round-trips through the persisted JSON
        (path,) = sorted(tmp_path.glob("*.json"))
        loaded = load_bundle(path)
        (rec2,) = loaded.remediations
        assert rec2.to_dict() == rec.to_dict()


class TestRepairUnderArmedManifests:
    def test_privileged_restore_does_not_self_trap(self, clean_testbed,
                                                   hal_blueprint):
        """Regression: the repair write path runs against frames the
        event-driven pipeline keeps write-protected; an unprivileged
        write there would trap (or fault) on our own remediation."""
        mc = make_checker(clean_testbed, event_driven=True)
        assert mc.check_pool("hal.dll").report.all_clean   # arm manifests
        infect(clean_testbed, hal_blueprint)               # fires real trap
        out = mc.check_pool("hal.dll")
        (rec,) = out.remediations
        assert rec.status == "verified"
        assert rec.raced_writes == 0        # our own writes are invisible
        hv = clean_testbed.hypervisor
        assert all(hv.traps.pending(vm) == 0
                   for vm in clean_testbed.vm_names)
        assert mc.check_pool("hal.dll").report.all_clean

    def test_event_driven_fast_path_resumes_after_repair(self, clean_testbed,
                                                         hal_blueprint):
        mc = make_checker(clean_testbed, event_driven=True)
        mc.check_pool("hal.dll")
        infect(clean_testbed, hal_blueprint)
        mc.check_pool("hal.dll")                 # detect + repair + re-arm

        def pages_mapped():
            return sum(mc.vmi_for(vm).stats.pages_mapped
                       for vm in clean_testbed.vm_names)

        base = pages_mapped()
        assert mc.check_pool("hal.dll").report.all_clean
        # steady state again: the re-check rode the armed manifests
        assert pages_mapped() == base


class TestReconstruction:
    def test_base_collision_degenerates_to_plain_restore(self, clean_testbed):
        """Same-base suspect/reference: no relocation delta to re-apply;
        the reconstruction must be byte-identical to the reference."""
        mc = make_checker(clean_testbed)
        fetch = mc.fetch_modules("hal.dll", clean_testbed.vm_names)
        ref = fetch.parsed[0]
        off = ref.code_regions[0].start + 0x30       # inside .text
        tampered = bytearray(ref.image)
        tampered[off] ^= 0xFF
        suspect = type(ref)(vm_name="Evil", module_name=ref.module_name,
                            base=ref.base, image=bytes(tampered),
                            header_regions=ref.header_regions,
                            code_regions=ref.code_regions)
        recon = mc.repair._reconstruct(suspect, ref)
        assert bytes(recon) == bytes(ref.image)
        assert _diff_segments(suspect.image, recon) == [(off, off + 1)]

    def test_reconstruction_rebases_reference_to_victim(self, clean_testbed):
        """Distinct bases: the reconstruction equals the *victim's* clean
        image (fixups at the victim's base), not the reference's bytes —
        writing raw reference bytes would be the relocation mis-write."""
        mc = make_checker(clean_testbed)
        fetch = mc.fetch_modules("hal.dll", clean_testbed.vm_names)
        by_vm = {p.vm_name: p for p in fetch.parsed}
        ref, victim = by_vm["Dom1"], by_vm[VICTIM]
        assert ref.base != victim.base
        assert bytes(ref.image) != bytes(victim.image)
        recon = mc.repair._reconstruct(victim, ref)
        # within every hashed region the rebased reconstruction equals
        # the victim's own clean bytes (writable data — IAT slots
        # resolved per-VM — may differ and is clipped from the plan)
        plan = _clip_to_regions(_diff_segments(victim.image, recon),
                                victim.all_regions())
        assert plan == []
        for region in victim.all_regions():
            assert recon[region.start:region.end] == \
                victim.region_bytes(region)
        # while the raw reference bytes do NOT (the mis-write a naive
        # restore would make: stale relocations at the wrong base)
        assert bytes(recon) != bytes(ref.image)

    def test_diff_segments_joins_nearby_runs(self):
        a = bytearray(64)
        b = bytearray(64)
        b[4] = 1
        b[10] = 1          # 5 equal bytes apart -> joined (gap <= 8)
        b[40] = 1          # far away -> separate segment
        assert _diff_segments(bytes(a), bytes(b)) == [(4, 11), (40, 41)]
        with pytest.raises(ValueError):
            _diff_segments(b"ab", b"abc")


class TestDaemonIntegration:
    def test_daemon_raises_repaired_alert_and_recovers(self, clean_testbed,
                                                       hal_blueprint):
        mc = make_checker(clean_testbed)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=4))
        infect(clean_testbed, hal_blueprint)
        alerts = daemon.run_cycle()
        kinds = {a.kind for a in alerts}
        assert "integrity" in kinds and "repaired" in kinds
        assert daemon.repairs_verified == 1
        # next cycle: nothing left to flag
        assert daemon.run_cycle() == []

    def test_daemon_trips_breaker_on_repair_quarantine(self, clean_testbed,
                                                       hal_blueprint):
        mc = make_checker(clean_testbed,
                          policy="quarantine-on-repeat-failure", attempts=2)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=4))
        racer = RacingWriterAttack(rewrites=10)
        racer.apply(clean_testbed.hypervisor.domain(VICTIM).kernel,
                    hal_blueprint)
        racer.arm(clean_testbed.clock)
        try:
            alerts = daemon.run_cycle()
        finally:
            racer.disarm()
        assert daemon.repairs_quarantined == 1
        assert VICTIM in daemon.quarantined
        assert any(a.kind == "repair-quarantined" for a in alerts)
        # the quarantined VM no longer votes next cycle
        assert VICTIM not in daemon._active_vms()

    def test_failed_repair_is_never_silent(self, clean_testbed,
                                           hal_blueprint):
        mc = make_checker(clean_testbed, attempts=1)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=4))
        racer = RacingWriterAttack(rewrites=10)
        racer.apply(clean_testbed.hypervisor.domain(VICTIM).kernel,
                    hal_blueprint)
        racer.arm(clean_testbed.clock)
        try:
            alerts = daemon.run_cycle()
        finally:
            racer.disarm()
        assert daemon.repairs_failed == 1
        assert any(a.kind == "repair-failed" for a in alerts)


class TestRecordsAndStats:
    def test_record_roundtrip(self):
        rec = RemediationRecord(vm_name="Dom2", module_name="hal.dll",
                                status="verified", attempts=2,
                                reference_vm="Dom1", hunks_written=3,
                                bytes_written=17, raced_writes=1,
                                detected_at=1.0, resolved_at=1.5,
                                regions=(".text",))
        clone = RemediationRecord.from_dict(rec.to_dict())
        assert clone == rec
        assert clone.mttr == pytest.approx(0.5)

    def test_mttr_only_for_verified(self):
        rec = RemediationRecord(vm_name="v", module_name="m",
                                status="failed", detected_at=1.0,
                                resolved_at=2.0)
        assert rec.mttr is None

    def test_stats_fold_terminal_outcomes(self):
        stats = RepairStats()
        stats.note(RemediationRecord(vm_name="a", module_name="m",
                                     status="verified", detected_at=0.0,
                                     resolved_at=2.0, raced_writes=1))
        stats.note(RemediationRecord(vm_name="b", module_name="m",
                                     status="quarantined", aborted=True))
        assert stats.verified == 1 and stats.quarantined == 1
        assert stats.aborted == 1 and stats.raced_writes == 1
        assert stats.mttr_mean == pytest.approx(2.0)
        assert stats.mttr_max == pytest.approx(2.0)

    def test_engine_rejects_bad_config(self, clean_testbed):
        mc = ModChecker(clean_testbed.hypervisor, clean_testbed.profile)
        with pytest.raises(ValueError):
            RepairEngine(mc, max_attempts=0)


class TestRepairMetrics:
    def test_bridge_exports_repair_series(self, clean_testbed,
                                          hal_blueprint):
        infect(clean_testbed, hal_blueprint)
        obs = make_observability(clean_testbed.clock)
        mc = make_checker(clean_testbed, obs=obs)
        mc.check_pool("hal.dll")
        names = set(obs.metrics.snapshot())
        assert "modchecker_repair_attempts_total" in names
        assert "modchecker_repair_outcomes_total" in names
        assert "modchecker_repair_mttr_seconds" in names
