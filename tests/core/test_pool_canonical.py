"""Tests for the O(t) canonical pool-check mode."""

import pytest

from repro.attacks import attack_for_experiment
from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import build_testbed
from repro.core import IntegrityChecker, ModChecker
from repro.core.parser import ParsedModule
from repro.core.report import PairComparison
from repro.guest import build_catalog
from repro.guest.loader import map_file_to_memory
from repro.pe.parser import PEImage
from repro.pe.relocations import apply_relocations
from repro.vmi.cache import LRUCache


def _infected_tb(exp_id, n_vms=6, victim="Dom3"):
    attack, module = attack_for_experiment(exp_id)
    catalog = build_catalog(seed=42)
    infected = attack.apply(catalog[module]).infected
    tb = build_testbed(n_vms, seed=42,
                       infected={victim: {module: infected}})
    return tb, module


class TestEquivalence:
    def test_clean_pool(self, clean_testbed_session):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile)
        pairwise = mc.check_pool("hal.dll", mode="pairwise").report
        canonical = mc.check_pool("hal.dll", mode="canonical").report
        assert pairwise.all_clean and canonical.all_clean

    @pytest.mark.parametrize("exp_id", ["E1", "E2", "E3", "E4"])
    def test_same_flags_and_signature(self, exp_id):
        tb, module = _infected_tb(exp_id)
        mc = ModChecker(tb.hypervisor, tb.profile)
        pairwise = mc.check_pool(module, mode="pairwise").report
        canonical = mc.check_pool(module, mode="canonical").report
        assert pairwise.flagged() == canonical.flagged() == ["Dom3"]
        assert set(pairwise.mismatched_regions("Dom3")) == \
            set(canonical.mismatched_regions("Dom3"))

    def test_infected_reference_vm(self):
        """The reference (first) VM being the victim must not blind the
        clustering — the majority cluster still wins."""
        tb, module = _infected_tb("E1", victim="Dom1")
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool(module, mode="canonical").report
        assert report.flagged() == ["Dom1"]
        assert ".text" in report.mismatched_regions("Dom1")

    def test_two_identical_infections(self):
        attack, module = attack_for_experiment("E1")
        catalog = build_catalog(seed=42)
        infected = attack.apply(catalog[module]).infected
        tb = build_testbed(7, seed=42,
                           infected={"Dom2": {module: infected},
                                     "Dom5": {module: infected}})
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool(module, mode="canonical").report
        assert set(report.flagged()) == {"Dom2", "Dom5"}


class TestCost:
    def test_canonical_checker_phase_cheaper(self):
        tb = build_testbed(15, seed=42)
        mc = ModChecker(tb.hypervisor, tb.profile)
        pairwise = mc.check_pool("http.sys", mode="pairwise")
        canonical = mc.check_pool("http.sys", mode="canonical")
        # The checker phase shrinks from C(15,2)=105 to 14 comparisons.
        assert canonical.timings.checker < pairwise.timings.checker / 3

    def test_unknown_mode_rejected(self, clean_testbed_session):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile)
        with pytest.raises(ValueError, match="unknown pool mode"):
            mc.check_pool("hal.dll", mode="quantum")


class TestBaseCollisions:
    """VMs whose random slide collides with the reference's base.

    Regression for a fleet-scale false positive: adjustment is driven
    by byte differences, so a copy loaded at the *same* base as the
    reference came back raw (unadjusted) and could never match the
    RVA-normalised majority. At 64-VM shards with ~256 possible slides,
    collisions are routine — a pristine 10k-VM fleet raised ~100
    integrity alerts before the partner-adjustment fix.
    """

    BASE = 0xF7040000

    @staticmethod
    def _copy_at(vm, base, tamper=False):
        bp = build_catalog(seed=42)["ntoskrnl.exe"]
        image = map_file_to_memory(bp.file_bytes)
        apply_relocations(image, bp.fixup_rvas,
                          base - bp.optional_header.image_base)
        if tamper:
            fixups = {o for r in bp.fixup_rvas for o in range(r, r + 4)}
            text = next(r for r in PEImage(bytes(image)).code_regions()
                        if r.name == ".text")
            off = next(o for o in range(text.start + 16, text.end)
                       if o not in fixups)
            image[off] ^= 0xFF
        pe = PEImage(bytes(image))
        return ParsedModule(vm_name=vm, module_name=bp.name, base=base,
                            image=bytes(image),
                            header_regions=pe.header_regions(),
                            code_regions=pe.code_regions())

    def test_clean_copy_sharing_reference_base_not_flagged(self):
        B = self.BASE
        mods = [self._copy_at("Dom1", B),
                self._copy_at("Dom2", B + 0x5000),
                self._copy_at("Dom3", B + 0x9000),
                self._copy_at("Dom4", B),          # collides with Dom1
                self._copy_at("Dom5", B + 0x13000)]
        report = IntegrityChecker().check_pool_canonical(mods)
        assert report.all_clean

    def test_tampered_copy_sharing_reference_base_still_flagged(self):
        B = self.BASE
        mods = [self._copy_at("Dom1", B),
                self._copy_at("Dom2", B + 0x5000),
                self._copy_at("Dom3", B + 0x9000),
                self._copy_at("Dom4", B, tamper=True),
                self._copy_at("Dom5", B + 0x13000)]
        report = IntegrityChecker().check_pool_canonical(mods)
        assert report.flagged() == ["Dom4"]
        assert ".text" in report.mismatched_regions("Dom4")

    def test_whole_pool_at_one_base(self):
        # No partner exists; raw digests must still cluster correctly.
        clean = [self._copy_at(f"Dom{i}", self.BASE) for i in range(1, 6)]
        assert IntegrityChecker().check_pool_canonical(clean).all_clean
        dirty = [self._copy_at(f"Dom{i}", self.BASE, tamper=(i == 3))
                 for i in range(1, 6)]
        assert IntegrityChecker().check_pool_canonical(
            dirty).flagged() == ["Dom3"]


class TestEdgeCases:
    def test_empty_pool(self):
        from repro.core import IntegrityChecker
        report = IntegrityChecker().check_pool_canonical([])
        assert report.vm_names == []

    def test_two_vms(self, clean_testbed_session):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool("hal.dll", vms=tb.vm_names[:2],
                               mode="canonical").report
        assert report.all_clean


class TestReplay:
    """Canonical replay: the incremental checker reuses each member's
    step (its adjusted digests) while both content keys hold.

    Every test counts Algorithm 2 calls through a wrapper on the
    integrity checker's adjuster and holds the replayed report to a
    fresh full-mode checker's report on the same guest state.
    """

    MODULE = "hal.dll"

    @staticmethod
    def _count_adjusts(mc):
        calls = []
        inner = mc.checker._adjust

        def adjust(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        mc.checker._adjust = adjust
        return calls

    def _check(self, mc, calls, mode="canonical"):
        """One check; returns (report, adjust calls it made)."""
        before = len(calls)
        report = mc.check_pool(self.MODULE, mode=mode).report
        return report, len(calls) - before

    def _assert_matches_full(self, tb, report, mode="canonical"):
        full = ModChecker(tb.hypervisor, tb.profile).check_pool(
            self.MODULE, mode=mode).report
        assert report.verdicts == full.verdicts
        assert report.pairs == full.pairs
        for vm in report.vm_names:
            assert report.mismatched_regions(vm) == \
                full.mismatched_regions(vm)

    @pytest.fixture
    def warm(self):
        """A 6-VM pool after one cold incremental canonical round;
        yields (testbed, checker, adjust-call log, cold-round calls)."""
        tb = build_testbed(6, seed=42)
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        calls = self._count_adjusts(mc)
        _, cold = self._check(mc, calls)
        assert cold > 0
        return tb, mc, calls, cold

    @staticmethod
    def _pin_base(tb, *vms):
        """Reboot ``vms`` with base randomisation off: every module
        lands at the same (preferred) base on each of them."""
        for vm in vms:
            tb.hypervisor.domain(vm).kernel.randomize_module_bases = False
            tb.hypervisor.reboot(vm)

    def test_warm_round_makes_no_adjust_calls(self, warm):
        tb, mc, calls, _ = warm
        report, n = self._check(mc, calls)
        assert n == 0
        assert report.all_clean
        assert mc.pair_replays == 0     # canonical replays are not counted

    def test_warm_report_equals_full_checker(self, warm):
        tb, mc, calls, _ = warm
        report, n = self._check(mc, calls)
        assert n == 0
        self._assert_matches_full(tb, report)

    def test_warm_clock_delta_equals_cold_on_twin(self):
        """Replay is host-only: the warm round charges exactly what the
        same round costs with every canonical record cold."""
        deltas, checker_times, reports, adjusts = [], [], [], []
        for replay in (True, False):
            tb = build_testbed(6, seed=42)
            mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
            calls = self._count_adjusts(mc)
            mc.check_pool(self.MODULE, mode="canonical")
            if not replay:
                mc._ledger = LRUCache(8192)
            start = tb.clock.now
            before = len(calls)
            outcome = mc.check_pool(self.MODULE, mode="canonical")
            deltas.append(tb.clock.now - start)
            checker_times.append(outcome.timings.checker)
            reports.append(outcome.report)
            adjusts.append(len(calls) - before)
        assert adjusts[0] == 0 < adjusts[1]
        assert deltas[0] == deltas[1]
        assert checker_times[0] == checker_times[1]
        assert reports[0].verdicts == reports[1].verdicts
        assert reports[0].pairs == reports[1].pairs

    def test_member_tamper_misses_its_record(self, warm):
        tb, mc, calls, cold = warm
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain("Dom3").kernel, tb.catalog[self.MODULE])
        report, n = self._check(mc, calls)
        assert n == cold // 5           # Dom3's step only
        assert report.flagged() == ["Dom3"]
        self._assert_matches_full(tb, report)

    def test_reboot_to_new_base_misses_its_record(self, warm):
        tb, mc, calls, cold = warm
        kernel = tb.hypervisor.domain("Dom4").kernel
        old_base = kernel.module(self.MODULE).base
        tb.hypervisor.reboot("Dom4")
        assert kernel.module(self.MODULE).base != old_base
        report, n = self._check(mc, calls)
        assert n == cold // 5
        assert report.all_clean
        self._assert_matches_full(tb, report)

    def test_new_reference_misses_every_record(self, warm):
        tb, mc, calls, cold = warm
        tb.hypervisor.destroy("Dom1")   # Dom2 becomes the reference
        report, n = self._check(mc, calls)
        assert n == cold // 5 * 4       # every remaining member's step
        assert report.all_clean
        self._assert_matches_full(tb, report)
        _, n = self._check(mc, calls)
        assert n == 0

    def test_partner_layout(self, warm):
        """Dom4 shares the reference's base, so it is adjusted against
        the partner (Dom2): a record keyed by a different counterpart.
        Every step whose pair includes a re-based VM misses."""
        tb, mc, calls, cold = warm
        self._pin_base(tb, "Dom1", "Dom4")
        report, n = self._check(mc, calls)
        assert n == cold                # Dom1 is every pair's counterpart
        assert report.all_clean
        self._assert_matches_full(tb, report)
        report, n = self._check(mc, calls)
        assert n == 0
        self._assert_matches_full(tb, report)
        # a tamper on the partnered member still misses and convicts
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain("Dom4").kernel, tb.catalog[self.MODULE])
        report, n = self._check(mc, calls)
        assert n == cold // 5
        assert report.flagged() == ["Dom4"]
        self._assert_matches_full(tb, report)

    def test_partner_record_serves_a_new_reference(self, warm):
        """A step is a pure function of the two copies, not of the
        counterpart's role: records stored while Dom2 partnered every
        other member replay once Dom2 becomes the reference, and must
        then supply the reference's adjusted digests."""
        tb, mc, calls, _ = warm
        self._pin_base(tb, "Dom1", "Dom3", "Dom4", "Dom5", "Dom6")
        self._check(mc, calls)
        tb.hypervisor.destroy("Dom1")
        report, n = self._check(mc, calls)
        assert n == 0
        assert report.all_clean
        self._assert_matches_full(tb, report)

    def test_whole_pool_at_one_base(self, warm):
        tb, mc, calls, _ = warm
        self._pin_base(tb, *tb.vm_names)
        report, n = self._check(mc, calls)
        assert n == 0                   # no counterpart: nothing adjusts
        assert report.all_clean
        self._assert_matches_full(tb, report)
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain("Dom5").kernel, tb.catalog[self.MODULE])
        report, _ = self._check(mc, calls)
        assert report.flagged() == ["Dom5"]
        self._assert_matches_full(tb, report)

    def test_infected_first_member(self, warm):
        """The reference's adjusted digests come from the first
        member's pair, so infecting that member must re-derive them.

        The full canonical vote also flags the reference here (its
        ``.text`` digest is adjusted against the tampered copy), while
        the pairwise vote flags Dom2 alone; replay must reproduce the
        full vote, false positive included."""
        tb, mc, calls, cold = warm
        RuntimeCodePatchAttack().apply(
            tb.hypervisor.domain("Dom2").kernel, tb.catalog[self.MODULE])
        report, n = self._check(mc, calls)
        assert n == cold // 5
        assert "Dom2" in report.flagged()
        self._assert_matches_full(tb, report)
        _, n = self._check(mc, calls)
        assert n == 0

    def test_alternating_votes_never_cross_records(self):
        tb = build_testbed(6, seed=42)
        mc = ModChecker(tb.hypervisor, tb.profile, incremental=True)
        calls = self._count_adjusts(mc)
        for mode in ("canonical", "pairwise") * 3:
            report, _ = self._check(mc, calls, mode=mode)
            self._assert_matches_full(tb, report, mode=mode)
        keys = mc._ledger.keys()
        assert len(keys) == 5 + 15      # t-1 canonical steps + C(6,2)
        for key in keys:
            value = mc._ledger.peek(key).result
            canonical = key[0] == "canonical"
            assert isinstance(value, PairComparison) != canonical
        assert mc.pair_replays == 2 * 15
        _, n = self._check(mc, calls)
        assert n == 0

    def test_full_mode_stores_no_record(self):
        tb = build_testbed(6, seed=42)
        mc = ModChecker(tb.hypervisor, tb.profile)
        calls = self._count_adjusts(mc)
        _, first = self._check(mc, calls)
        _, second = self._check(mc, calls)
        assert first == second > 0
        assert len(mc._ledger) == 0
