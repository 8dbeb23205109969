"""End-to-end detection: the paper's E1–E4 through the full stack.

Each test stages the infection exactly as the paper did — modify the
module file, boot the victim VM with it — then runs ModChecker from
Dom0 over VMI and asserts (a) the infected VM alone fails the majority
vote and (b) the mismatching PE components equal the paper's reported
signature.
"""

import pytest

from repro.attacks import attack_for_experiment
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.guest import build_catalog

VICTIM = "Dom3"
POOL = 6


def _run_experiment(exp_id, *, rva_mode="robust", n_vms=POOL):
    attack, module = attack_for_experiment(exp_id)
    catalog = build_catalog(seed=42)
    result = attack.apply(catalog[module])
    tb = build_testbed(n_vms, seed=42,
                       infected={VICTIM: {module: result.infected}})
    mc = ModChecker(tb.hypervisor, tb.profile, rva_mode=rva_mode)
    return result, mc.check_pool(module).report


@pytest.mark.parametrize("exp_id", ["E1", "E2", "E3", "E4"])
class TestDetection:
    def test_only_victim_flagged(self, exp_id):
        _, report = _run_experiment(exp_id)
        assert report.flagged() == [VICTIM]

    def test_signature_matches_paper(self, exp_id):
        result, report = _run_experiment(exp_id)
        assert set(report.mismatched_regions(VICTIM)) == \
            set(result.expected_regions)

    def test_clean_vms_fully_matched(self, exp_id):
        _, report = _run_experiment(exp_id)
        for vm in report.clean_vms():
            assert report.verdicts[vm].matches == POOL - 2

    def test_victim_matches_nobody(self, exp_id):
        _, report = _run_experiment(exp_id)
        assert report.verdicts[VICTIM].matches == 0


@pytest.mark.parametrize("rva_mode", ["faithful", "robust"])
class TestRvaModesDetectEqually:
    def test_e1_detected_under_every_mode(self, rva_mode):
        _, report = _run_experiment("E1", rva_mode=rva_mode)
        assert report.flagged() == [VICTIM]
        assert ".text" in report.mismatched_regions(VICTIM)


class TestMinimumPool:
    def test_two_vms_detect_discrepancy(self):
        """With t=2 no majority exists (n > 0.5 means the single match
        decides); a mismatch flags *both* — still a detection signal,
        per the paper's discussion."""
        attack, module = attack_for_experiment("E1")
        catalog = build_catalog(seed=42)
        result = attack.apply(catalog[module])
        tb = build_testbed(2, seed=42,
                           infected={"Dom2": {module: result.infected}})
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool(module).report
        assert not report.all_clean
        assert set(report.flagged()) == {"Dom1", "Dom2"}

    def test_three_vms_strict_majority_flags_all(self):
        """t=3, one infected: a clean VM matches 1 of 2 others — exactly
        half, which the paper's strict rule ``n > (t-1)/2`` does not
        accept, so all three are flagged. The victim is still
        distinguishable by its zero matches."""
        attack, module = attack_for_experiment("E2")
        catalog = build_catalog(seed=42)
        result = attack.apply(catalog[module])
        tb = build_testbed(3, seed=42,
                           infected={"Dom2": {module: result.infected}})
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool(module).report
        assert "Dom2" in report.flagged()
        assert report.verdicts["Dom2"].matches == 0
        assert report.verdicts["Dom1"].matches == 1

    def test_four_vms_one_clean_majority_localises(self):
        """From t=4 up, a single infection is localised exactly: clean
        VMs match 2 of 3 > 1.5."""
        attack, module = attack_for_experiment("E2")
        catalog = build_catalog(seed=42)
        result = attack.apply(catalog[module])
        tb = build_testbed(4, seed=42,
                           infected={"Dom2": {module: result.infected}})
        mc = ModChecker(tb.hypervisor, tb.profile)
        report = mc.check_pool(module).report
        assert report.flagged() == ["Dom2"]


class TestPaperScale:
    def test_e1_at_fifteen_vms(self):
        """The full 15-clone cloud of §V-A."""
        result, report = _run_experiment("E1", n_vms=15)
        assert report.flagged() == [VICTIM]
        assert report.verdicts[VICTIM].comparisons == 14
        for vm in report.clean_vms():
            assert report.verdicts[vm].matches == 13
