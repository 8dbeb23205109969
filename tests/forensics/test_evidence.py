"""Evidence capture tests: bundles, reference choice, recorder policy."""

from __future__ import annotations

import pytest

from repro.attacks import attack_for_experiment
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.forensics import EvidenceRecorder, capture_evidence
from repro.guest import build_catalog
from repro.hypervisor.clock import SimClock
from repro.obs import EventLog

VICTIM = "Dom3"


def _infected_pool(exp_id="E1", n_vms=4, seed=42):
    attack, module = attack_for_experiment(exp_id)
    result = attack.apply(build_catalog(seed=seed)[module])
    tb = build_testbed(n_vms, seed=seed,
                       infected={VICTIM: {module: result.infected}})
    mc = ModChecker(tb.hypervisor, tb.profile)
    parsed, *_ = mc.fetch_modules(module, tb.vm_names)
    report = mc.check_pool(module).report
    return tb, result, report, parsed


class TestCaptureEvidence:
    def test_bundle_names_suspect_and_tampered_section(self):
        _, result, report, parsed = _infected_pool("E1")
        bundle = capture_evidence(report, parsed)
        assert bundle.flagged == [VICTIM]
        suspect = bundle.suspect(VICTIM)
        assert suspect.tampered_regions() == [".text"]
        assert bundle.unexplained_hunks >= 1

    def test_tamper_hunk_carries_exact_attack_bytes(self):
        _, result, report, parsed = _infected_pool("E1")
        bundle = capture_evidence(report, parsed)
        text = next(d for d in bundle.suspect(VICTIM).region_diffs
                    if d.region == ".text")
        hunk = text.unexplained[0]
        # E1 rewrites DEC ECX (49) + two NOPs into SUB ECX,1 (83 E9 01)
        assert hunk.offset == result.details["text_offset"]
        assert hunk.suspect_bytes == b"\x83\xe9\x01"
        assert hunk.reference_bytes == b"\x49\x90\x90"

    def test_reference_is_first_clean_vm_alphabetically(self):
        _, _, report, parsed = _infected_pool("E1")
        bundle = capture_evidence(report, parsed)
        assert bundle.suspect(VICTIM).reference_vm == \
            sorted(report.clean_vms())[0]

    def test_voting_matrix_covers_every_pair(self):
        _, _, report, parsed = _infected_pool("E1", n_vms=4)
        bundle = capture_evidence(report, parsed)
        assert len(bundle.voting_matrix) == 4 * 3 // 2
        mismatch_rows = [r for r in bundle.voting_matrix
                         if not r["matched"]]
        assert all(VICTIM in (r["vm_a"], r["vm_b"])
                   for r in mismatch_rows)

    def test_pe_layout_summarises_suspect_regions(self):
        _, _, report, parsed = _infected_pool("E1")
        layout = capture_evidence(report, parsed).suspect(VICTIM).pe_layout
        names = [r["name"] for r in layout]
        assert "IMAGE_DOS_HEADER" in names and ".text" in names
        assert all(r["size"] == r["end"] - r["start"] for r in layout)

    def test_timeline_filtered_by_check_id(self):
        _, _, report, parsed = _infected_pool("E1")
        log = EventLog(SimClock())
        with log.correlate("chk-000001"):
            log.emit("check.start", module="hal.dll")
        log.emit("daemon.cycle")             # uncorrelated noise
        bundle = capture_evidence(report, parsed, events=log,
                                  check_id="chk-000001")
        assert [e.name for e in bundle.timeline] == ["check.start"]
        assert bundle.check_id == "chk-000001"


class TestEvidenceRecorder:
    def test_bundle_ids_count_up_and_shelf_is_bounded(self):
        _, _, report, parsed = _infected_pool("E1")
        rec = EvidenceRecorder(max_bundles=2)
        ids = [rec.record(report, parsed).bundle_id for _ in range(3)]
        assert ids == ["incident-0001", "incident-0002", "incident-0003"]
        assert rec.captures == 3
        assert [b.bundle_id for b in rec.bundles] == \
            ["incident-0002", "incident-0003"]
        assert rec.last.bundle_id == "incident-0003"

    def test_out_dir_gets_deterministic_filenames(self, tmp_path):
        _, _, report, parsed = _infected_pool("E1")
        rec = EvidenceRecorder(out_dir=tmp_path)
        rec.record(report, parsed, check_id="chk-000007")
        rec.record(report, parsed)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["incident-0001-chk-000007.json",
                         "incident-0002.json"]


class TestWiredThroughModChecker:
    def test_capture_only_on_non_clean_verdict(self):
        # clean pool: the recorder is wired but must never fire
        tb = build_testbed(3, seed=42)
        rec = EvidenceRecorder()
        mc = ModChecker(tb.hypervisor, tb.profile, evidence=rec)
        assert mc.check_pool("hal.dll").report.all_clean
        assert rec.captures == 0
        assert rec.last is None

    @pytest.mark.parametrize("workers", [1, 4])
    def test_infected_pool_fires_once_per_check(self, workers):
        attack, module = attack_for_experiment("E1")
        result = attack.apply(build_catalog(seed=42)[module])
        tb = build_testbed(4, seed=42,
                           infected={VICTIM: {module: result.infected}})
        rec = EvidenceRecorder()
        mc = ModChecker(tb.hypervisor, tb.profile, evidence=rec,
                        workers=workers)
        mc.check_pool(module)
        assert rec.captures == 1
        assert rec.last.flagged == [VICTIM]
        assert rec.last.unexplained_hunks >= 1

    def test_evidence_counter_published_with_live_metrics(self):
        from repro.obs import make_observability
        attack, module = attack_for_experiment("E1")
        result = attack.apply(build_catalog(seed=42)[module])
        tb = build_testbed(4, seed=42,
                           infected={VICTIM: {module: result.infected}})
        obs = make_observability(tb.clock)
        rec = EvidenceRecorder()
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs, evidence=rec)
        mc.check_pool(module)
        assert obs.metrics.counter(
            "modchecker_evidence_bundles_total").value() == 1
