"""Profiler tests: call-tree math, attribution, exports, pipeline runs."""

from __future__ import annotations

from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.hypervisor.clock import SimClock
from repro.obs import NULL_OBS, NULL_TRACER, Profile, Tracer, make_observability

SEED = 2012


def _nested_tracer() -> Tracer:
    """daemon.cycle{1.0s} > check{0.6s} > fetch{0.4s}; two cycles."""
    clock = SimClock()
    tracer = Tracer(clock)
    for _ in range(2):
        with tracer.span("daemon.cycle"):
            clock.advance(0.4)                    # exclusive in cycle
            with tracer.span("modchecker.check", module="hal.dll"):
                clock.advance(0.2)                # exclusive in check
                with tracer.span("modchecker.fetch", vm="Dom1"):
                    tracer.charge("page_copy", 0.05)
                    clock.advance(0.4)
    return tracer


class TestCallTree:
    def test_inclusive_exclusive_and_calls(self):
        profile = Profile.from_tracer(_nested_tracer())
        root = profile.roots["daemon.cycle"]
        assert root.calls == 2
        assert abs(root.inclusive - 2.0) < 1e-12
        assert abs(root.exclusive - 0.8) < 1e-12
        check = root.children["modchecker.check"]
        assert abs(check.inclusive - 1.2) < 1e-12
        assert abs(check.exclusive - 0.4) < 1e-12
        fetch = check.children["modchecker.fetch"]
        assert abs(fetch.inclusive - 0.8) < 1e-12
        assert fetch.exclusive == fetch.inclusive   # leaf

    def test_exclusive_sums_exactly_to_root_inclusive(self):
        profile = Profile.from_tracer(_nested_tracer())
        total_exclusive = sum(n.exclusive for n in profile.nodes())
        assert abs(total_exclusive - profile.total_seconds) < 1e-12

    def test_paths_join_with_semicolons(self):
        profile = Profile.from_tracer(_nested_tracer())
        paths = {n.path for n in profile.nodes()}
        assert ("daemon.cycle;modchecker.check;modchecker.fetch"
                in paths)

    def test_stage_shares_sum_to_one(self):
        profile = Profile.from_tracer(_nested_tracer())
        assert abs(sum(profile.stage_shares().values()) - 1.0) < 1e-12

    def test_stage_shares_weigh_cpu_when_the_clock_is_frozen(self):
        # deferred charging: spans take no simulated time, but the CPU
        # charged inside them still says where the work went
        tracer = Tracer(SimClock())
        with tracer.span("daemon.cycle"):
            tracer.charge("small_read", 0.001)
            with tracer.span("modchecker.fetch", vm="Dom1"):
                tracer.charge("page_copy", 0.003)
        shares = Profile.from_tracer(tracer).stage_shares()
        assert shares == {"daemon.cycle": 0.25, "modchecker.fetch": 0.75}
        # nothing charged either: all zeros, nothing invented
        tracer = Tracer(SimClock())
        with tracer.span("daemon.cycle"):
            pass
        assert Profile.from_tracer(tracer).stage_shares() == \
            {"daemon.cycle": 0.0}


class TestChargeAttribution:
    def test_charge_lands_on_innermost_span_node(self):
        profile = Profile.from_tracer(_nested_tracer())
        fetch = (profile.roots["daemon.cycle"]
                 .children["modchecker.check"]
                 .children["modchecker.fetch"])
        assert abs(fetch.op_cpu["page_copy"] - 0.1) < 1e-12
        assert fetch.op_calls["page_copy"] == 2

    def test_vm_and_module_resolved_from_ancestry(self):
        profile = Profile.from_tracer(_nested_tracer())
        # vm comes from the fetch span, module from the check ancestor
        assert ("Dom1", "hal.dll", "page_copy") in profile.attribution
        cpu, calls = profile.attribution[("Dom1", "hal.dll", "page_copy")]
        assert abs(cpu - 0.1) < 1e-12 and calls == 2

    def test_charge_outside_any_span_is_unattributed(self):
        tracer = Tracer(SimClock())
        tracer.charge("small_read", 0.01)
        profile = Profile.from_tracer(tracer)
        assert profile.unattributed_cpu == 0.01
        assert profile.total_cpu_seconds == 0.01

    def test_cpu_by_op_and_shares(self):
        profile = Profile.from_tracer(_nested_tracer())
        assert abs(profile.cpu_by_op()["page_copy"] - 0.1) < 1e-12
        assert profile.op_shares() == {"page_copy": 1.0}


class TestExports:
    def test_collapsed_lines_are_path_and_integer_micros(self):
        text = Profile.from_tracer(_nested_tracer()).collapsed()
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            path, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
        assert any(line.startswith("daemon.cycle ") for line in lines)

    def test_collapsed_cpu_weight_survives_zero_durations(self):
        # frozen clock: every span duration is zero, charges are not
        tracer = Tracer(SimClock())
        with tracer.span("modchecker.fetch", vm="Dom1"):
            tracer.charge("page_copy", 0.002)
        profile = Profile.from_tracer(tracer)
        assert profile.collapsed(weight="time") == ""
        assert profile.collapsed(weight="cpu") == \
            "modchecker.fetch 2000\n"

    def test_hotspots_ranked_and_share_normalised(self):
        profile = Profile.from_tracer(_nested_tracer())
        spots = profile.hotspots(3)
        assert spots[0]["exclusive"] >= spots[-1]["exclusive"]
        assert abs(sum(s["share"] for s in
                       profile.hotspots(100)) - 1.0) < 1e-12

    def test_json_document_format_and_scenario(self, tmp_path):
        import json
        profile = Profile.from_tracer(_nested_tracer())
        path = profile.write_json(tmp_path / "p.json",
                                  scenario="substrate")
        doc = json.loads(path.read_text())
        assert doc["format"] == "modchecker-profile/1"
        assert doc["scenario"] == "substrate"
        assert set(doc["stage_shares"]) == {
            "daemon.cycle", "modchecker.check", "modchecker.fetch"}
        assert doc["attribution"][0]["vm"] == "Dom1"

    def test_bad_weight_rejected(self):
        profile = Profile.from_tracer(_nested_tracer())
        for method in (profile.collapsed, profile.hotspots):
            try:
                method(weight="wall")
            except ValueError:
                continue
            raise AssertionError("weight='wall' accepted")


class TestPipelineProfile:
    """The acceptance criterion: a real traced run reconciles."""

    def test_shares_reconcile_with_tracer_within_1_percent(self):
        tb = build_testbed(3, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        mc.check_pool("hal.dll")
        profile = Profile.from_tracer(obs.tracer)
        total_exclusive = sum(n.exclusive for n in profile.nodes())
        root_total = profile.total_seconds
        assert root_total > 0
        assert abs(total_exclusive - root_total) / root_total < 0.01
        # the compare stage has no sub-spans: its exclusive time must
        # equal the tracer's own stage sum for the same name
        by_name = obs.tracer.total_by_name()
        excl = profile.exclusive_by_name()
        assert abs(excl["checker.compare"] - by_name["checker.compare"]) \
            <= 0.01 * by_name["checker.compare"]

    def test_acquisition_copy_path_is_top_hotspot(self):
        tb = build_testbed(3, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        mc.check_pool("ntoskrnl.exe")
        top = Profile.from_tracer(obs.tracer).hotspots(1)[0]
        assert "searcher.copy" in top["path"]
        assert top["path"].endswith("vmi.read_page")

    def test_charge_totals_match_tracer_totals(self):
        tb = build_testbed(3, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        mc.check_pool("hal.dll")
        profile = Profile.from_tracer(obs.tracer)
        by_op = obs.tracer.total_by_op()
        assert by_op["page_copy"] > 0
        for op, cpu in profile.cpu_by_op().items():
            assert abs(cpu - by_op[op]) < 1e-12
        attributed = sum(cpu for cpu, _ in profile.attribution.values())
        assert abs(attributed + profile.unattributed_cpu
                   - sum(by_op.values())) < 1e-12


class TestDisabledPath:
    def test_null_tracer_profiles_empty(self):
        profile = Profile.from_tracer(NULL_TRACER)
        assert not profile.roots
        assert profile.total_seconds == 0.0
        assert profile.collapsed() == ""
        assert profile.hotspots() == []

    def test_disabled_pipeline_records_no_charges(self):
        tb = build_testbed(3, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=NULL_OBS)
        mc.check_pool("hal.dll")
        assert NULL_OBS.tracer.charges == []

    def test_unknown_charge_op_rejected(self):
        tracer = Tracer(SimClock())
        try:
            tracer.charge("page_fax", 1.0)
        except ValueError as exc:
            assert "closed" in str(exc)
        else:
            raise AssertionError("unknown op accepted")
