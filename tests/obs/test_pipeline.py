"""End-to-end observability: the instrumented VMI -> checker pipeline.

The acceptance bar for the obs subsystem: spans nest like the pipeline
call tree, the Prometheus per-stage totals reconcile with the cost-model
timing breakdown within 1%, and the fault/degradation story shows up in
the metrics exactly as the reports tell it.
"""

from __future__ import annotations

import json

import pytest

from repro.cloud import build_testbed
from repro.core import CheckDaemon, ModChecker
from repro.core.daemon import RoundRobinPolicy
from repro.hypervisor import FaultConfig, FaultInjector
from repro.obs import make_observability
from repro.vmi.retry import RetryPolicy

SEED = 42

#: guaranteed retry exhaustion on the targeted domain
SICK = dict(unreachable_rate=1.0, unreachable_duration=10.0)


def _checked_testbed(n_vms=4, **kwargs):
    tb = build_testbed(n_vms, seed=SEED)
    obs = make_observability(tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs, **kwargs)
    return tb, obs, mc


class TestSpansNestLikeThePipeline:
    def test_check_pool_span_tree(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        tracer = obs.tracer
        (root,) = tracer.roots()
        assert root.name == "modchecker.check"
        kids = {s.name for s in tracer.children_of(root)}
        assert kids == {"modchecker.fetch", "checker.compare"}
        fetch = next(s for s in tracer.children_of(root)
                     if s.name == "modchecker.fetch")
        fetch_kids = [s.name for s in tracer.children_of(fetch)]
        assert fetch_kids.count("searcher.copy") == 4
        assert fetch_kids.count("parser.parse") == 4
        copy = next(s for s in tracer.children_of(fetch)
                    if s.name == "searcher.copy")
        walk_kids = {s.name for s in tracer.children_of(copy)}
        assert "searcher.walk" in walk_kids

    def test_every_span_fits_in_its_parent(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        by_id = {s.span_id: s for s in obs.tracer.spans}
        for span in obs.tracer.finished_spans():
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start
            assert span.end <= parent.end + 1e-12

    def test_spans_carry_vm_and_module_attrs(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        copies = [s for s in obs.tracer.spans if s.name == "searcher.copy"]
        assert {s.attrs["vm"] for s in copies} == \
            {"Dom1", "Dom2", "Dom3", "Dom4"}
        assert all(s.attrs["module"] == "hal.dll" for s in copies)
        assert all(s.attrs["bytes"] > 0 for s in copies)


class TestStageReconciliation:
    def test_prometheus_stage_sums_match_timings_within_1pct(self):
        tb, obs, mc = _checked_testbed()
        out = mc.check_pool("hal.dll")
        hist = obs.metrics.histogram("modchecker_stage_seconds")
        for stage in ("searcher", "parser", "checker"):
            expected = getattr(out.timings, stage)
            got = hist.sum(stage=stage)
            assert expected > 0
            assert abs(got - expected) <= 0.01 * expected, (
                f"{stage}: metrics say {got}, timings say {expected}")

    def test_stage_sums_accumulate_over_rounds(self):
        tb, obs, mc = _checked_testbed()
        total = 0.0
        for _ in range(3):
            total += mc.check_pool("hal.dll").timings.searcher
        hist = obs.metrics.histogram("modchecker_stage_seconds")
        assert abs(hist.sum(stage="searcher") - total) <= 0.01 * total
        assert hist.count(stage="searcher") == 3

    def test_check_span_duration_covers_stage_total(self):
        tb, obs, mc = _checked_testbed()
        out = mc.check_pool("hal.dll")
        (root,) = obs.tracer.roots()
        # the end-to-end span contains all three stages (plus rounding)
        assert root.duration >= out.timings.total * 0.99

    def test_parallel_checker_records_wall_breakdown(self):
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, workers=2, obs=obs)
        out = mc.check_pool("hal.dll")
        hist = obs.metrics.histogram("modchecker_stage_seconds")
        for stage in ("searcher", "parser", "checker"):
            expected = getattr(out.timings, stage)
            assert abs(hist.sum(stage=stage) - expected) \
                <= 0.01 * max(expected, 1e-12)
        (root,) = obs.tracer.roots()
        assert root.name == "modchecker.check"
        assert root.attrs["mode"] == "pairwise"
        assert root.attrs["workers"] == 2
        # the makespan lands inside the check span: it covers the wall
        assert root.duration == pytest.approx(out.timings.total)

    def test_sequential_check_span_has_no_workers_attr(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        (root,) = obs.tracer.roots()
        assert "workers" not in root.attrs


class TestCheckCorrelation:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_check_events_share_one_correlation_id(self, workers):
        tb, obs, mc = _checked_testbed(workers=workers)
        mc.check_pool("hal.dll")
        names = ("check.start", "check.verdict", "module.acquired")
        events = [e for e in obs.events.events if e.name in names]
        assert {e.name for e in events} == set(names)
        assert len(events) == 2 + len(tb.vm_names)
        (cid,) = {e.check_id for e in events}
        assert cid.startswith("chk-")


class TestVerdictAndVmiMetrics:
    def test_clean_pool_verdict_counter(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        checks = obs.metrics.counter("modchecker_checks_total")
        assert checks.value(module="hal.dll", verdict="clean") == 1
        assert obs.metrics.gauge("modchecker_quorum_size").value(
            module="hal.dll") == 4

    def test_vmi_counters_published_per_vm(self):
        tb, obs, mc = _checked_testbed()
        mc.check_pool("hal.dll")
        pages = obs.metrics.counter("modchecker_vmi_pages_mapped_total")
        for vm in ("Dom1", "Dom2", "Dom3", "Dom4"):
            assert pages.value(vm=vm) == mc.vmi_for(vm).stats.pages_mapped
            assert pages.value(vm=vm) > 0

    def test_cache_hit_ratio_gauge_tracks_lru(self):
        tb, obs, mc = _checked_testbed(flush_caches_each_round=False)
        mc.check_pool("hal.dll")
        mc.check_pool("hal.dll")       # second round hits the caches
        ratio = obs.metrics.gauge("modchecker_cache_hit_ratio")
        vmi = mc.vmi_for("Dom1")
        assert ratio.value(vm="Dom1", cache="page") == \
            vmi.page_cache.hit_rate
        assert ratio.value(vm="Dom1", cache="page") > 0.0


class TestFaultMetrics:
    def test_injected_faults_and_recovered_retries(self):
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs,
                        retry=RetryPolicy(max_attempts=8))
        injector = FaultInjector(FaultConfig(transient_rate=0.02),
                                 seed=SEED)
        with injector.installed(tb.hypervisor):
            out = mc.check_pool("hal.dll")
        assert out.report.all_clean
        injected = obs.metrics.counter("modchecker_faults_injected_total")
        assert injected.value(kind="transient") == injector.stats.transient
        assert injected.value(kind="transient") > 0
        recovered = obs.metrics.counter(
            "modchecker_vmi_retries_recovered_total")
        total_recovered = sum(
            mc.vmi_for(vm).stats.retries_recovered
            for vm in ("Dom1", "Dom2", "Dom3", "Dom4"))
        assert total_recovered > 0
        assert sum(recovered.value(vm=vm)
                   for vm in ("Dom1", "Dom2", "Dom3", "Dom4")) == \
            total_recovered

    def test_degraded_vm_shows_in_quorum_and_votes(self):
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        injector = FaultInjector(
            FaultConfig(only_domains=("Dom2",), **SICK), seed=SEED)
        with injector.installed(tb.hypervisor):
            out = mc.check_pool("hal.dll")
        assert set(out.report.degraded) == {"Dom2"}
        assert obs.metrics.gauge("modchecker_quorum_size").value(
            module="hal.dll") == 3
        degraded = obs.metrics.counter("modchecker_degraded_votes_total")
        assert degraded.value(vm="Dom2", category="retry-exhausted") == 1


class TestDaemonMetrics:
    def test_cycle_histogram_and_quarantine_gauge(self):
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=2),
                             interval=30.0, carve=False)
        daemon.run(3)
        cycles = obs.metrics.histogram("modchecker_daemon_cycle_seconds")
        assert cycles.count() == 3
        assert cycles.sum() > 0        # checking costs simulated time
        assert obs.metrics.gauge("modchecker_daemon_quarantined") \
            .value() == 0
        spans = [s for s in obs.tracer.spans if s.name == "daemon.cycle"]
        assert len(spans) == 3
        assert [s.attrs["cycle"] for s in spans] == [0, 1, 2]

    def test_quarantine_alert_counted(self):
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=1),
                             interval=30.0, carve=False)
        injector = FaultInjector(
            FaultConfig(only_domains=("Dom3",), **SICK), seed=SEED)
        with injector.installed(tb.hypervisor):
            daemon.run_cycle()
        alerts = obs.metrics.counter("modchecker_daemon_alerts_total")
        assert alerts.value(kind="degraded") >= 1
        assert obs.metrics.gauge("modchecker_daemon_quarantined") \
            .value() == 1


class TestCliIntegration:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = tmp_path / "t.json"
        prom_path = tmp_path / "m.prom"
        rc = main(["check", "--module", "hal.dll", "--vms", "4",
                   "--trace-out", str(trace_path),
                   "--metrics-out", str(prom_path)])
        assert rc == 0
        doc = json.load(open(trace_path))
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        by_id = {e["args"]["span_id"]: e for e in events}
        for e in events:
            pid = e["args"].get("parent_id")
            if pid is not None:
                p = by_id[pid]
                assert p["ts"] <= e["ts"]
                assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-6
        text = prom_path.read_text()
        assert "# TYPE modchecker_stage_seconds histogram" in text
        assert 'modchecker_stage_seconds_sum{stage="searcher"}' in text

    def test_metrics_json_suffix_writes_snapshot(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "m.json"
        rc = main(["check", "--module", "hal.dll", "--vms", "3",
                   "--metrics-out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["modchecker_checks_total"]["type"] == "counter"

    def test_cli_stage_sums_reconcile_with_breakdown(self, tmp_path):
        """The acceptance criterion: CLI metrics vs cost-model timings."""
        from repro.cli import main
        out = tmp_path / "m.json"
        rc = main(["check", "--module", "hal.dll", "--vms", "4",
                   "--metrics-out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        stage_sums = {s["labels"]["stage"]: s["sum"]
                      for s in data["modchecker_stage_seconds"]["samples"]}
        # replay the same seeded check without obs: identical simulation
        tb = build_testbed(4, seed=2012)
        mc = ModChecker(tb.hypervisor, tb.profile)
        timings = mc.check_pool("hal.dll").timings
        for stage in ("searcher", "parser", "checker"):
            expected = getattr(timings, stage)
            assert abs(stage_sums[stage] - expected) <= 0.01 * expected
