"""``ModChecker(workers=N)``: the modelled parallel-introspection clock.

With ``workers>1`` each check's per-VM fetch chains and per-pair
comparisons are packed onto N Dom0 threads (LPT makespan, stretched by
Dom0 contention) and the clock advances once; ``workers=1`` is the
paper's sequential clock. ``golden/workers_clock.json`` pins the N>1
clock model: the component breakdown and the clock advance of five
kinds of check at N = 2, 4 and 8.
"""

import json
from pathlib import Path

import pytest

from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.hypervisor.scheduler import makespan
from repro.obs import make_observability

GOLDEN = Path(__file__).parent / "golden" / "workers_clock.json"
GOLDEN_WORKERS = (2, 4, 8)

#: (run name, checker kwargs, pool-check kwargs or None for check_on_vm,
#: whether the measured check is a warm second round)
GOLDEN_RUNS = (
    ("check_on_vm", {}, None, False),
    ("pool_pairwise", {}, {}, False),
    ("pool_canonical", {}, {"mode": "canonical"}, False),
    ("incremental_warm", {"incremental": True}, {}, True),
    ("event_driven_warm", {"event_driven": True}, {}, True),
)


def measure_clock_model(make, workers: int) -> dict:
    """Run every :data:`GOLDEN_RUNS` check with ``make(tb, workers, **kw)``.

    Returns ``{run: {searcher, parser, checker, advance}}``: the
    outcome's component timings and how far the check moved the clock.
    """
    out = {}
    for name, kwargs, pool_kwargs, warm in GOLDEN_RUNS:
        tb = build_testbed(6, seed=42)
        mc = make(tb, workers, **kwargs)

        def check():
            if pool_kwargs is None:
                return mc.check_on_vm("http.sys", "Dom1")
            return mc.check_pool("hal.dll", **pool_kwargs)

        if warm:
            check()
        with tb.clock.span() as span:
            timings = check().timings
        out[name] = {"searcher": timings.searcher, "parser": timings.parser,
                     "checker": timings.checker, "advance": span.elapsed}
    return out


def _with_workers(tb, workers, **kwargs):
    return ModChecker(tb.hypervisor, tb.profile, workers=workers, **kwargs)


class TestMakespan:
    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_single_worker_sums(self):
        assert makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_workers_takes_max(self):
        assert makespan([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)

    def test_lpt_packing(self):
        # The classic LPT worst case: optimal is 6 (3+3 / 2+2+2) but the
        # greedy yields 7 — still within the 7/6 guarantee.
        assert makespan([3, 3, 2, 2, 2], 2) == pytest.approx(7.0)

    def test_lpt_within_guarantee(self):
        items = [3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0]
        got = makespan(items, 2)
        optimal_lower = max(max(items), sum(items) / 2)
        assert got <= (7 / 6) * optimal_lower + max(items)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)

    def test_never_below_max_item(self):
        assert makespan([5.0, 0.1, 0.1], 8) == pytest.approx(5.0)


class TestClockModelGolden:
    @pytest.mark.parametrize("workers", GOLDEN_WORKERS)
    def test_matches_golden(self, workers):
        golden = json.loads(GOLDEN.read_text())[str(workers)]
        got = measure_clock_model(_with_workers, workers)
        assert set(got) == set(golden)
        for run, fields in golden.items():
            for name, value in fields.items():
                assert got[run][name] == pytest.approx(value, rel=1e-9), \
                    f"{run}.{name} at workers={workers}"


class TestParallelChecker:
    def test_same_verdict_as_sequential(self, clean_testbed_session):
        tb = clean_testbed_session
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        r_seq = seq.check_on_vm("http.sys", "Dom1").report
        r_par = par.check_on_vm("http.sys", "Dom1").report
        assert r_seq.clean == r_par.clean
        assert r_seq.matches == r_par.matches
        assert r_seq.comparisons == r_par.comparisons

    def test_parallel_faster_on_idle_host(self):
        tb = build_testbed(8, seed=42)
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        with tb.clock.span() as s:
            seq.check_on_vm("http.sys", "Dom1")
        with tb.clock.span() as p:
            par.check_on_vm("http.sys", "Dom1")
        assert p.elapsed < s.elapsed
        assert p.elapsed > s.elapsed / 8     # no free lunch

    def test_speedup_attribute(self, clean_testbed_session):
        # the outcome's timings are wall time, so the speedup over the
        # sequential breakdown shows on the attribute itself
        tb = clean_testbed_session
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        s = seq.check_on_vm("http.sys", "Dom1").timings
        p = par.check_on_vm("http.sys", "Dom1").timings
        assert s.total / p.total >= 1.0

    def test_one_thread_close_to_sequential(self):
        tb = build_testbed(5, seed=42)
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=1)
        with tb.clock.span() as s:
            seq.check_on_vm("http.sys", "Dom1")
        with tb.clock.span() as p:
            par.check_on_vm("http.sys", "Dom1")
        assert p.elapsed == pytest.approx(s.elapsed, rel=1e-9)

    def test_invalid_threads(self, clean_testbed_session):
        # workers are modelled Dom0 threads: at least one
        tb = clean_testbed_session
        with pytest.raises(ValueError):
            ModChecker(tb.hypervisor, tb.profile, workers=0)

    def test_detects_infection_like_sequential(self):
        from repro.attacks import InlineHookAttack
        from repro.guest import build_catalog
        catalog = build_catalog(seed=42)
        infected = InlineHookAttack().apply(catalog["hal.dll"]).infected
        tb = build_testbed(4, seed=42,
                           infected={"Dom3": {"hal.dll": infected}})
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        assert not par.check_on_vm("hal.dll", "Dom3").report.clean
        assert par.check_on_vm("hal.dll", "Dom1").report.clean


class TestParallelPool:
    def test_pool_same_verdict_as_sequential(self, clean_testbed_session):
        tb = clean_testbed_session
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        r_seq = seq.check_pool("hal.dll").report
        r_par = par.check_pool("hal.dll").report
        assert r_par.all_clean == r_seq.all_clean
        assert sorted(r_par.verdicts) == sorted(r_seq.verdicts)
        assert len(r_par.pairs) == len(r_seq.pairs)

    def test_pool_parallel_faster_on_idle_host(self):
        tb = build_testbed(8, seed=42)
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        with tb.clock.span() as s:
            seq.check_pool("http.sys")
        with tb.clock.span() as p:
            par.check_pool("http.sys")
        assert p.elapsed < s.elapsed
        assert p.elapsed > s.elapsed / 8

    def test_pool_parser_time_attributed(self, clean_testbed_session):
        # Regression: the parallel path once folded Parser work into
        # Searcher, reporting parser == 0.0 in every breakdown.
        tb = clean_testbed_session
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        s = seq.check_pool("hal.dll").timings
        p = par.check_pool("hal.dll").timings
        assert p.parser > 0
        assert p.searcher > p.parser
        assert p.total < s.total

    def test_pool_canonical_mode(self, clean_testbed_session):
        tb = clean_testbed_session
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        out = par.check_pool("hal.dll", mode="canonical")
        assert out.report.all_clean

    def test_pool_detects_infection(self):
        from repro.attacks import InlineHookAttack
        from repro.guest import build_catalog
        catalog = build_catalog(seed=42)
        infected = InlineHookAttack().apply(catalog["hal.dll"]).infected
        tb = build_testbed(4, seed=42,
                           infected={"Dom3": {"hal.dll": infected}})
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        report = par.check_pool("hal.dll").report
        assert report.flagged() == ["Dom3"]

    def test_check_all_modules_goes_parallel(self):
        tb = build_testbed(4, seed=42)
        obs = make_observability(tb.clock)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4, obs=obs)
        outcomes = par.check_all_modules()
        assert outcomes
        checks = [s for s in obs.tracer.spans
                  if s.name == "modchecker.check"]
        assert len(checks) == len(outcomes)
        assert all(s.attrs["workers"] == 4 for s in checks)
