"""Tests for tools/check_bench_regression.py on synthetic results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" \
    / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("bench_gate", _TOOL)
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)


def write_results(path: Path, means: dict[str, float]) -> Path:
    path.write_text(json.dumps(
        {"benchmarks": [{"name": n, "stats": {"mean": m}}
                        for n, m in means.items()]}))
    return path


BASE = {"test_a": 0.1, "test_b": 0.2, "test_c": 0.7}


@pytest.fixture
def baseline(tmp_path):
    return write_results(tmp_path / "baseline.json", BASE)


def run(results, baseline, *extra):
    return bench_gate.main([str(results), "--baseline", str(baseline),
                            *extra])


class TestRelativeGate:
    def test_identical_passes(self, tmp_path, baseline):
        results = write_results(tmp_path / "r.json", BASE)
        assert run(results, baseline) == 0

    def test_uniform_slowdown_passes(self, tmp_path, baseline):
        """A slow runner scales everything; shares are unchanged."""
        results = write_results(tmp_path / "r.json",
                                {n: m * 3.0 for n, m in BASE.items()})
        assert run(results, baseline) == 0

    def test_single_benchmark_regression_fails(self, tmp_path, baseline):
        slow = dict(BASE, test_a=BASE["test_a"] * 4.0)
        results = write_results(tmp_path / "r.json", slow)
        assert run(results, baseline) == 1

    def test_speedup_is_not_a_failure(self, tmp_path, baseline):
        fast = dict(BASE, test_c=BASE["test_c"] * 0.7)
        results = write_results(tmp_path / "r.json", fast)
        # test_c shrinking inflates a/b's shares by ~27%; the gate must
        # not flag the sped-up benchmark itself, only genuine growth.
        assert run(results, baseline, "--tolerance", "0.3") == 0

    def test_tolerance_is_respected(self, tmp_path, baseline):
        slow = dict(BASE, test_a=BASE["test_a"] * 1.6)
        results = write_results(tmp_path / "r.json", slow)
        assert run(results, baseline, "--tolerance", "0.10") == 1
        assert run(results, baseline, "--tolerance", "0.95") == 0


class TestAbsoluteGate:
    def test_uniform_slowdown_fails_absolute(self, tmp_path, baseline):
        results = write_results(tmp_path / "r.json",
                                {n: m * 2.0 for n, m in BASE.items()})
        assert run(results, baseline, "--absolute") == 1

    def test_within_tolerance_passes(self, tmp_path, baseline):
        results = write_results(tmp_path / "r.json",
                                {n: m * 1.1 for n, m in BASE.items()})
        assert run(results, baseline, "--absolute") == 0


class TestSchemaDrift:
    def test_missing_benchmark_is_schema_error(self, tmp_path, baseline):
        partial = {n: m for n, m in BASE.items() if n != "test_b"}
        results = write_results(tmp_path / "r.json", partial)
        assert run(results, baseline) == 2

    def test_new_benchmark_is_schema_error(self, tmp_path, baseline):
        grown = dict(BASE, test_d=0.1)
        results = write_results(tmp_path / "r.json", grown)
        assert run(results, baseline) == 2

    def test_missing_baseline_file(self, tmp_path):
        results = write_results(tmp_path / "r.json", BASE)
        assert run(results, tmp_path / "nope.json") == 2


class TestUpdate:
    def test_update_writes_baseline_then_passes(self, tmp_path):
        results = write_results(tmp_path / "r.json", BASE)
        baseline = tmp_path / "new_baseline.json"
        assert run(results, baseline, "--update") == 0
        assert baseline.exists()
        assert run(results, baseline) == 0

    def test_update_preserves_wallclock_section(self, tmp_path):
        """Rebasing means must not drop the hand-written ratio tiers."""
        baseline = tmp_path / "baseline.json"
        doc = {"benchmarks": [{"name": n, "stats": {"mean": m}}
                              for n, m in BASE.items()],
               "wallclock": [{"name": "t", "numerator": "test_c",
                              "denominator": "test_a", "min_ratio": 2.0}]}
        baseline.write_text(json.dumps(doc))
        results = write_results(tmp_path / "r.json",
                                {n: m * 1.5 for n, m in BASE.items()})
        assert run(results, baseline, "--update") == 0
        rebased = json.loads(baseline.read_text())
        assert rebased["wallclock"] == doc["wallclock"]


class TestShareNoiseFloor:
    """Sub-percent shares are jitter-immune; big shares stay gated."""

    # test_tiny holds ~0.5% of the total: 20% of its own share is far
    # below the drift the dominant benchmark's jitter imposes on it.
    TINY_BASE = {"test_big": 0.695, "test_mid": 0.3, "test_tiny": 0.005}

    def write_tiny_baseline(self, tmp_path):
        return write_results(tmp_path / "baseline.json", self.TINY_BASE)

    def test_tiny_share_jitter_passes(self, tmp_path):
        baseline = self.write_tiny_baseline(tmp_path)
        # +40% of its own (tiny) share — under the absolute floor.
        noisy = dict(self.TINY_BASE, test_tiny=0.007)
        results = write_results(tmp_path / "r.json", noisy)
        assert run(results, baseline) == 0

    def test_tiny_share_real_regression_fails(self, tmp_path):
        baseline = self.write_tiny_baseline(tmp_path)
        # 4x its own share clears the floor: a genuine slowdown.
        slow = dict(self.TINY_BASE, test_tiny=0.020)
        results = write_results(tmp_path / "r.json", slow)
        assert run(results, baseline) == 1

    def test_floor_does_not_loosen_big_shares(self, tmp_path):
        baseline = self.write_tiny_baseline(tmp_path)
        # +50% on a 30%-share benchmark dwarfs the floor; still fails.
        slow = dict(self.TINY_BASE, test_mid=0.45)
        results = write_results(tmp_path / "r.json", slow)
        assert run(results, baseline) == 1

    def test_floor_is_relative_mode_only(self, tmp_path):
        baseline = self.write_tiny_baseline(tmp_path)
        slow = dict(self.TINY_BASE, test_tiny=0.007)
        results = write_results(tmp_path / "r.json", slow)
        assert run(results, baseline, "--absolute") == 1


class TestWallclockGate:
    """Ratio tiers: real speedups gated machine-independently."""

    def tiered_baseline(self, tmp_path, min_ratio=3.0):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "benchmarks": [{"name": n, "stats": {"mean": m}}
                           for n, m in BASE.items()],
            "wallclock": [{"name": "speedup",
                           "numerator": "scalar", "denominator": "batch",
                           "min_ratio": min_ratio}]}))
        return baseline

    def test_ratio_above_tier_passes(self, tmp_path):
        baseline = self.tiered_baseline(tmp_path)
        results = write_results(tmp_path / "r.json",
                                {"scalar": 0.4, "batch": 0.1})
        assert run(results, baseline, "--wallclock") == 0

    def test_ratio_below_tier_fails(self, tmp_path):
        baseline = self.tiered_baseline(tmp_path)
        results = write_results(tmp_path / "r.json",
                                {"scalar": 0.2, "batch": 0.1})
        assert run(results, baseline, "--wallclock") == 1

    def test_uniform_runner_speed_cancels_out(self, tmp_path):
        """A 10x slower machine changes neither side of the ratio."""
        baseline = self.tiered_baseline(tmp_path)
        results = write_results(tmp_path / "r.json",
                                {"scalar": 4.0, "batch": 1.0})
        assert run(results, baseline, "--wallclock") == 0

    def test_missing_pair_member_is_schema_error(self, tmp_path):
        baseline = self.tiered_baseline(tmp_path)
        results = write_results(tmp_path / "r.json", {"scalar": 0.4})
        assert run(results, baseline, "--wallclock") == 2

    def test_baseline_without_tiers_is_schema_error(self, tmp_path,
                                                    baseline):
        results = write_results(tmp_path / "r.json", BASE)
        with pytest.raises(SystemExit):
            run(results, baseline, "--wallclock")

    def test_update_refused(self, tmp_path):
        baseline = self.tiered_baseline(tmp_path)
        results = write_results(tmp_path / "r.json",
                                {"scalar": 0.4, "batch": 0.1})
        with pytest.raises(SystemExit):
            run(results, baseline, "--wallclock", "--update")

    def test_repo_baseline_carries_batch_tier(self):
        """The checked-in substrate baseline gates the batch speedup."""
        baseline = Path(__file__).resolve().parent.parent / "benchmarks" \
            / "baseline_substrate.json"
        tiers = json.loads(baseline.read_text())["wallclock"]
        assert any(t["min_ratio"] >= 3.0
                   and "batch" in t["denominator"] for t in tiers)


class TestInterleavedTier:
    """A tier naming a ``benchmark`` reads that benchmark's
    ``extra_info`` timings (interleaved, min of N) instead of means."""

    def results(self, tmp_path, scalar, batch):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"benchmarks": [
            {"name": "test_a", "stats": {"mean": 0.1}},
            {"name": "test_pair", "stats": {"mean": 0.5},
             "extra_info": {"scalar_min_s": scalar,
                            "batch_min_s": batch}}]}))
        return path

    def baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "benchmarks": [{"name": "test_a", "stats": {"mean": 0.1}},
                           {"name": "test_pair", "stats": {"mean": 0.5}}],
            "wallclock": [{"name": "speedup", "benchmark": "test_pair",
                           "numerator": "scalar_min_s",
                           "denominator": "batch_min_s",
                           "min_ratio": 3.0}]}))
        return path

    def test_ratio_of_extra_info_passes(self, tmp_path):
        assert run(self.results(tmp_path, 0.4, 0.1),
                   self.baseline(tmp_path), "--wallclock") == 0

    def test_ratio_of_extra_info_fails(self, tmp_path):
        assert run(self.results(tmp_path, 0.2, 0.1),
                   self.baseline(tmp_path), "--wallclock") == 1

    def test_missing_extra_info_is_schema_error(self, tmp_path):
        results = write_results(tmp_path / "r.json",
                                {"test_a": 0.1, "test_pair": 0.5})
        assert run(results, self.baseline(tmp_path), "--wallclock") == 2

    def test_repo_baseline_gates_the_pool_vote_batch(self):
        baseline = Path(__file__).resolve().parent.parent / "benchmarks" \
            / "baseline_substrate.json"
        tiers = {t["name"]: t
                 for t in json.loads(baseline.read_text())["wallclock"]}
        tier = tiers["pool-vote-batch-speedup"]
        assert tier["benchmark"] == "test_bench_pool_vote_batch"
        assert tiers["batch-read-speedup"]["min_ratio"] >= 3.0
