"""Checks of the benchmark itself, on ``--quick`` sizes.

Run from the repository root: ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run as runner  # noqa: E402
import workloads  # noqa: E402
from tracing import HOOKS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = _bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())["workloads"]


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_every_metric_present_with_its_unit(quick):
    assert set(quick) == {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in quick.values():
        assert result["error_rate"] == 0 and result["traced_failed"] == 0
        assert _units(result["end_to_end"]) == e2e
        assert _units(result["per_layer"]) == layers
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
        assert result["model"]["sim_op_ms"]["value"] > 0


def test_traced_run_repeats_the_untraced_verdicts(quick):
    for result in quick.values():
        assert result["traced_digest"] == result["verdict_digest"]
        assert result["untraced_prefix_digest"] == result["verdict_digest"]


def test_self_times_sum_to_the_traced_op_time(quick):
    for result in quick.values():
        coverage = result["per_layer"]["trace.coverage"]["value"]
        assert coverage == pytest.approx(1.0, abs=0.02)
        shares = sum(m["value"] for name, m in result["per_layer"].items()
                     if name.endswith(".self_share"))
        assert shares == pytest.approx(coverage)


def test_two_runs_repeat_digest_and_counts(quick):
    for name, first in quick.items():
        proc = _bench("--workload", name, "--quick", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads((BENCH / "out" / f"{name}.layers.json")
                            .read_text())
        assert detail["verdict_digest"] == first["traced_digest"]
        counts = {k: m["value"] for k, m in line["metrics"].items()
                  if ".calls_per_" in k}
        assert counts == {k: m["value"]
                          for k, m in first["per_layer"].items()
                          if ".calls_per_" in k}


def test_every_hook_resolves_and_uninstalls():
    from repro.core.modchecker import ModChecker
    original = ModChecker.__dict__["check_pool"]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        assert ModChecker.__dict__["check_pool"] is not original
    finally:
        tracer.uninstall()
    assert ModChecker.__dict__["check_pool"] is original


def test_a_stale_hook_is_reported_not_fatal():
    tracer = Tracer(hooks=HOOKS + (("core.gone", "repro.core:Gone.method"),
                                   ("core.gone", "repro.nowhere:f")))
    tracer.install()
    tracer.uninstall()
    assert set(tracer.missing) == {"repro.core:Gone.method",
                                   "repro.nowhere:f"}


def test_wrong_expectation_counts_as_failure():
    control = workloads.PoolWorkload(
        "pool-canonical", "canonical", prefix_ops=10, quick_ops=10,
        expected_victim="Dom4")
    result = runner.run_untraced(control, 42, 0, quick=True)
    assert result["error_rate"] > 0
    assert "expected ['Dom4']" in result["errors"][0][1]


def test_compare_gates_on_bounds_errors_and_digest(quick, tmp_path):
    def write(name: str, workloads_: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": workloads_}))
        return str(path)

    base = write("a.json", quick)
    assert runner.main(["compare", base, base]) == 0
    slower = json.loads(json.dumps(quick))
    p50 = slower["pool-canonical"]["end_to_end"]["op_p50_ms"]
    p50["value"] *= 1.5
    assert runner.main(["compare", base, write("b.json", slower)]) == 1
    drifted = json.loads(json.dumps(quick))
    drifted["fleet-128"]["verdict_digest"] = "0" * 64
    assert runner.main(["compare", base, write("c.json", drifted)]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "pool-canonical", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
