"""Cloud-scale stress: beyond the paper's 15 clones.

The paper's linear-searcher result implies large pools are feasible;
these benches actually run 50-VM pools and verify (a) the linear law
holds an order of magnitude past the paper's range, (b) detection still
localises a single infection at scale, and (c) host memory stays sane
thanks to sparse guest frames.

The ``fleet`` tier (``-m fleet``) goes two orders of magnitude
further: 10k heterogeneous guests under the sharded control plane.
Its gated numbers — sustained VM-checks/sec and p99 fleet-round
latency — are read off the **simulated-cost clock**, not wall time:
single-round pedantic wall timings are noise-prone on shared CI
runners, while the simulated metrics are a pure function of the seed,
so the CI gate (``tools/check_bench_regression.py --fleet``) is
deterministic. When ``FLEET_METRICS_OUT`` is set, the tier writes the
metrics JSON the gate consumes. Beside the gated ``metrics`` it records
``host_cpu_s``: the process CPU seconds of the build and of each cycle,
a trajectory for the tier's real cost. It is deliberately ungated (one
run on a shared runner is noise) and sits outside ``metrics``, which is
all the gate reads.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.analysis import linear_fit
from repro.attacks import attack_for_experiment
from repro.cloud import Fleet, build_fleet_testbed, build_testbed
from repro.core import ModChecker
from repro.guest import build_catalog

SEED = 42
BIG = 50
FLEET_VMS = 10_000
FLEET_CYCLES = 4


@pytest.fixture(scope="module")
def tb50():
    return build_testbed(BIG, seed=SEED)


def test_build_50_vm_cloud(benchmark):
    tb = benchmark.pedantic(lambda: build_testbed(BIG, seed=SEED),
                            rounds=1, iterations=1)
    assert len(tb.vm_names) == BIG


def test_linearity_holds_to_50(tb50):
    mc = ModChecker(tb50.hypervisor, tb50.profile)
    xs, ys = [], []
    for t in range(5, BIG + 1, 5):
        vms = tb50.vm_names[:t]
        out = mc.check_on_vm("http.sys", vms[0], vms)
        xs.append(t)
        ys.append(out.timings.total)
    fit = linear_fit(xs, ys)
    assert fit.r_squared > 0.999


def test_detection_at_scale(benchmark):
    attack, module = attack_for_experiment("E1")
    catalog = build_catalog(seed=SEED)
    infected = attack.apply(catalog[module]).infected
    tb = build_testbed(BIG, seed=SEED,
                       infected={"Dom37": {module: infected}})
    mc = ModChecker(tb.hypervisor, tb.profile)
    out = benchmark.pedantic(lambda: mc.check_pool(module),
                             rounds=1, iterations=1)
    assert out.report.flagged() == ["Dom37"]
    assert out.report.verdicts["Dom37"].comparisons == BIG - 1


def test_memory_footprint_stays_sparse(tb50):
    resident = sum(
        d.kernel.memory.resident_bytes()
        for d in tb50.hypervisor.guests())
    # 50 guests x 64 MiB addressable, but well under 50 MiB resident.
    assert resident < 50 * 1024 * 1024


# -- the fleet tier ----------------------------------------------------------

def _run_fleet(n_vms: int, cycles: int) -> tuple[Fleet, dict]:
    """The fleet after ``cycles`` rounds, and the host CPU seconds of
    its build and of each round."""
    start = time.process_time()
    tb = build_fleet_testbed(n_vms, seed=SEED)
    fleet = Fleet(tb.hypervisor, shard_size=64, workers=32,
                  checker_kwargs={"event_driven": True,
                                  "flush_caches_each_round": False})
    host_cpu = {"build": time.process_time() - start, "cycles": []}
    for _ in range(cycles):
        start = time.process_time()
        fleet.run_cycle()
        host_cpu["cycles"].append(time.process_time() - start)
    return fleet, host_cpu


@pytest.mark.fleet
def test_fleet_tier_10k_vms():
    """10k heterogeneous guests under the sharded control plane.

    Every gated number below comes off the simulated clock, so the
    run is a pure function of the seed; the only wall-clock cost is
    building and sweeping the substrate once.
    """
    fleet, host_cpu = _run_fleet(FLEET_VMS, FLEET_CYCLES)
    stats = fleet.stats

    placed = sum(s.size for s in fleet.shards.values())
    assert placed == FLEET_VMS
    # every shard reaches its verdicts: one module per shard per round
    assert stats.checks_total == len(fleet.shards) * FLEET_CYCLES
    assert stats.vm_checks_total == FLEET_VMS * FLEET_CYCLES
    # nothing flagged on a pristine fleet
    assert stats.alerts_total == 0

    checks_per_sec = stats.checks_per_sec
    p99 = stats.p99_cycle_seconds
    assert checks_per_sec > 0
    assert 0 < p99 < 60.0     # a round's work fits inside its interval

    out = os.environ.get("FLEET_METRICS_OUT")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"metrics": {"checks_per_sec": checks_per_sec,
                                   "p99_cycle_seconds": p99},
                       "vms": FLEET_VMS, "cycles": FLEET_CYCLES,
                       "shards": len(fleet.shards),
                       "vm_checks_total": stats.vm_checks_total,
                       "host_cpu_s": host_cpu,
                       "seed": SEED}, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.mark.fleet
def test_fleet_metrics_deterministic():
    """Two identical small-fleet runs agree to the last bit.

    This is the property the CI gate leans on: the gated metrics are
    simulated, so any drift is a code change, never runner noise.
    """
    def observe() -> tuple:
        fleet, _ = _run_fleet(120, 3)
        return (fleet.stats.vm_checks_total,
                fleet.stats.checks_per_sec,
                fleet.stats.p99_cycle_seconds,
                tuple(fleet.stats.cycle_seconds),
                fleet.hv.clock.now)

    assert observe() == observe()
