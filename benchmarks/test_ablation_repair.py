"""A12 — restore-on-tamper ablation: MTTR as a benchmark axis.

The self-healing claim, quantified: a tampered clone admitted into a
churning pool is not just *convicted* but *restored*, and the mean time
to repair — detection verdict to verified-clean re-check, on the
simulated clock — is a first-class gated number next to detection
latency and checks/sec. Because MTTR is read off the simulated clock it
is a pure function of the seed: the CI gate
(``tools/check_bench_regression.py --fleet --baseline
benchmarks/baseline_repair.json``) runs with a tight direction-aware
tolerance and never trips on runner noise. When ``REPAIR_METRICS_OUT``
is set, the soak test writes the metrics JSON the gate consumes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.attacks import RacingWriterAttack, RuntimeCodePatchAttack
from repro.cloud import build_testbed, stage_chaos
from repro.core import ModChecker

pytestmark = pytest.mark.chaos

SEED = 42
POOL = 5
WARM_CYCLES = 3
SOAK_CYCLES = 12
#: 0.1 keeps Mallory votable shortly after admission at this seed;
#: higher rates park the clone in migration blackouts for most of the
#: soak, which is the *detection*-latency story (A7), not the MTTR one.
CHURN = 0.1


def _scenario(policy="repair", attempts=3):
    return stage_chaos(n_vms=POOL, seed=SEED, churn_rate=CHURN,
                       checker_kwargs={"repair_policy": policy,
                                       "repair_max_attempts": attempts})


def _repair_stats(scenario):
    return scenario.checker.repair.stats


def test_infected_admission_self_heals_under_churn():
    """The headline soak: Mallory joins mid-churn, is convicted, then
    restored in place — and every tamper verdict reaches an explicit
    terminal state (verified here; never a silent failure)."""
    scenario = _scenario()
    scenario.run(WARM_CYCLES)
    vm = scenario.admit_infected("E2")
    repaired_cycle = None
    for cycle in range(1, SOAK_CYCLES + 1):
        alerts = scenario.daemon.run_cycle()
        if any(a.kind == "repaired" and vm in a.flagged_vms
               for a in alerts):
            repaired_cycle = cycle
            break
    assert repaired_cycle is not None, \
        f"{vm} not repaired within {SOAK_CYCLES} cycles"

    daemon = scenario.daemon
    assert daemon.stats.repairs_verified_total >= 1
    assert daemon.stats.repairs_failed_total == 0
    assert daemon.stats.repairs_quarantined_total == 0

    stats = _repair_stats(scenario)
    assert stats.verified == daemon.stats.repairs_verified_total
    assert stats.mttr_count == stats.verified
    assert 0 < stats.mttr_mean <= stats.mttr_max

    # the pool really is clean again: further cycles raise no new
    # integrity alerts against the healed clone
    for _ in range(2):
        assert not [a for a in scenario.daemon.run_cycle()
                    if a.kind == "integrity" and vm in a.flagged_vms]

    out = os.environ.get("REPAIR_METRICS_OUT")
    if out:
        attempts_per_fix = stats.attempts / stats.verified
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"metrics": {
                           "repair_mttr_mean_seconds": stats.mttr_mean,
                           "repair_mttr_max_seconds": stats.mttr_max,
                           "repair_attempts_per_fix": attempts_per_fix,
                           "repair_cycles_to_heal": repaired_cycle,
                       },
                       "pool": POOL, "churn_rate": CHURN,
                       "verified": stats.verified,
                       "bytes_written": stats.bytes_written,
                       "seed": SEED}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def test_mttr_deterministic_per_seed():
    """Two identical soaks agree to the last bit — the property the CI
    gate leans on: gated MTTR drift is a code change, never noise."""
    def observe() -> tuple:
        scenario = _scenario()
        scenario.run(WARM_CYCLES)
        vm = scenario.admit_infected("E2")
        scenario.run(SOAK_CYCLES)
        stats = _repair_stats(scenario)
        return (vm, stats.verified, stats.attempts, stats.bytes_written,
                stats.mttr_mean, stats.mttr_max,
                scenario.testbed.clock.now)

    assert observe() == observe()


def test_racing_adversary_stretches_mttr_but_loses(catalog):
    """The adversary axis: a racing writer whose budget is under the
    retry budget costs extra attempts (and therefore MTTR) but still
    ends verified-clean — degraded, bounded, never silent."""
    def mttr_with(attack) -> tuple:
        tb = build_testbed(4, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, repair_policy="repair",
                        repair_max_attempts=4)
        attack.apply(tb.hypervisor.domain("Dom2").kernel,
                     catalog["hal.dll"])
        if isinstance(attack, RacingWriterAttack):
            attack.arm(tb.clock)
        (rec,) = mc.check_pool("hal.dll").remediations
        assert rec.status == "verified"
        return rec.attempts, rec.mttr

    plain_attempts, plain_mttr = mttr_with(RuntimeCodePatchAttack())
    raced_attempts, raced_mttr = mttr_with(RacingWriterAttack(rewrites=2))
    assert plain_attempts == 1
    assert raced_attempts == 3          # budget 2 < retry budget 4
    assert raced_mttr > plain_mttr


def test_detect_only_repair_layer_is_free():
    """At policy ``detect-only`` the repair layer must be simulated-time
    invisible: a churn soak costs exactly what it costs with no repair
    wiring at all."""
    def soak(checker_kwargs) -> tuple:
        scenario = stage_chaos(n_vms=POOL, seed=SEED, churn_rate=CHURN,
                               checker_kwargs=checker_kwargs)
        log = scenario.run(SOAK_CYCLES)
        return (scenario.testbed.clock.now,
                [str(a) for a in log.alerts])

    assert soak({"repair_policy": "detect-only"}) == soak(None)
