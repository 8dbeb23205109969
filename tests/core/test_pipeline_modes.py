"""Golden pin of the two cached pipeline modes, times and all.

``incremental=True`` (page sweeps) and ``event_driven=True`` (write
traps) share one manifest validator. The equivalence suite in
``tests/integration/test_incremental_equivalence.py`` compares verdict
streams only: it drops event times and every ``manifest.*``/``trap.*``
event, so a moved charge or a missing ``trap.fallback`` would slip past
it. ``golden/pipeline_modes.json`` pins, per seeded daemon soak, the
sha256 of the full JSONL event log and of the Prometheus exposition,
the final simulated clock, and the trap and pair-replay counters.

Each soak is a 5-VM daemon over 24 cycles with
``RoundRobinPolicy(per_cycle=4)`` and ``paranoia_every=3`` (so
``paranoia`` fallbacks fire), for both modes and both pool votes, on
three traces: seed 1 with a ``hal.dll`` tamper on Dom2 at cycle 4 and
no churn, seed 3 at churn 0.35, and seed 2 at churn 0.2.

Refreshing after an INTENTIONAL behaviour change::

    PYTHONPATH=src python -m pytest tests/core/test_pipeline_modes.py \\
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import ChaosConfig, ChaosEngine, build_testbed
from repro.core import CheckDaemon, ModChecker, RoundRobinPolicy
from repro.obs import make_observability

GOLDEN = Path(__file__).parent / "golden" / "pipeline_modes.json"

CYCLES = 24

#: trace name -> (seed, churn rate, cycle of the Dom2 hal.dll tamper)
TRACES = {
    "seed1-tamper4": (1, 0.0, 4),
    "seed3-churn35": (3, 0.35, None),
    "seed2-churn20": (2, 0.2, None),
}

CONFIGS = [f"{mode}-{pool}-{trace}"
           for mode in ("incremental", "event")
           for pool in ("pairwise", "canonical")
           for trace in TRACES]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def soak(config: str) -> dict:
    """Run one configuration; return what the golden records for it."""
    mode, pool, trace = config.split("-", 2)
    seed, churn, tamper_at = TRACES[trace]
    tb = build_testbed(5, seed=seed)
    obs = make_observability(tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs,
                    incremental=mode == "incremental",
                    event_driven=mode == "event", paranoia_every=3)
    engine = ChaosEngine(tb.hypervisor, ChaosConfig.from_churn_rate(churn),
                         seed=seed, catalog=tb.catalog)
    daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=4), chaos=engine,
                         pool_mode=pool)
    for cycle in range(CYCLES):
        if cycle == tamper_at:
            RuntimeCodePatchAttack().apply(
                tb.hypervisor.domain("Dom2").kernel, tb.catalog["hal.dll"])
        daemon.run_cycle()
    return {"events_sha256": _sha(obs.events.to_jsonl()),
            "metrics_sha256": _sha(obs.metrics.to_prometheus()),
            "clock": repr(tb.clock.now),
            "trap_validations": mc.stats.trap_validations,
            "trap_pages_checked": mc.stats.trap_pages_checked,
            "trap_fallbacks": dict(sorted(mc.trap_fallbacks.items())),
            "pair_replays": mc.pair_replays}


@pytest.fixture(scope="module")
def golden(request) -> dict:
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps({c: soak(c) for c in CONFIGS},
                                     indent=2, sort_keys=True) + "\n")
        pytest.skip("golden refreshed; re-run without --update-golden")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


def test_golden_exercises_both_validator_paths(golden):
    """The pin is vacuous if one side of the validator never runs:
    every event-driven arm must serve trap validations and take
    ``paranoia`` re-sweeps, every incremental arm must arm nothing,
    and the pairwise arms must replay pairs."""
    for config in CONFIGS:
        g = golden[config]
        if config.startswith("event-"):
            assert g["trap_validations"] > 0
            assert g["trap_fallbacks"].get("paranoia", 0) > 0
        else:
            assert g["trap_validations"] == 0
            assert g["trap_fallbacks"] == {}
        if "-pairwise-" in config:
            assert g["pair_replays"] > 0


@pytest.mark.parametrize("config", CONFIGS)
def test_matches_golden(golden, config):
    assert soak(config) == golden[config]
