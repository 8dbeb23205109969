"""Metamorphic equivalence: incremental and full pipelines agree.

For any seeded chaos trace, a daemon running with ``incremental=True``
— or with ``event_driven=True``, the trap pipeline — must produce the
same *observable verdict stream* as one running the full pipeline —
event for event on the verdict-bearing vocabulary (``check.start``,
``check.verdict``, ``pair.compared``, ``alert.raised``) and alert for
alert (times excluded: the modes advance the simulated clock
differently, which is the entire point of the optimisation). The same
holds under the canonical pool vote, across the batch/scalar
acquisition arms and across ``workers=1``/``workers=4`` (the modelled
parallel clock). Times and the ``manifest.*``/``trap.*`` events are
pinned separately, per mode, by ``tests/core/test_pipeline_modes.py``.

The event-driven arms run the daemon with ``trap_priority=False``:
trap-ahead scheduling deliberately *reorders* checks, which changes
the stream's order without changing verdicts — exact stream equality
needs the byte-identical schedule. The reordering mode gets its own
test (:class:`TestTrapPriority`): detection must never be later, and
no spurious alerts may appear.

Fault injection is deliberately OFF (fault rate 0) in these runs:
injected faults are drawn per guest *read*, and the incremental sweep
performs different read sequences than the full path, so the fault
*placement* — not the pipeline's correctness — would differ between
modes. Fault-handling equivalence is covered by the invalidation unit
tests in ``tests/core/test_incremental.py`` instead.
"""

import re

import pytest

from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import ChaosConfig, ChaosEngine, build_testbed
from repro.core import ModChecker
from repro.core.daemon import CheckDaemon
from repro.obs import make_observability

#: The verdict-bearing event names compared across modes. Excluded by
#: design: ``module.acquired`` (its outcome legitimately differs —
#: "manifest" vs "ok"), ``manifest.*`` (only exist in one mode), and
#: the chaos/membership/breaker plumbing (covered by the alert and
#: verdict comparison; their attrs embed no verdict information).
COMPARED = ("check.start", "check.verdict", "pair.compared",
            "alert.raised")

SEEDS = range(10)


def _run(seed: int, *, incremental: bool, event_driven: bool = False,
         cycles: int = 8, churn_rate: float = 0.35,
         infected: dict | None = None, tamper_at: int | None = None,
         trap_priority: bool = False, batch: bool = True,
         workers: int = 1, pool_mode: str = "pairwise"):
    """One seeded daemon soak; returns (events, alerts, chaos kinds)."""
    tb = build_testbed(5, seed=seed, infected=infected)
    obs = make_observability(tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs,
                    incremental=incremental, event_driven=event_driven,
                    batch=batch, workers=workers)
    engine = ChaosEngine(tb.hypervisor,
                         ChaosConfig.from_churn_rate(churn_rate),
                         seed=seed, catalog=tb.catalog)
    daemon = CheckDaemon(mc, chaos=engine, trap_priority=trap_priority,
                         pool_mode=pool_mode)
    for cycle in range(cycles):
        if tamper_at is not None and cycle == tamper_at:
            RuntimeCodePatchAttack().apply(
                tb.hypervisor.domain("Dom2").kernel,
                tb.catalog["hal.dll"])
        daemon.run_cycle()
    stream = [(e.name, e.attrs) for e in obs.events.events
              if e.name in COMPARED]
    alerts = [(a.module, a.flagged_vms, a.regions, a.kind, a.degraded)
              for a in daemon.log.alerts]
    kinds = {e.attrs["kind"] for e in obs.events.by_name("chaos.applied")}
    return stream, alerts, kinds


#: the failing read's address inside a ``retry-exhausted:`` reason
_READ_VA = re.compile(r"VA page 0x[0-9a-f]+")


def _mask_read_va(run) -> str:
    """A run's verdict stream and alerts with read addresses masked."""
    return _READ_VA.sub("VA page <va>", repr(run[:2]))


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_verdict_stream_identical_under_churn(self, seed):
        full = _run(seed, incremental=False)
        fast = _run(seed, incremental=True)
        assert fast[0] == full[0]
        assert fast[1] == full[1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trap_pipeline_identical_under_churn(self, seed):
        full = _run(seed, incremental=False)
        trap = _run(seed, incremental=True, event_driven=True)
        assert trap[0] == full[0]
        assert trap[1] == full[1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_incremental_identical_at_low_churn(self, seed):
        # At churn 0.2 some seeds (2 here) check a guest mid-migration.
        # Full and incremental both degrade it ``retry-exhausted:``,
        # but the sweep's first failing read is a different page from
        # the walk's, so only the VA inside the reason differs; it is
        # masked. The trap arm is left out on purpose: it serves a
        # migrating guest's manifest from trap silence and keeps it
        # voting (seed 2 raises no degraded alert at all) — see
        # test_event_driven.py::TestFallbacks::
        # test_migration_blackout_is_a_mode_difference.
        full = _run(seed, incremental=False, churn_rate=0.2)
        fast = _run(seed, incremental=True, churn_rate=0.2)
        assert _mask_read_va(fast) == _mask_read_va(full)

    def test_seed_set_exercises_reboot_and_migration(self):
        """The metamorphic claim is vacuous if no seed ever reboots or
        migrates a guest; assert the trace corpus covers both."""
        kinds = set()
        for seed in SEEDS:
            kinds |= _run(seed, incremental=True)[2]
        assert "reboot" in kinds
        assert "migrate-finish" in kinds


class TestTamperEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_baked_in_infection(self, seed):
        """A clone infected from first boot is convicted identically."""
        from repro.attacks import attack_for_experiment
        attack, module = attack_for_experiment("E1")
        catalog = build_testbed(2, seed=seed).catalog   # blueprint source
        result = attack.apply(catalog[module])
        infected = {"Dom2": {module: result.infected}}
        full = _run(seed, incremental=False, infected=infected)
        fast = _run(seed, incremental=True, infected=infected)
        trap = _run(seed, incremental=True, event_driven=True,
                    infected=infected)
        assert fast[0] == full[0]
        assert fast[1] == full[1]
        assert trap[0] == full[0]
        assert trap[1] == full[1]
        assert any("Dom2" in a[1] for a in fast[1])     # it was caught

    @pytest.mark.parametrize("seed", [1, 5])
    def test_midstream_tamper(self, seed):
        """In-place tamper after manifests are warm: the sweep-based
        and trap-based pipelines must convict on the same cycle as the
        full one."""
        full = _run(seed, incremental=False, churn_rate=0.0, tamper_at=4)
        fast = _run(seed, incremental=True, churn_rate=0.0, tamper_at=4)
        trap = _run(seed, incremental=True, event_driven=True,
                    churn_rate=0.0, tamper_at=4)
        assert fast[0] == full[0]
        assert fast[1] == full[1]
        assert trap[0] == full[0]
        assert trap[1] == full[1]
        assert any("Dom2" in a[1] for a in fast[1])


class TestCanonicalEquivalence:
    """The canonical (O(t)) pool vote gives the same verdict stream in
    every pipeline mode, as the pairwise vote does."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_verdict_stream_identical_under_churn(self, seed):
        full = _run(seed, incremental=False, pool_mode="canonical")
        fast = _run(seed, incremental=True, pool_mode="canonical")
        trap = _run(seed, incremental=True, event_driven=True,
                    pool_mode="canonical")
        assert fast[:2] == full[:2]
        assert trap[:2] == full[:2]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_midstream_tamper(self, seed):
        kwargs = {"churn_rate": 0.0, "tamper_at": 4,
                  "pool_mode": "canonical"}
        full = _run(seed, incremental=False, **kwargs)
        fast = _run(seed, incremental=True, **kwargs)
        trap = _run(seed, incremental=True, event_driven=True, **kwargs)
        assert fast[:2] == full[:2]
        assert trap[:2] == full[:2]
        assert any("Dom2" in a[1] for a in full[1])


class TestBatchEquivalence:
    """The vectorised acquisition path is a pure substrate swap: for
    any seeded chaos trace, every pipeline mode must emit the same
    verdict stream and alert list with ``batch=False`` (the scalar
    reference loops) as with the default ``batch=True``."""

    @pytest.mark.parametrize("seed", [0, 4, 8])
    @pytest.mark.parametrize("mode", ["full", "incremental", "trap"])
    def test_verdicts_identical_across_batch_arms(self, seed, mode):
        kwargs = {"incremental": mode != "full",
                  "event_driven": mode == "trap"}
        batched = _run(seed, batch=True, **kwargs)
        scalar = _run(seed, batch=False, **kwargs)
        assert batched[0] == scalar[0]
        assert batched[1] == scalar[1]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_midstream_tamper_convicted_identically(self, seed):
        batched = _run(seed, incremental=True, event_driven=True,
                       churn_rate=0.0, tamper_at=4, batch=True)
        scalar = _run(seed, incremental=True, event_driven=True,
                      churn_rate=0.0, tamper_at=4, batch=False)
        assert batched[0] == scalar[0]
        assert batched[1] == scalar[1]
        assert any("Dom2" in a[1] for a in batched[1])


class TestWorkersEquivalence:
    """``workers=4`` changes only the clock model: the same work is
    packed onto modelled Dom0 threads instead of charged in sequence.
    Every pipeline mode must emit the same verdict stream and alert
    list as ``workers=1`` on the same seeded chaos trace."""

    @pytest.mark.parametrize("seed", [0, 4, 8])
    @pytest.mark.parametrize("mode", ["full", "incremental", "trap"])
    def test_verdicts_identical_across_worker_counts(self, seed, mode):
        kwargs = {"incremental": mode != "full",
                  "event_driven": mode == "trap"}
        sequential = _run(seed, workers=1, **kwargs)
        parallel = _run(seed, workers=4, **kwargs)
        assert parallel[0] == sequential[0]
        assert parallel[1] == sequential[1]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_midstream_tamper_convicted_identically(self, seed):
        sequential = _run(seed, incremental=True, event_driven=True,
                          churn_rate=0.0, tamper_at=4, workers=1)
        parallel = _run(seed, incremental=True, event_driven=True,
                        churn_rate=0.0, tamper_at=4, workers=4)
        assert parallel[0] == sequential[0]
        assert parallel[1] == sequential[1]
        assert any("Dom2" in a[1] for a in parallel[1])


class TestTrapPriority:
    """Trap-ahead scheduling (the daemon default) reorders the stream;
    it must never delay detection and must add no spurious alerts."""

    @pytest.mark.parametrize("seed", [1, 5])
    def test_no_spurious_alerts_and_no_later_detection(self, seed):
        base = _run(seed, incremental=True, event_driven=True,
                    churn_rate=0.0, tamper_at=4)
        prio = _run(seed, incremental=True, event_driven=True,
                    churn_rate=0.0, tamper_at=4, trap_priority=True)
        # the same *distinct* alerts: nothing invented, nothing missed
        # (the urgent re-check may repeat an alert for a module that
        # stays tampered — a duplicate conviction, not a spurious one)
        assert set(prio[1]) == set(base[1])
        assert any("Dom2" in a[1] for a in prio[1])
        # detection is never later: the first alert appears no deeper
        # into the verdict stream than without priority scheduling
        first = [(e, a) for e, a in base[0]].index(
            next((e, a) for e, a in base[0] if e == "alert.raised"))
        first_prio = [(e, a) for e, a in prio[0]].index(
            next((e, a) for e, a in prio[0] if e == "alert.raised"))
        assert first_prio <= first

    @pytest.mark.parametrize("seed", [2, 6])
    def test_quiet_pool_priority_is_a_no_op(self, seed):
        # no churn, no tamper: nothing ever traps, so the urgent list
        # is empty every cycle and the streams are byte-identical
        base = _run(seed, incremental=True, event_driven=True,
                    churn_rate=0.0)
        prio = _run(seed, incremental=True, event_driven=True,
                    churn_rate=0.0, trap_priority=True)
        assert prio[0] == base[0]
        assert prio[1] == base[1] == []
