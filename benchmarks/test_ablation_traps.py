"""A9 — event-driven monitoring ablation.

Write-protection traps replace the incremental pipeline's O(pages)
checksum sweep with an O(writes) targeted re-check: at zero churn the
steady-state cycle is one empty ring drain per VM. This bench gates
the acceptance bar (at least 5x cheaper per steady-state cycle than
the PR-5 incremental sweep on the same pool), shows per-cycle cost
scales with the number of dirtied pages rather than the image size,
and checks the whole trap pipeline is deterministic.
"""

from __future__ import annotations

from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.mem.physical import PAGE_SIZE

SEED = 42
MODULE = "hal.dll"
N_VMS = 6
ROUNDS = 5


def _steady_state(tb, **kwargs) -> float:
    """Mean per-cycle checker time after one warm-up round."""
    mc = ModChecker(tb.hypervisor, tb.profile, **kwargs)
    mc.check_pool(MODULE)                      # warm-up round
    with tb.clock.span() as span:
        for _ in range(ROUNDS):
            mc.check_pool(MODULE)
    return span.elapsed / ROUNDS


def test_trap_ablation(benchmark):
    """Acceptance bar: the trap pipeline is >= 5x cheaper per
    steady-state cycle at zero churn than the incremental sweep, which
    itself beats the full pipeline."""
    tb = build_testbed(N_VMS, seed=SEED)

    full = _steady_state(tb)
    sweep = _steady_state(tb, incremental=True)
    event = benchmark(lambda: _steady_state(tb, event_driven=True))

    assert event < sweep < full
    assert sweep >= 5.0 * event, \
        f"trap speedup {sweep / event:.2f}x below the 5x bar"


def test_cost_scales_with_writes_not_pages():
    """Dirtying W pages per cycle costs O(W): more writes cost more,
    and even the dirtiest trap cycle stays under the full sweep (which
    re-digests every page regardless)."""
    tb = build_testbed(N_VMS, seed=SEED)
    kernel = tb.hypervisor.domain(tb.vm_names[0]).kernel
    mod = kernel.module(MODULE)

    def dirty_cycles(writes: int) -> float:
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        mc.check_pool(MODULE)
        with tb.clock.span() as span:
            for _ in range(ROUNDS):
                for page in range(writes):
                    # rewrite a byte with its own value: traps fire,
                    # content stays clean, the manifest survives
                    va = mod.base + page * PAGE_SIZE
                    kernel.aspace.write(va, kernel.aspace.read(va, 1))
                mc.check_pool(MODULE)
        assert mc.stats.trap_pages_checked == writes * ROUNDS
        return span.elapsed / ROUNDS

    quiet = dirty_cycles(0)
    one = dirty_cycles(1)
    four = dirty_cycles(4)
    sweep = _steady_state(tb, incremental=True)
    assert quiet < one < four < sweep


def test_lifecycle_churn_collapses_toward_sweep_cost():
    """A migration completing every round disarms one VM's protections:
    that VM re-sweeps and re-arms each cycle, so the per-cycle cost
    lands between quiet steady state and the all-sweep pipeline."""
    tb = build_testbed(N_VMS, seed=SEED)
    victim = tb.vm_names[0]

    def churny() -> float:
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        mc.check_pool(MODULE)
        with tb.clock.span() as span:
            for _ in range(ROUNDS):
                tb.hypervisor.migrate_start(victim)
                tb.hypervisor.migrate_finish(victim)
                mc.check_pool(MODULE)
        assert mc.trap_fallbacks.get("lifecycle") == ROUNDS
        return span.elapsed / ROUNDS

    quiet = _steady_state(tb, event_driven=True)
    churned = churny()
    sweep = _steady_state(tb, incremental=True)
    assert quiet < churned < sweep


def test_trap_determinism():
    """Two identical event-driven runs produce identical clocks and
    identical trap accounting (ring order is insertion order, nothing
    depends on wall time or hash randomisation)."""
    def run():
        tb = build_testbed(N_VMS, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, event_driven=True)
        kernel = tb.hypervisor.domain(tb.vm_names[1]).kernel
        mod = kernel.module(MODULE)
        for round_no in range(3):
            if round_no == 1:
                va = mod.base + PAGE_SIZE
                kernel.aspace.write(va, kernel.aspace.read(va, 1))
            mc.check_pool(MODULE)
        return (tb.clock.now, mc.stats.trap_validations, mc.stats.trap_pages_checked,
                dict(mc.trap_fallbacks),
                mc.hv.traps.stats.snapshot(),
                sorted(mc._protections.keys()))

    assert run() == run()
