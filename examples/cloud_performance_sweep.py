#!/usr/bin/env python
"""Cloud performance sweep: regenerate the paper's Figs. 7 & 8 and try
the parallel extension.

Sweeps ``http.sys`` checks across 2..15 VMs twice — guests idle (best
case, Fig. 7) and guests running the HeavyLoad stand-in (worst case,
Fig. 8) — then shows what the paper's proposed parallel memory access
buys.

Run:  python examples/cloud_performance_sweep.py
"""

from repro import HEAVY_LOAD, ModChecker, apply_workload, build_testbed
from repro.analysis import detect_knee, linear_fit

SEED = 2012
MODULE = "http.sys"


def sweep(tb, loaded: bool):
    mc = ModChecker(tb.hypervisor, tb.profile)
    rows = []
    for t in range(2, len(tb.vm_names) + 1):
        vms = tb.vm_names[:t]
        tb.set_guest_loads(0.0)
        if loaded:
            for name in vms:
                apply_workload(tb.hypervisor.domain(name), HEAVY_LOAD)
        outcome = mc.check_on_vm(MODULE, vms[0], vms)
        rows.append((t, outcome.timings))
    tb.set_guest_loads(0.0)
    return rows


def main() -> None:
    tb = build_testbed(15, seed=SEED)

    print(f"{'#VMs':>5} {'idle total':>12} {'loaded total':>13} "
          f"{'searcher share':>15}")
    idle = sweep(tb, loaded=False)
    loaded = sweep(tb, loaded=True)
    for (t, ti), (_, tl) in zip(idle, loaded):
        share = ti.searcher / ti.total
        print(f"{t:>5} {ti.total * 1e3:>10.2f}ms {tl.total * 1e3:>11.2f}ms "
              f"{share:>14.0%}")

    xs = [t for t, _ in idle]
    fit = linear_fit(xs, [tm.total for _, tm in idle])
    knee = detect_knee(xs, [tm.total for _, tm in loaded])
    cores = tb.hypervisor.cpu.logical_cpus
    print(f"\nidle sweep linearity R^2 = {fit.r_squared:.5f} (Fig. 7: "
          f"'steady linear growth')")
    print(f"loaded sweep knee at ~{knee:.0f} VMs with {cores} logical CPUs "
          f"(Fig. 8: nonlinear past the core count)")

    # The paper's future-work suggestion, implemented: parallel access.
    print("\nparallel introspection (12-VM pool, idle):")
    tb2 = build_testbed(12, seed=SEED)
    seq = ModChecker(tb2.hypervisor, tb2.profile)
    with tb2.clock.span() as s:
        seq.check_on_vm(MODULE, "Dom1")
    for threads in (2, 4, 8):
        par = ModChecker(tb2.hypervisor, tb2.profile, workers=threads)
        with tb2.clock.span() as p:
            par.check_on_vm(MODULE, "Dom1")
        print(f"  {threads} threads: {p.elapsed * 1e3:6.2f} ms "
              f"({s.elapsed / p.elapsed:.2f}x speedup)")


if __name__ == "__main__":
    main()
