#!/usr/bin/env python
"""Fault-tolerant monitoring: checking a cloud over a noisy channel.

The paper assumes every introspection read succeeds; production VMI
does not get that luxury — mappings fail transiently, pages get paged
out, whole domains pause. This example runs the resilience layer end
to end:

  1. a 6-VM pool is checked while 5% of guest reads fail transiently;
     the retry policy absorbs every fault and the sweep stays clean;
  2. one guest goes dark (long unreachable windows): the daemon
     exhausts its retry budget, quarantines the VM, and keeps voting
     with the surviving quorum;
  3. the outage ends; the quarantine expires and the VM rejoins;
  4. a rootkit patches ``hal.dll`` mid-noise — detection still fires
     through 5% channel noise.

Every fault is drawn from a seeded stream: rerunning this script
reproduces the exact same schedule.

Run:  python examples/fault_tolerant_monitoring.py
"""

from repro import CheckDaemon, ModChecker, build_testbed
from repro.attacks import RuntimeCodePatchAttack
from repro.core import BreakerConfig
from repro.core.daemon import RoundRobinPolicy
from repro.hypervisor import FaultConfig, FaultInjector

SEED = 2012


def main() -> None:
    tb = build_testbed(6, seed=SEED)
    mc = ModChecker(tb.hypervisor, tb.profile)   # default retry policy
    injector = FaultInjector(FaultConfig(transient_rate=0.05), seed=SEED)
    injector.install(tb.hypervisor)

    print("== phase 1: pool check through 5% transient faults ==")
    out = mc.check_pool("hal.dll")
    stats = injector.stats
    print(f"  reads={stats.reads}  transient faults={stats.transient}  "
          f"degraded VMs={len(out.report.degraded)}")
    assert out.report.all_clean and not out.report.degraded
    print(f"  verdict: all {len(out.report.verdicts)} VMs clean — "
          "the retry budget absorbed every fault")

    print("\n== phase 2: Dom4 goes dark ==")
    injector.config = FaultConfig(transient_rate=0.05,
                                  unreachable_rate=0.9,
                                  unreachable_duration=10.0,
                                  only_domains=("Dom4",))
    daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=2),
                         interval=60.0, breaker=BreakerConfig(open_cycles=2))
    for alert in daemon.run_cycle():
        print(f"  ALERT {alert}")
    assert daemon.quarantined == ["Dom4"]
    print(f"  quarantined: {daemon.quarantined} — sweeps continue on "
          "the surviving quorum")

    print("\n== phase 3: the outage ends ==")
    injector.config = FaultConfig(transient_rate=0.05)
    while daemon.quarantined:
        daemon.run_cycle()
        print(f"  [{tb.clock.now:8.2f}s] quarantined={daemon.quarantined}")
    assert "Dom4" in daemon._active_vms()
    print("  Dom4 rejoined the pool")

    print("\n== phase 4: detection still fires through the noise ==")
    result = RuntimeCodePatchAttack(offset_in_text=0x30).apply(
        tb.hypervisor.domain("Dom2").kernel, tb.catalog["hal.dll"])
    print(f"  Dom2: hal.dll patched in memory at {result.details['va']:#x}")
    caught = False
    for _ in range(8):
        for alert in daemon.run_cycle():
            print(f"  ALERT {alert}")
            caught |= (alert.kind == "integrity"
                       and alert.module == "hal.dll"
                       and "Dom2" in alert.flagged_vms)
        if caught:
            break
    assert caught, "the patched module was not flagged"

    injector.uninstall()
    print(f"\nDone: {stats.injected} faults injected, "
          f"{len(daemon.log)} alerts, simulated time {tb.clock.now:.2f}s.")


if __name__ == "__main__":
    main()
