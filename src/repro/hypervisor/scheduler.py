"""Credit-scheduler-style CPU contention model.

Xen's credit scheduler gives each runnable vCPU a proportional share of
the physical CPUs. For ModChecker what matters is how much *slower*
Dom0's work completes as guests consume CPU — the mechanism behind the
paper's Fig. 8 ("sudden nonlinear growth in the ModChecker's runtime
when the number of heavily loaded VMs exceeded the number of available
virtual cores").

Model: let ``R`` be total runnable vCPU demand (guests' ``vcpus x load``
plus Dom0's one working vCPU) and ``P`` the number of logical pCPUs.

* **Undersubscribed** (``R <= P``): Dom0 gets a full core. A small
  linear term models shared-cache / hyper-threading interference, which
  grows with co-runners even before saturation — the paper's quad-core
  i7 exposes 8 logical CPUs but nothing like 8 cores of throughput.
* **Oversubscribed** (``R > P``): proportional share — Dom0 receives
  ``P/R`` of a core, i.e. work takes ``R/P`` times longer. Because the
  checker also scans *more* VMs as ``R`` grows, total runtime becomes
  super-linear in the VM count past the knee, reproducing Fig. 8.

The hyper-threading efficiency factor discounts the second logical
thread of each core (a pair of hyperthreads ≈ 1.3 cores of throughput,
a standard rule of thumb), which sharpens the knee the paper observed.

Concurrent Dom0 work (the paper's §V-C-1 parallel memory access, and
the fleet's shard rounds) is modelled, not threaded: raw CPU work items
are packed onto ``workers`` threads with the LPT :func:`makespan`, and
each thread is stretched by the contention factor for ``workers`` busy
Dom0 vCPUs (:meth:`ContentionScheduler.parallel_elapsed`). The speedup
therefore saturates once Dom0 threads plus guest load exceed the
physical CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CpuModel", "ContentionScheduler", "makespan"]


def makespan(work_items: list[float], workers: int) -> float:
    """LPT greedy makespan of ``work_items`` over ``workers`` bins."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not work_items:
        return 0.0
    bins = [0.0] * min(workers, len(work_items))
    for item in sorted(work_items, reverse=True):
        i = min(range(len(bins)), key=bins.__getitem__)
        bins[i] += item
    return max(bins)


@dataclass(frozen=True)
class CpuModel:
    """The physical CPU the hypervisor schedules onto.

    Defaults model the paper's testbed: Quad Core i7, HyperThreading
    enabled (8 logical CPUs).
    """

    physical_cores: int = 4
    threads_per_core: int = 2
    ht_efficiency: float = 0.30   # 2nd hyperthread adds 30% of a core
    interference: float = 0.03    # per-co-runner slowdown below saturation

    @property
    def logical_cpus(self) -> int:
        return self.physical_cores * self.threads_per_core

    @property
    def effective_cores(self) -> float:
        """Throughput in single-thread-equivalents."""
        extra = self.threads_per_core - 1
        return self.physical_cores * (1.0 + extra * self.ht_efficiency)


class ContentionScheduler:
    """Computes Dom0 slowdown factors from current domain loads."""

    def __init__(self, cpu: CpuModel | None = None) -> None:
        self.cpu = cpu or CpuModel()

    def dom0_slowdown(self, guest_runnable_vcpus: float,
                      dom0_threads: int = 1) -> float:
        """Factor by which each Dom0 working thread is stretched.

        ``guest_runnable_vcpus`` is the summed demand of all guests;
        ``dom0_threads`` is how many Dom0 vCPUs are busy (1 for the
        paper's sequential checker, ``workers`` for a concurrent
        check or fleet round). Always >= 1.
        """
        if guest_runnable_vcpus < 0:
            raise ValueError("negative runnable demand")
        if dom0_threads < 1:
            raise ValueError("dom0_threads must be >= 1")
        demand = guest_runnable_vcpus + float(dom0_threads)
        logical = self.cpu.logical_cpus
        if demand <= logical:
            # Full core available; mild interference from co-runners.
            return 1.0 + self.cpu.interference * (demand - 1.0)
        # Saturated: proportional share of *effective* throughput.
        share = self.cpu.effective_cores / demand
        per_thread_cap = self.cpu.effective_cores / logical
        return max(1.0, per_thread_cap / share) * (
            1.0 + self.cpu.interference * logical)

    def parallel_elapsed(self, work_items: list[float], workers: int,
                         guest_runnable_vcpus: float) -> float:
        """Simulated time for raw Dom0 CPU ``work_items`` run on
        ``workers`` concurrent Dom0 threads: the LPT makespan, with
        every thread stretched by the contention for ``workers`` busy
        Dom0 vCPUs."""
        return makespan(work_items, workers) * self.dom0_slowdown(
            guest_runnable_vcpus, dom0_threads=workers)

    def knee_vm_count(self, per_vm_load: float = 1.0) -> int:
        """Smallest loaded-VM count that saturates the logical CPUs.

        The paper observed the knee when loaded VMs exceeded the 8
        virtual cores; with 1 vCPU of demand per VM this returns 8.
        """
        if per_vm_load <= 0:
            raise ValueError("per_vm_load must be positive")
        n = 0
        while n * per_vm_load + 1.0 <= self.cpu.logical_cpus:
            n += 1
        return n
