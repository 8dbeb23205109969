"""Write-protection traps: the hypervisor half of event-driven VMI.

The related work ("A Low-overhead Kernel Object Monitoring Approach for
Virtual Machine Introspection", arXiv 1902.05135) replaces polling with
EPT write-protection: monitored guest frames are marked read-only in the
second-stage page tables, and a guest write raises a VM exit that the
monitor consumes later. This module models the *delivery* side — a
bounded, per-VM trap ring — while the arming side lives on
:class:`~repro.hypervisor.xen.Hypervisor` (``protect_guest_frame``).

Modelled real-world constraints that matter for correctness:

* **Coalescing** — hardware raises one exit per write, but a sane
  monitor only cares *that* a frame changed before the next check, not
  how many times. The queue keeps one :class:`WriteTrap` per (vm, gfn)
  and counts collapsed writes, like a dirty bitmap with metadata.
* **Bounded capacity** — real trap rings are finite. When a VM's
  pending set is full, *new* frames are dropped and a sticky overflow
  flag is raised; the consumer must fall back to a full sweep for that
  drain (reason ``exhausted`` in the fallback taxonomy), because a
  dropped trap is a write it never heard about.
* **Lifecycle purges** — reboot/migrate/destroy invalidate every gfn
  meaning, so pending traps for the VM are purged alongside its
  protections (see ``Hypervisor`` lifecycle methods).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..counters import Series, declare

__all__ = ["WriteTrap", "TrapStats", "TrapQueue"]


@dataclass(frozen=True)
class WriteTrap:
    """One coalesced guest write to a protected frame."""

    vm: str            #: domain name the write happened in
    gfn: int           #: guest frame number written
    offset: int        #: in-frame byte offset of the *first* write
    sim_time: float    #: simulated time of the first write
    writes: int = 1    #: writes coalesced into this trap since arming


@declare(*(Series("modchecker_traps_total",
                  "Write traps through the hypervisor ring, by outcome",
                  outcome, {"outcome": outcome})
           for outcome in ("delivered", "coalesced", "dropped", "drained")))
@dataclass
class TrapStats:
    """Counters for the trap ring (all monotonically increasing)."""

    delivered: int = 0    #: write events pushed into the ring
    coalesced: int = 0    #: writes folded into an already-pending trap
    dropped: int = 0      #: writes lost to a full ring (overflow)
    drained: int = 0      #: traps handed to consumers via :meth:`drain`
    overflows: int = 0    #: drains that reported a sticky overflow

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class _PerVM:
    """Pending traps for one domain (insertion-ordered by first write)."""

    pending: dict[int, WriteTrap] = field(default_factory=dict)
    overflowed: bool = False


class TrapQueue:
    """Bounded per-VM ring of coalesced write traps.

    ``capacity_per_vm`` bounds how many *distinct* frames can be
    pending per domain; repeat writes to an already-pending frame always
    coalesce and never consume capacity.
    """

    def __init__(self, capacity_per_vm: int = 1024) -> None:
        if capacity_per_vm <= 0:
            raise ValueError("capacity_per_vm must be positive")
        self.capacity_per_vm = capacity_per_vm
        self.stats = TrapStats()
        self._by_vm: dict[str, _PerVM] = {}

    # -- producer side (hypervisor write path) --------------------------

    def push(self, vm: str, gfn: int, offset: int, sim_time: float) -> bool:
        """Record a guest write; returns False iff the write was lost."""
        ring = self._by_vm.setdefault(vm, _PerVM())
        self.stats.delivered += 1
        trap = ring.pending.get(gfn)
        if trap is not None:
            ring.pending[gfn] = dataclasses.replace(
                trap, writes=trap.writes + 1)
            self.stats.coalesced += 1
            return True
        if len(ring.pending) >= self.capacity_per_vm:
            ring.overflowed = True
            self.stats.dropped += 1
            return False
        ring.pending[gfn] = WriteTrap(vm=vm, gfn=gfn, offset=offset,
                                      sim_time=sim_time)
        return True

    # -- consumer side (VMI drain hypercall) ----------------------------

    def pending(self, vm: str) -> int:
        """Distinct frames currently pending for ``vm``."""
        ring = self._by_vm.get(vm)
        return 0 if ring is None else len(ring.pending)

    def drain(self, vm: str) -> tuple[tuple[WriteTrap, ...], bool]:
        """Take every pending trap for ``vm``.

        Returns ``(traps, overflowed)`` in first-write order and clears
        both. A True ``overflowed`` means at least one write since the
        last drain was lost — the traps returned alongside it are an
        *incomplete* account and the consumer must not trust silence.
        """
        ring = self._by_vm.get(vm)
        if ring is None:
            return (), False
        traps = tuple(ring.pending.values())
        overflowed = ring.overflowed
        ring.pending.clear()
        ring.overflowed = False
        self.stats.drained += len(traps)
        if overflowed:
            self.stats.overflows += 1
        return traps, overflowed

    def purge(self, vm: str) -> int:
        """Lifecycle drop: discard ``vm``'s pending traps and overflow.

        Returns how many traps were discarded. Used when gfn meanings
        change wholesale (reboot, migrate-finish, destroy) — stale traps
        would otherwise alias new frames.
        """
        ring = self._by_vm.pop(vm, None)
        return 0 if ring is None else len(ring.pending)
