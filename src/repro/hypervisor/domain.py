"""Domains: the hypervisor's unit of virtualization (Xen terminology).

``Dom0`` is the privileged domain where ModChecker runs; ``DomU`` are
the guests. A DomU owns a :class:`~repro.guest.kernel.GuestKernel`
(physical memory + booted OS); Dom0 has no guest kernel — it only
consumes pCPU time.

``cpu_load`` is the fraction of one pCPU each of the domain's vCPUs
wants (0 = idle, 1 = HeavyLoad pegging the core). The scheduler sums
these to derive contention for Dom0's introspection work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..guest.kernel import GuestKernel

__all__ = ["DomainKind", "DomainState", "Domain"]


class DomainKind(enum.Enum):
    DOM0 = "dom0"
    DOMU = "domU"


class DomainState(enum.Enum):
    """Lifecycle states (the chaos engine drives the transitions).

    ``RUNNING → PAUSED → RUNNING`` is a freeze window: the guest makes
    no progress but its frames stay mapped, so introspection *still
    works* (a paused domain is the easiest one to read). ``MIGRATING``
    is a live-migration blackout: frames are in flight between hosts
    and every introspection read fails with
    :class:`~repro.errors.DomainUnreachable` until the migration
    finishes. ``SHUTDOWN`` is terminal-but-present (destroy removes the
    domain entirely).
    """

    RUNNING = "running"
    PAUSED = "paused"
    MIGRATING = "migrating"
    SHUTDOWN = "shutdown"


@dataclass
class Domain:
    """One domain's scheduling-relevant state."""

    domid: int
    name: str
    kind: DomainKind
    vcpus: int = 1
    kernel: GuestKernel | None = None
    state: DomainState = DomainState.RUNNING
    cpu_load: float = 0.0
    mem_load: float = 0.0        # fraction of RAM churned (Fig. 9 monitor)
    disk_load: float = 0.0
    tags: dict = field(default_factory=dict)
    #: gfn -> protection refcount; EPT-style write protection managed by
    #: :meth:`~repro.hypervisor.xen.Hypervisor.protect_guest_frame`.
    #: Overlapping monitors refcount rather than fight.
    protected_frames: dict[int, int] = field(default_factory=dict)
    #: Bumped whenever the hypervisor bulk-drops this domain's
    #: protections (reboot, migrate-finish, destroy). Monitors snapshot
    #: the epoch when they arm and compare before trusting silence: an
    #: epoch mismatch means "your traps were disarmed behind your back".
    protection_epoch: int = 0
    #: Class-wide; bumped by every write to ``state``/``cpu_load``/``vcpus``
    #: of any domain. Hypervisors key their cached contention factor on it
    #: (another hypervisor's write only costs them a spurious recompute).
    demand_version = 0

    def __setattr__(self, name: str, value) -> None:
        if name in ("state", "cpu_load", "vcpus"):
            if name == "cpu_load" and not 0 <= value <= 1:
                raise ValueError("cpu_load must be in [0, 1]")
            Domain.demand_version += 1
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.kind is DomainKind.DOMU and self.kernel is None:
            raise ValueError(f"DomU {self.name!r} needs a guest kernel")

    @property
    def is_guest(self) -> bool:
        return self.kind is DomainKind.DOMU

    @property
    def boot_generation(self) -> int:
        """How many times this domain has (re)booted (0 = first boot).

        A rebooted guest reloads every module at fresh bases and gets
        fresh page tables, so introspection sessions key their validity
        on this counter: a cached VMI attach whose generation no longer
        matches must re-attach before reading.
        """
        return self.kernel.generation if self.kernel is not None else 0

    @property
    def introspectable(self) -> bool:
        """True when guest reads can succeed right now.

        PAUSED is deliberately included: a paused domain's memory is a
        frozen, perfectly readable snapshot.
        """
        return self.is_guest and self.state in (DomainState.RUNNING,
                                                DomainState.PAUSED)

    @property
    def runnable_vcpus(self) -> float:
        """Demanded pCPU time (vcpus x load) while running."""
        if self.state is not DomainState.RUNNING:
            return 0.0
        return self.vcpus * self.cpu_load

    def set_load(self, cpu: float | None = None, mem: float | None = None,
                 disk: float | None = None) -> None:
        """Adjust the domain's resource demand (used by workloads)."""
        if cpu is not None:
            self.cpu_load = cpu
        if mem is not None:
            self.mem_load = mem
        if disk is not None:
            self.disk_load = disk
