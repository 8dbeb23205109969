"""Xen-like VMM: domains, contention scheduler, simulated clock,
fault injection on the introspection surface, write-protection traps."""

from .clock import SimClock
from .domain import Domain, DomainKind, DomainState
from .faults import FaultConfig, FaultInjector, FaultStats
from .scheduler import ContentionScheduler, CpuModel, makespan
from .traps import TrapQueue, TrapStats, WriteTrap
from .xen import Hypervisor

__all__ = [
    "SimClock",
    "Domain", "DomainKind", "DomainState",
    "FaultConfig", "FaultInjector", "FaultStats",
    "ContentionScheduler", "CpuModel", "makespan",
    "TrapQueue", "TrapStats", "WriteTrap",
    "Hypervisor",
]
