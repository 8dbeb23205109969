"""ModChecker reproduction — kernel-module integrity checking across a
simulated VM cloud.

Reproduces *ModChecker: Kernel Module Integrity Checking in the Cloud
Environment* (Ahmed, Zoranic, Javaid, Richard — ICPP 2012) as a pure
Python system: a Xen-like hypervisor, Windows-XP-like guests with a
genuine PE loader, a libvmi-like introspection layer, the four rootkit
techniques of the paper's evaluation, and ModChecker itself.

Quick start::

    from repro import build_testbed, ModChecker
    tb = build_testbed(15, seed=42)
    mc = ModChecker(tb.hypervisor, tb.profile)
    report = mc.check_pool("hal.dll").report
    assert report.all_clean
"""

from .attacks import (Attack, InfectionResult, attack_for_experiment,
                      make_attack)
from .cloud import PAPER_VM_COUNT, Testbed, build_testbed
from .core import (CheckDaemon, IntegrityChecker, ModChecker, ModuleCarver,
                   ModuleParser, ModuleSearcher, PoolReport,
                   VMCheckReport)
from .guest import GuestKernel, build_catalog
from .hypervisor import CpuModel, Hypervisor, SimClock
from .pe import DriverBlueprint, PEImage, build_driver
from .perf import (HEAVY_LOAD, IDLE, CostModel, GuestResourceMonitor,
                   Workload, apply_workload)
from .vmi import OSProfile, VMIInstance

__version__ = "1.0.0"

__all__ = [
    "Attack", "InfectionResult", "attack_for_experiment", "make_attack",
    "PAPER_VM_COUNT", "Testbed", "build_testbed",
    "CheckDaemon", "IntegrityChecker", "ModChecker", "ModuleCarver",
    "ModuleParser", "ModuleSearcher",
    "PoolReport", "VMCheckReport",
    "GuestKernel", "build_catalog",
    "CpuModel", "Hypervisor", "SimClock",
    "DriverBlueprint", "PEImage", "build_driver",
    "HEAVY_LOAD", "IDLE", "CostModel", "GuestResourceMonitor", "Workload",
    "apply_workload",
    "OSProfile", "VMIInstance",
    "__version__",
]
