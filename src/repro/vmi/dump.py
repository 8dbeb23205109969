"""Memory acquisition and offline analysis (the Volatility workflow).

ModChecker works *live*; incident response often cannot — the standard
play is to acquire a full physical-memory image and analyse it offline.
This module implements both halves:

* :func:`acquire_dump` reads every frame of a guest through the
  hypervisor (the moral equivalent of ``xl dump-core`` / LibVMI's
  snapshot mode) into a :class:`MemoryDump` with the CR3 and OS profile
  recorded in its metadata, exactly what a Volatility profile needs;
* :class:`DumpAnalyzer` exposes the same read surface as a live
  :class:`~repro.vmi.core.VMIInstance` (``read_va``, ``read_u32``,
  ``symbol`` …) but walks the *dumped* page tables — so Module-Searcher,
  the carver and the Integrity-Checker run unchanged against a dump.

A dump is a point-in-time copy: no cost accounting, no caches, no guest
to perturb. Offline cross-checks of dumps from several clones therefore
give the same verdicts as a live pool check at the acquisition instant,
which the tests assert.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import IntrospectionFault, PageFault, PhysicalAddressError
from ..hypervisor.xen import Hypervisor
from ..mem.paging import walk
from ..mem.physical import PAGE_SIZE
from .symbols import OSProfile

__all__ = ["MemoryDump", "DumpAnalyzer", "acquire_dump"]

_PAGE_MASK = PAGE_SIZE - 1


@dataclass
class MemoryDump:
    """A guest's physical memory at one instant, plus analysis metadata."""

    vm_name: str
    cr3: int
    profile: OSProfile
    acquired_at: float                       # simulated time
    #: sparse frame map: frame number -> 4 KiB bytes (untouched frames
    #: are omitted and read as zeros, like a sparse core file)
    frames: dict[int, bytes] = field(default_factory=dict)
    n_frames: int = 0

    @property
    def resident_bytes(self) -> int:
        return len(self.frames) * PAGE_SIZE

    def read_physical(self, paddr: int, length: int) -> bytes:
        if paddr < 0 or paddr + length > self.n_frames * PAGE_SIZE:
            raise PhysicalAddressError(
                f"dump read [{paddr:#x},{paddr + length:#x}) out of range")
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = paddr + pos
            frame_no, offset = addr >> 12, addr & _PAGE_MASK
            n = min(PAGE_SIZE - offset, length - pos)
            frame = self.frames.get(frame_no)
            if frame is not None:
                out[pos:pos + n] = frame[offset:offset + n]
            pos += n
        return bytes(out)


def acquire_dump(hypervisor: Hypervisor, domain_key: int | str,
                 profile: OSProfile) -> MemoryDump:
    """Copy every touched frame of the guest out through the VMM.

    Charges Dom0 CPU for the full sweep (acquisition is not free), then
    returns a self-contained dump.
    """
    domain = hypervisor.domain(domain_key)
    if not domain.is_guest:
        raise IntrospectionFault(f"{domain.name} is not dumpable")
    assert domain.kernel is not None
    memory = domain.kernel.memory
    frames: dict[int, bytes] = {}
    # Real acquisition reads every frame; we copy the touched ones and
    # charge for the sweep at page-map cost.
    for frame_no in sorted(memory._frames):
        frames[frame_no] = memory.read_frame(frame_no)
    hypervisor.charge_dom0(len(frames) * 120e-6)
    return MemoryDump(
        vm_name=domain.name, cr3=domain.kernel.cr3, profile=profile,
        acquired_at=hypervisor.clock.now, frames=frames,
        n_frames=memory.n_frames)


class _DumpDomain:
    """Duck-typed stand-in for the live Domain handle."""

    def __init__(self, name: str) -> None:
        self.name = name


class DumpAnalyzer:
    """Offline reader with the live-VMI surface, over a MemoryDump."""

    def __init__(self, dump: MemoryDump) -> None:
        self.dump = dump
        self.profile = dump.profile
        self.cr3 = dump.cr3
        self.domain = _DumpDomain(dump.vm_name)

    # -- the VMIInstance surface the checker components consume -------------

    def flush_caches(self) -> None:
        """No caches offline; present for interface compatibility."""

    def read_pa(self, paddr: int, length: int) -> bytes:
        return self.dump.read_physical(paddr, length)

    def translate_kv2p(self, vaddr: int) -> int:
        """Kernel VA → PA by walking the dumped page tables."""
        return walk(self.read_pa, self.cr3, vaddr & ~_PAGE_MASK) \
            | (vaddr & _PAGE_MASK)

    def read_va(self, vaddr: int, length: int) -> bytes:
        out = bytearray(length)
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)
            try:
                pa = self.translate_kv2p(va)
            except PageFault as exc:
                raise IntrospectionFault(
                    f"{self.dump.vm_name} (dump): unmapped VA {va:#x}"
                ) from exc
            out[pos:pos + n] = self.read_pa(pa, n)
            pos += n
        return bytes(out)

    def read_u32(self, vaddr: int) -> int:
        return struct.unpack("<I", self.read_va(vaddr, 4))[0]

    def read_u16(self, vaddr: int) -> int:
        return struct.unpack("<H", self.read_va(vaddr, 2))[0]

    def symbol(self, name: str) -> int:
        return self.profile.symbol(name)
