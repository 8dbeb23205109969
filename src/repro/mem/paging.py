"""x86 32-bit (non-PAE) two-level page tables.

The guest kernel builds genuine page-directory/page-table structures in
its own physical memory, and the VMI layer translates kernel virtual
addresses by walking those structures *from outside*, exactly as
libvmi does on a real Xen guest. Bit layout follows the Intel SDM:

* CR3 bits 31..12 — physical frame of the page directory;
* PDE/PTE bit 0 — present; bits 31..12 — target frame.

Both 4 KiB pages and PSE 4 MiB large pages (PDE bit 7) are modelled —
XP maps parts of the kernel image with large pages when the CPU
supports PSE, and an introspector that cannot walk them misreads
kernel memory. Access bits beyond P/RW/PS are stored but never
enforced — ModChecker performs read-only introspection and never
faults on protection, only on non-present mappings.

This module is the only one that decodes PDEs and PTEs: every walker
(the guest-side translator, the VMI session, the offline dump reader,
the module carver's sweep and the cold-walk guard) goes through
:func:`walk`, :func:`walk_batch`, :func:`mapped_pages` or
:func:`page_table_frame` over its own physical-read primitive.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import PageFault
from .physical import PAGE_SHIFT, PAGE_SIZE, FrameAllocator, PhysicalMemory

__all__ = ["PTE_PRESENT", "PTE_RW", "PDE_LARGE", "LARGE_PAGE_SIZE",
           "FAULT_NONE", "FAULT_PDE", "FAULT_PTE", "walk", "walk_batch",
           "mapped_pages", "page_table_frame", "fault_reason",
           "AddressTranslator", "PageTableBuilder"]

PTE_PRESENT = 0x001
PTE_RW = 0x002
PDE_LARGE = 0x080            # PS bit: this PDE maps a 4 MiB page
LARGE_PAGE_SIZE = 1 << 22

#: per-page fault codes returned by :func:`walk_batch`
FAULT_NONE = 0
FAULT_PDE = 1                # PDE not present
FAULT_PTE = 2                # PTE not present

_ENTRY = struct.Struct("<I")
_TABLE = struct.Struct("<1024I")
_PAGE_MASK = PAGE_SIZE - 1
_LARGE_MASK = LARGE_PAGE_SIZE - 1


def _split(vaddr: int) -> tuple[int, int, int]:
    """Split a 32-bit VA into (pde index, pte index, page offset)."""
    return (vaddr >> 22) & 0x3FF, (vaddr >> 12) & 0x3FF, vaddr & 0xFFF


def fault_reason(level: int, page_va: int) -> str:
    """The scalar walker's :class:`PageFault` message for a fault code.

    Centralised so the batched paths raise *byte-identical* fault text
    to the per-page walk — the differential harness asserts on it.
    """
    kind = "PDE" if level == FAULT_PDE else "PTE"
    return f"{kind} not present for {page_va:#x}"


def walk(read, cr3: int, va: int) -> int:
    """Walk the tables under ``cr3`` for ``va``; its frame's address.

    ``read(paddr, length) -> bytes`` is the physical-read primitive, as
    for :func:`walk_batch`; the walk makes one 4-byte PDE read and,
    unless that PDE maps a PSE 4 MiB page, one 4-byte PTE read. Returns
    the page-aligned physical address of the frame backing ``va``. A
    non-present entry raises :class:`PageFault` carrying ``va`` as given
    and its :func:`fault_reason` text.
    """
    pde = int.from_bytes(read((cr3 & ~_PAGE_MASK) + 4 * ((va >> 22) & 0x3FF),
                              4), "little")
    if not pde & PTE_PRESENT:
        raise PageFault(va, fault_reason(FAULT_PDE, va))
    if pde & PDE_LARGE:
        return (pde & ~_LARGE_MASK) | (va & _LARGE_MASK & ~_PAGE_MASK)
    pte = int.from_bytes(read((pde & ~_PAGE_MASK) + 4 * ((va >> 12) & 0x3FF),
                              4), "little")
    if not pte & PTE_PRESENT:
        raise PageFault(va, fault_reason(FAULT_PTE, va))
    return pte & ~_PAGE_MASK


def mapped_pages(read, cr3: int, start: int, end: int):
    """Yield every mapped page VA in ``[start, end)``, in VA order.

    Sweeps at page-directory granularity: one 4-byte PDE read per
    4 MiB span, so a non-present PDE skips the span; a PSE 4 MiB page
    maps all its pages; a page table is fetched with one whole-table
    read. ``read`` is as for :func:`walk`. Lazy: each span's reads are
    issued only when the caller asks for its first page.
    """
    pd_base = cr3 & ~_PAGE_MASK
    for span in range(start & ~_LARGE_MASK, end, LARGE_PAGE_SIZE):
        pde = int.from_bytes(read(pd_base + 4 * ((span >> 22) & 0x3FF), 4),
                             "little")
        if not pde & PTE_PRESENT:
            continue
        first = max(0, (start - span + _PAGE_MASK) >> PAGE_SHIFT)
        last = min(1024, (end - span + _PAGE_MASK) >> PAGE_SHIFT)
        if pde & PDE_LARGE:
            yield from range(span + (first << PAGE_SHIFT),
                             span + (last << PAGE_SHIFT), PAGE_SIZE)
            continue
        ptes = _TABLE.unpack(read(pde & ~_PAGE_MASK, PAGE_SIZE))
        for pte_i in range(first, last):
            if ptes[pte_i] & PTE_PRESENT:
                yield span + (pte_i << PAGE_SHIFT)


def page_table_frame(directory: bytes, va: int) -> int | None:
    """The frame number of the page table that maps ``va``.

    ``directory`` is the page directory's frame, as bytes. None when
    the PDE is not present or maps a PSE 4 MiB page (no table).
    """
    at = 4 * ((va >> 22) & 0x3FF)
    pde, = _ENTRY.unpack_from(directory, at)
    if not pde & PTE_PRESENT or pde & PDE_LARGE:
        return None
    return pde >> PAGE_SHIFT


def walk_batch(read, cr3: int, page_vas: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised two-level walk of many page-aligned VAs at once.

    ``read(paddr, length) -> bytes`` is the physical-read primitive
    (guest-side: :meth:`PhysicalMemory.read`; introspection-side: the
    hypervisor's ``read_guest_physical``). One read fetches the whole
    page-directory frame; PDEs for every requested page are gathered
    with fancy indexing, PSE 4 MiB large pages are partitioned from
    4 KiB pages, and each *distinct* page table covering a small page
    is fetched exactly once. Returns per-page arrays

    ``(frames, present, faults)``

    where ``frames[i]`` is the backing physical frame number (valid
    only where ``present[i]``), and ``faults[i]`` is ``FAULT_NONE`` /
    ``FAULT_PDE`` / ``FAULT_PTE``. The function is side-effect-free:
    it never raises for a non-present mapping and keeps no counters,
    so callers decide fault and accounting semantics.
    """
    vas = np.ascontiguousarray(page_vas, dtype=np.int64)
    n = vas.size
    frames = np.zeros(n, dtype=np.int64)
    present = np.zeros(n, dtype=bool)
    faults = np.full(n, FAULT_PDE, dtype=np.uint8)
    if n == 0:
        return frames, present, faults

    pd_base = cr3 & ~(PAGE_SIZE - 1)
    pd = np.frombuffer(read(pd_base, PAGE_SIZE), dtype="<u4"
                       ).astype(np.int64)
    pdes = pd[(vas >> 22) & 0x3FF]
    pde_present = (pdes & PTE_PRESENT) != 0

    large = pde_present & ((pdes & PDE_LARGE) != 0)
    if large.any():
        frames[large] = ((pdes[large] & ~np.int64(_LARGE_MASK))
                         | (vas[large] & _LARGE_MASK)) >> PAGE_SHIFT
        present[large] = True
        faults[large] = FAULT_NONE

    small = pde_present & ~large
    if small.any():
        faults[small] = FAULT_PTE
        pt_bases = pdes[small] & ~np.int64(PAGE_SIZE - 1)
        pte_idx = (vas >> 12) & 0x3FF
        for pt_base in np.unique(pt_bases).tolist():
            pt = np.frombuffer(read(pt_base, PAGE_SIZE), dtype="<u4"
                               ).astype(np.int64)
            sel = small & (pdes & ~np.int64(PAGE_SIZE - 1) == pt_base)
            ptes = pt[pte_idx[sel]]
            ok = (ptes & PTE_PRESENT) != 0
            idx = np.flatnonzero(sel)
            frames[idx[ok]] = ptes[ok] >> PAGE_SHIFT
            present[idx[ok]] = True
            faults[idx[ok]] = FAULT_NONE
    return frames, present, faults


class PageTableBuilder:
    """Guest-side construction of page tables in physical memory."""

    def __init__(self, memory: PhysicalMemory, allocator: FrameAllocator) -> None:
        self.memory = memory
        self.allocator = allocator
        self.page_directory_frame = allocator.alloc()
        # Cache of pde_index -> page-table frame to avoid re-reading.
        self._pt_frames: dict[int, int] = {}

    @property
    def cr3(self) -> int:
        """The value a vCPU's CR3 would hold."""
        return self.page_directory_frame << PAGE_SHIFT

    def _page_table_frame(self, pde_index: int) -> int:
        frame = self._pt_frames.get(pde_index)
        if frame is None:
            frame = self.allocator.alloc()
            self._pt_frames[pde_index] = frame
            pde_addr = (self.page_directory_frame << PAGE_SHIFT) + 4 * pde_index
            self.memory.write(pde_addr, _ENTRY.pack(
                (frame << PAGE_SHIFT) | PTE_PRESENT | PTE_RW))
        return frame

    def map_page(self, vaddr: int, frame_no: int, *, writable: bool = True) -> None:
        """Install a 4 KiB mapping ``vaddr -> frame_no``."""
        if vaddr & (PAGE_SIZE - 1):
            raise ValueError(f"vaddr {vaddr:#x} not page aligned")
        pde_i, pte_i, _ = _split(vaddr)
        pt_frame = self._page_table_frame(pde_i)
        pte_addr = (pt_frame << PAGE_SHIFT) + 4 * pte_i
        flags = PTE_PRESENT | (PTE_RW if writable else 0)
        self.memory.write(pte_addr, _ENTRY.pack((frame_no << PAGE_SHIFT) | flags))

    def map_large_page(self, vaddr: int, first_frame: int, *,
                       writable: bool = True) -> None:
        """Install a PSE 4 MiB mapping at ``vaddr`` (4 MiB aligned).

        ``first_frame`` is the first of 1024 physically-contiguous
        frames backing the large page. Overwrites any page table
        previously installed for this PDE slot.
        """
        if vaddr & (LARGE_PAGE_SIZE - 1):
            raise ValueError(f"vaddr {vaddr:#x} not 4 MiB aligned")
        if (first_frame << PAGE_SHIFT) & (LARGE_PAGE_SIZE - 1):
            raise ValueError("large page needs a 4 MiB-aligned frame base")
        pde_i, _, _ = _split(vaddr)
        self._pt_frames.pop(pde_i, None)
        pde_addr = (self.page_directory_frame << PAGE_SHIFT) + 4 * pde_i
        flags = PTE_PRESENT | PDE_LARGE | (PTE_RW if writable else 0)
        self.memory.write(pde_addr, _ENTRY.pack(
            (first_frame << PAGE_SHIFT) | flags))

    def map_range(self, vaddr: int, n_pages: int, *,
                  writable: bool = True) -> list[int]:
        """Map ``n_pages`` fresh frames at ``vaddr``; return the frames."""
        frames = [self.allocator.alloc() for _ in range(n_pages)]
        for i, frame in enumerate(frames):
            self.map_page(vaddr + i * PAGE_SIZE, frame, writable=writable)
        return frames

    def unmap_page(self, vaddr: int) -> None:
        """Clear the PTE for ``vaddr`` (page becomes non-present)."""
        pde_i, pte_i, _ = _split(vaddr)
        pt_frame = self._pt_frames.get(pde_i)
        if pt_frame is None:
            return
        pte_addr = (pt_frame << PAGE_SHIFT) + 4 * pte_i
        self.memory.write(pte_addr, _ENTRY.pack(0))


class AddressTranslator:
    """Walks guest page tables given only (physical memory, CR3).

    This is the introspector's view: it holds no guest-side Python
    state, so translation works across the isolation boundary purely
    from bytes — the property that makes VMI introspection honest in
    this simulation.
    """

    def __init__(self, memory: PhysicalMemory, cr3: int) -> None:
        self.memory = memory
        self.cr3 = cr3
        self.walks = 0          # page-table walks performed (cost model input)

    def translate(self, vaddr: int) -> int:
        """VA → PA or raise :class:`PageFault`."""
        if not (0 <= vaddr < 1 << 32):
            raise PageFault(vaddr, f"non-canonical 32-bit VA {vaddr:#x}")
        self.walks += 1
        return walk(self.memory.read, self.cr3, vaddr) | (vaddr & _PAGE_MASK)

    def translate_range(self, vaddr: int, length: int, *,
                        stop_on_fault: bool = True,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translate every page covering ``[vaddr, vaddr+length)`` at once.

        One :func:`walk_batch` pass replaces ``n_pages`` scalar
        :meth:`translate` calls. Returns ``(frames, present, faults)``
        per covered page, in VA order. ``self.walks`` advances exactly
        as the equivalent scalar loop would: with ``stop_on_fault``
        (the default, matching a read that raises on the first hole)
        only pages up to and including the first non-present one are
        counted; otherwise every page is.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        if not (0 <= vaddr and vaddr + length <= 1 << 32):
            raise PageFault(vaddr, f"non-canonical 32-bit VA {vaddr:#x}")
        if length == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint8)
        first_page = vaddr & ~(PAGE_SIZE - 1)
        n_pages = ((vaddr + length - 1) >> PAGE_SHIFT) - (vaddr
                                                          >> PAGE_SHIFT) + 1
        page_vas = first_page + np.arange(n_pages, dtype=np.int64) * PAGE_SIZE
        frames, present, faults = walk_batch(self.memory.read, self.cr3,
                                             page_vas)
        if stop_on_fault and not present.all():
            self.walks += int(np.argmin(present)) + 1
        else:
            self.walks += n_pages
        return frames, present, faults

    def read_virtual(self, vaddr: int, length: int) -> bytes:
        """Read a VA range, translating page by page."""
        out = bytearray(length)
        view = memoryview(out)
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & (PAGE_SIZE - 1)), length - pos)
            pa = self.translate(va)
            self.memory.read_into(pa, view[pos:pos + n])
            pos += n
        return bytes(out)

    def write_virtual(self, vaddr: int, data: bytes) -> None:
        """Write a VA range (guest-internal use; VMI never writes)."""
        pos = 0
        while pos < len(data):
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & (PAGE_SIZE - 1)), len(data) - pos)
            pa = self.translate(va)
            self.memory.write(pa, data[pos:pos + n])
            pos += n
