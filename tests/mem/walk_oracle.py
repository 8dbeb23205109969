"""The hand-written page-table decoders that :mod:`repro.mem.paging` replaced.

Before :func:`~repro.mem.paging.walk` and
:func:`~repro.mem.paging.mapped_pages`, the translator, the offline dump
reader and the module carver each decoded PDEs and PTEs themselves.
Their bodies are kept here verbatim (as free functions over the same
inputs) as a differential oracle: the one walker must reproduce their
results, fault addresses and texts, and the reads they issued in
order. The VMI session's old walk is ``ReadOracle._walk`` in
``tests/vmi/read_oracle.py``.
"""

from __future__ import annotations

import struct

from repro.errors import PageFault
from repro.mem.paging import LARGE_PAGE_SIZE, PDE_LARGE, PTE_PRESENT
from repro.mem.physical import PAGE_SIZE

__all__ = ["oracle_translate", "oracle_dump_translate",
           "oracle_mapped_pages"]

_ENTRY = struct.Struct("<I")
_PAGE_MASK = PAGE_SIZE - 1
_PDE_SPAN = 1 << 22


def _split(vaddr: int) -> tuple[int, int, int]:
    return (vaddr >> 22) & 0x3FF, (vaddr >> 12) & 0x3FF, vaddr & 0xFFF


def oracle_translate(memory, cr3: int, vaddr: int) -> int:
    """``AddressTranslator.translate`` after its canonical-VA check."""
    pde_i, pte_i, offset = _split(vaddr)
    pd_base = cr3 & ~(PAGE_SIZE - 1)
    pde, = _ENTRY.unpack(memory.read(pd_base + 4 * pde_i, 4))
    if not pde & PTE_PRESENT:
        raise PageFault(vaddr, f"PDE not present for {vaddr:#x}")
    if pde & PDE_LARGE:
        return (pde & ~(LARGE_PAGE_SIZE - 1)) | (vaddr
                                                 & (LARGE_PAGE_SIZE - 1))
    pt_base = pde & ~(PAGE_SIZE - 1)
    pte, = _ENTRY.unpack(memory.read(pt_base + 4 * pte_i, 4))
    if not pte & PTE_PRESENT:
        raise PageFault(vaddr, f"PTE not present for {vaddr:#x}")
    return (pte & ~(PAGE_SIZE - 1)) | offset


def oracle_dump_translate(analyzer, vaddr: int) -> int:
    """``DumpAnalyzer.translate_kv2p``."""
    page_va = vaddr & ~_PAGE_MASK
    pde_i = (page_va >> 22) & 0x3FF
    pte_i = (page_va >> 12) & 0x3FF
    pd_base = analyzer.cr3 & ~_PAGE_MASK
    pde, = struct.unpack("<I", analyzer.read_pa(pd_base + 4 * pde_i, 4))
    if not pde & PTE_PRESENT:
        raise PageFault(page_va, f"PDE not present for {page_va:#x}")
    if pde & PDE_LARGE:
        return (pde & ~(LARGE_PAGE_SIZE - 1)) \
            | (vaddr & (LARGE_PAGE_SIZE - 1))
    pt_base = pde & ~_PAGE_MASK
    pte, = struct.unpack("<I", analyzer.read_pa(pt_base + 4 * pte_i, 4))
    if not pte & PTE_PRESENT:
        raise PageFault(page_va, f"PTE not present for {page_va:#x}")
    return (pte & ~_PAGE_MASK) | (vaddr & _PAGE_MASK)


def oracle_mapped_pages(vmi, arena: tuple[int, int]):
    """``ModuleCarver._mapped_pages`` over ``vmi`` and ``arena``."""
    start, end = arena
    pd_base = vmi.cr3 & ~(PAGE_SIZE - 1)
    va = start & ~(_PDE_SPAN - 1)
    while va < end:
        pde_i = (va >> 22) & 0x3FF
        pde, = struct.unpack(
            "<I", vmi.read_pa(pd_base + 4 * pde_i, 4))
        if not pde & PTE_PRESENT:
            va += _PDE_SPAN
            continue
        if pde & PDE_LARGE:
            # a PSE 4 MiB page: every covered page is mapped
            for pte_i in range(1024):
                page_va = (pde_i << 22) | (pte_i << 12)
                if start <= page_va < end:
                    yield page_va
            va += _PDE_SPAN
            continue
        # One mapped read fetches the whole page table.
        pt = vmi.read_pa(pde & ~(PAGE_SIZE - 1), PAGE_SIZE)
        for pte_i in range(1024):
            page_va = (pde_i << 22) | (pte_i << 12)
            if not (start <= page_va < end):
                continue
            pte, = struct.unpack_from("<I", pt, 4 * pte_i)
            if pte & PTE_PRESENT:
                yield page_va
        va += _PDE_SPAN
