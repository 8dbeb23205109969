"""One page-table walker: every decoder agrees with the ones it replaced.

:func:`repro.mem.paging.walk` is pinned against :func:`walk_batch` and
against the VMI session's old walk (``ReadOracle._walk``) over 4 KiB,
PSE, PDE-absent and PTE-absent pages: same frames, same
``PageFault.address`` and text, same reads in the same order. Each
caller — the translator, a VMI session with no injector, an inert one
and a live one, and the dump reader — is run beside the old body it
replaced (``tests/mem/walk_oracle.py``); results, exceptions, reads
and injector counts must be equal. :func:`mapped_pages` must yield the
old carver sweep's VAs with the same ``read_pa`` log, a PSE 4 MiB arena
page and unaligned arena bounds included, and a whole carve must
interleave its reads exactly as before.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

import repro.core.carver as carver_mod
from repro.core.carver import ModuleCarver
from repro.errors import PageFault
from repro.hypervisor import FaultConfig, FaultInjector, Hypervisor
from repro.mem.address_space import DRIVER_AREA_BASE, DRIVER_AREA_END
from repro.mem.paging import (FAULT_NONE, FAULT_PDE, FAULT_PTE,
                              LARGE_PAGE_SIZE, AddressTranslator,
                              PageTableBuilder, fault_reason, mapped_pages,
                              page_table_frame, walk, walk_batch)
from repro.mem.physical import PAGE_SIZE, FrameAllocator, PhysicalMemory
from repro.pe import map_file_to_memory
from repro.vmi import OSProfile, VMIInstance
from repro.vmi.dump import DumpAnalyzer, acquire_dump
from tests.mem.walk_oracle import (oracle_dump_translate, oracle_mapped_pages,
                                   oracle_translate)
from tests.vmi.read_oracle import ReadOracle

SEED = 7
LARGE_VA = 0x8040_0000
LIVE = FaultConfig(transient_rate=0.3)


def _aligned_large(alloc: FrameAllocator) -> int:
    """1024 contiguous frames on a 4 MiB physical boundary."""
    probe = alloc.alloc()
    pad = -(probe + 1) % 1024
    if pad:
        alloc.alloc(pad)
    return alloc.alloc(1024)


class _Logged:
    """A physical-read primitive that logs each ``(paddr, length)``."""

    def __init__(self, read) -> None:
        self._read = read
        self.log: list[tuple[int, int]] = []

    def read(self, paddr: int, length: int) -> bytes:
        self.log.append((paddr, length))
        return self._read(paddr, length)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except PageFault as exc:
        return ("fault", exc.address, str(exc))


@pytest.fixture(scope="module")
def layout():
    """4 KiB pages with holes (PTE absent), a PSE page, and VAs under
    a PDE that is not present."""
    mem = PhysicalMemory(4096 * PAGE_SIZE)
    alloc = FrameAllocator(mem, reserve_low=4)
    builder = PageTableBuilder(mem, alloc)
    base = LARGE_VA - 16 * PAGE_SIZE
    for i in range(16):
        if i % 3:
            builder.map_page(base + i * PAGE_SIZE, alloc.alloc())
    builder.map_large_page(LARGE_VA, _aligned_large(alloc))
    small = [base + i * PAGE_SIZE for i in range(16)]
    large = [LARGE_VA, LARGE_VA + 0x1000, LARGE_VA + LARGE_PAGE_SIZE - 0x1000]
    absent = [0x0040_0000, 0x9000_0000]
    return mem, builder.cr3, small + large + absent


class TestWalk:
    def test_page_kinds_covered(self, layout):
        mem, cr3, vas = layout
        _, _, faults = walk_batch(mem.read, cr3, np.array(vas))
        assert {FAULT_NONE, FAULT_PDE, FAULT_PTE} <= set(faults.tolist())

    def test_matches_walk_batch(self, layout):
        mem, cr3, vas = layout
        frames, present, faults = walk_batch(mem.read, cr3, np.array(vas))
        for i, va in enumerate(vas):
            got = _outcome(walk, mem.read, cr3, va)
            if present[i]:
                assert got == ("ok", int(frames[i]) << 12)
            else:
                assert got == ("fault", va,
                               fault_reason(int(faults[i]), va))

    def test_matches_the_old_vmi_walk(self, layout):
        mem, cr3, vas = layout
        for va in vas:
            new, old = _Logged(mem.read), _Logged(mem.read)
            hv = types.SimpleNamespace(read_guest_physical=(
                lambda domid, paddr, n, log=old: log.read(paddr, n)))
            session = types.SimpleNamespace(
                hv=hv, domain=types.SimpleNamespace(domid=1), cr3=cr3)
            assert _outcome(walk, new.read, cr3, va) \
                == _outcome(ReadOracle._walk, session, va)
            assert new.log == old.log

    def test_unaligned_va_faults_name_the_va(self, layout):
        mem, cr3, vas = layout
        for va in vas:
            page = _outcome(walk, mem.read, cr3, va)
            got = _outcome(walk, mem.read, cr3, va + 0x123)
            if page[0] == "ok":
                assert got == page
            else:
                text = page[2].replace(f"{va:#x}", f"{va + 0x123:#x}")
                assert got == ("fault", va + 0x123, text)

    def test_page_table_frame(self, layout):
        mem, cr3, vas = layout
        directory = mem.read_frame(cr3 >> 12)
        for va in vas:
            log = _Logged(mem.read)
            _outcome(walk, log.read, cr3, va)
            table = page_table_frame(directory, va)
            if len(log.log) == 2:           # read a PTE: a page table
                assert table == log.log[1][0] >> 12
            else:                           # PDE absent or PSE
                assert table is None


class TestTranslator:
    def test_matches_the_old_body(self, layout):
        mem, cr3, vas = layout
        for va in vas + [va + 0x7FF for va in vas]:
            new, old = _Logged(mem.read), _Logged(mem.read)
            tr = AddressTranslator(new, cr3)
            assert _outcome(tr.translate, va) \
                == _outcome(oracle_translate, old, cr3, va)
            assert new.log == old.log and tr.walks == 1


def _guest(catalog):
    """A guest with a PSE 4 MiB page just past the driver arena."""
    hv = Hypervisor()
    kernel = hv.create_guest("Dom1", catalog, seed=SEED).kernel
    first = _aligned_large(kernel.aspace.frame_allocator)
    big_va = (DRIVER_AREA_END + LARGE_PAGE_SIZE - 1) & ~(LARGE_PAGE_SIZE - 1)
    kernel.aspace.page_tables.map_large_page(big_va, first)
    image = bytes(map_file_to_memory(catalog["dummy.sys"].file_bytes))
    kernel.memory.write(first * PAGE_SIZE, image)
    return hv, kernel, big_va


def _guest_vas(kernel, big_va):
    """One VA of each kind: mapped 4 KiB, PSE, PTE-absent, PDE-absent."""
    arena = np.arange(DRIVER_AREA_BASE, DRIVER_AREA_END, PAGE_SIZE)
    _, _, faults = walk_batch(kernel.memory.read, kernel.cr3, arena)
    pick = {code: [int(v) for v in arena[faults == code][:3]]
            for code in (FAULT_NONE, FAULT_PTE, FAULT_PDE)}
    assert all(pick.values())
    mods = sorted(kernel.modules.values(), key=lambda m: m.base)
    return (pick[FAULT_NONE] + [mods[0].base + 0x10, mods[-1].ldr_entry_va]
            + [big_va, big_va + 0x5123] + pick[FAULT_PTE]
            + [pick[FAULT_PTE][0] + 0x44] + pick[FAULT_PDE]
            + [0x0040_0000])


def _vmi_trace(catalog, cls, faults):
    hv, kernel, big_va = _guest(catalog)
    vmi = cls(hv, "Dom1", OSProfile.from_guest(kernel))
    injector = None
    if faults is not None:
        injector = FaultInjector(LIVE if faults == "live" else FaultConfig(),
                                 seed=SEED).install(hv)
    out = []
    for va in _guest_vas(kernel, big_va):
        for fn in (vmi.translate_kv2p, vmi.read_u32):
            try:
                out.append(("ok", fn(va)))
            except PageFault as exc:
                out.append(("fault", exc.address, str(exc)))
            except Exception as exc:
                out.append((type(exc).__name__, str(exc)))
    stats = injector.stats.as_dict() if injector else None
    return (out, stats, vmi.stats, list(vmi.v2p_cache.items()),
            float.hex(hv.clock.now))


class TestVMI:
    @pytest.mark.parametrize("faults", [None, "inert", "live"])
    def test_matches_the_old_walk(self, catalog, faults):
        new = _vmi_trace(catalog, VMIInstance, faults)
        old = _vmi_trace(catalog, ReadOracle, faults)
        assert new == old
        if faults is not None:
            assert new[1]["reads"] > 0
        if faults == "live":
            assert new[1]["transient"] > 0

    def test_injector_installed_after_attach_is_seen(self, catalog):
        hv, kernel, _ = _guest(catalog)
        vmi = VMIInstance(hv, "Dom1", OSProfile.from_guest(kernel),
                          enable_caches=False)
        injector = FaultInjector(FaultConfig(), seed=SEED).install(hv)
        vmi.translate_kv2p(next(iter(kernel.modules.values())).base)
        assert injector.stats.reads == 2       # the PDE and the PTE


class TestDump:
    def test_matches_the_old_body(self, catalog):
        hv, kernel, big_va = _guest(catalog)
        dump = acquire_dump(hv, "Dom1", OSProfile.from_guest(kernel))
        new, old = DumpAnalyzer(dump), DumpAnalyzer(dump)
        new_log, old_log = _Logged(new.read_pa), _Logged(old.read_pa)
        new.read_pa, old.read_pa = new_log.read, old_log.read
        for va in _guest_vas(kernel, big_va):
            assert _outcome(new.translate_kv2p, va) \
                == _outcome(oracle_dump_translate, old, va)
        assert new_log.log == old_log.log


def _logged_session(hv, kernel):
    vmi = VMIInstance(hv, "Dom1", OSProfile.from_guest(kernel))
    log = _Logged(vmi.read_pa)
    vmi.read_pa = log.read
    return vmi, log


class TestMappedPages:
    @pytest.mark.parametrize("arena", [
        (DRIVER_AREA_BASE, DRIVER_AREA_END),
        (DRIVER_AREA_BASE + 0x12_3456, DRIVER_AREA_END - 0x23_4567),
        ("big", 0), ("big", 0x20_0800), ("big", -0x30_0800),
    ], ids=["arena", "unaligned", "pse", "pse-tail", "pse-head"])
    def test_matches_the_old_sweep(self, catalog, arena):
        hv, kernel, big_va = _guest(catalog)
        if arena[0] == "big":
            shift = arena[1]
            arena = ((big_va + shift, big_va + LARGE_PAGE_SIZE) if shift >= 0
                     else (big_va - LARGE_PAGE_SIZE, big_va - shift))
        new, new_log = _logged_session(hv, kernel)
        old, old_log = _logged_session(hv, kernel)
        got = list(mapped_pages(new.read_pa, new.cr3, *arena))
        assert got == list(oracle_mapped_pages(old, arena))
        assert got and new_log.log == old_log.log
        assert new.stats == old.stats

    def test_carve_interleaves_reads_as_before(self, catalog, monkeypatch):
        hv, kernel, big_va = _guest(catalog)
        arena = (DRIVER_AREA_BASE, big_va + LARGE_PAGE_SIZE)

        def carve(session):
            reads = []
            session.read_pa = lambda pa, n: (reads.append(("pa", pa, n)),
                                             VMIInstance.read_pa(
                                                 session, pa, n))[1]
            session.read_va = lambda va, n: (reads.append(("va", va, n)),
                                             VMIInstance.read_va(
                                                 session, va, n))[1]
            found = ModuleCarver(session, arena).carve()
            return [(m.base, m.image) for m in found], reads

        new = carve(VMIInstance(hv, "Dom1", OSProfile.from_guest(kernel)))
        monkeypatch.setattr(
            carver_mod, "mapped_pages",
            lambda read, cr3, start, end: oracle_mapped_pages(
                types.SimpleNamespace(read_pa=read, cr3=cr3), (start, end)))
        old = carve(VMIInstance(hv, "Dom1", OSProfile.from_guest(kernel)))
        assert new == old
        assert big_va in [base for base, _ in new[0]]
