"""Differential test: the numpy Algorithm 2 kernel against per-byte oracles.

:func:`repro.core.rva.adjust_rva_robust` and the forensic diff both run
on :func:`repro.core.rva.scan_slots`. Every case here runs the scalar
loops of :mod:`tests.core.rva_oracle` on the same input and asserts
identical adjusted bytes, identical ``replaced``/``unresolved``/
``windows`` counters and identical forensic hunks (order, offsets,
bytes, RVAs and per-kind overflow counts).
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.attacks import EXPERIMENTS, attack_for_experiment
from repro.core.parser import ModuleParser
from repro.core.rva import adjust_rva_robust, scan_slots
from repro.core.searcher import ModuleCopy
from repro.forensics.diff import _diff_relocatable, _HunkSink
from repro.guest import STANDARD_CATALOG, build_catalog
from repro.pe import constants as C
from repro.pe.parser import PEImage, map_file_to_memory
from repro.pe.relocations import apply_relocations, parse_reloc_section
from tests.core.rva_oracle import (oracle_adjust_rva_robust,
                                   oracle_diff_relocatable)

#: base pairs by how many low bytes they share (little-endian order)
BASES = {
    "page-aligned": (0xF7010000, 0xF70B5000),
    "share-1": (0x12345678, 0x12349978),
    "share-2": (0x12345678, 0x12AB5678),
    "share-3": (0x12345678, 0x9A345678),
    "byte0-only": (0x12345678, 0x12345699),
    "equal": (0x12345678, 0x12345678),
}


def assert_identical(d1: bytes, b1: int, d2: bytes, b2: int,
                     max_rva: int | None = None):
    """Kernel == oracle for the adjuster and the forensic diff."""
    want = oracle_adjust_rva_robust(d1, b1, d2, b2, max_rva=max_rva)
    got = adjust_rva_robust(d1, b1, d2, b2, max_rva=max_rva)
    assert got == want
    limit = max_rva if max_rva is not None else max(len(d1) * 16, 1 << 20)
    for cap in (1, 64):                 # 1 exercises the sinks' overflow
        sink_want, sink_got = _HunkSink(cap), _HunkSink(cap)
        stats_want = oracle_diff_relocatable("r", d1, b1, d2, b2, limit,
                                             sink_want)
        stats_got = _diff_relocatable("r", d1, b1, d2, b2, limit, sink_got)
        assert stats_got == stats_want
        assert sink_got.hunks == sink_want.hunks
        assert (sink_got.dropped, sink_got.dropped_relocations) == \
            (sink_want.dropped, sink_want.dropped_relocations)
    if b1 != b2:
        assert stats_got == got[2]
    return got[2]


def relocated(bases: tuple[int, int], slots: list[tuple[int, int]],
              size: int, rng: random.Random, filler: int | None = None,
              ) -> tuple[bytearray, bytearray]:
    """Two copies of one section with ``(offset, rva)`` slots rebased."""
    canonical = (bytearray([filler]) * size if filler is not None
                 else bytearray(rng.randbytes(size)))
    c1, c2 = bytearray(canonical), bytearray(canonical)
    for off, rva in slots:
        struct.pack_into("<I", c1, off, (rva + bases[0]) & 0xFFFFFFFF)
        struct.pack_into("<I", c2, off, (rva + bases[1]) & 0xFFFFFFFF)
    return c1, c2


def sparse_slots(rng: random.Random, size: int) -> list[tuple[int, int]]:
    slots, off = [], rng.randrange(8)
    while off + 4 <= size:
        slots.append((off, rng.randrange(0x10000)))
        off += rng.randrange(8, 64)
    return slots


def packed_slots(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Address tables: runs of slots at stride 4, like an IAT."""
    slots, off = [], rng.randrange(4)
    while off + 4 <= size:
        for _ in range(rng.randrange(2, 12)):
            if off + 4 > size:
                break
            slots.append((off, rng.randrange(0x10000)))
            off += 4
        off += rng.randrange(1, 24)
    return slots


LAYOUTS = {"sparse": sparse_slots, "packed": packed_slots}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("bases", sorted(BASES))
class TestLayouts:
    def test_clean(self, bases, layout):
        rng = random.Random(f"clean-{bases}-{layout}")
        for _ in range(10):
            slots = LAYOUTS[layout](rng, 512)
            c1, c2 = relocated(BASES[bases], slots, 512, rng)
            stats = assert_identical(bytes(c1), BASES[bases][0],
                                     bytes(c2), BASES[bases][1])
            if bases == "page-aligned":
                assert stats.unresolved == 0

    def test_tamper_inside_slot(self, bases, layout):
        rng = random.Random(f"inside-{bases}-{layout}")
        for _ in range(10):
            slots = LAYOUTS[layout](rng, 512)
            c1, c2 = relocated(BASES[bases], slots, 512, rng)
            for off, _ in rng.sample(slots, min(3, len(slots))):
                c1[off + rng.randrange(4)] ^= 1 << rng.randrange(8)
            assert_identical(bytes(c1), BASES[bases][0], bytes(c2),
                             BASES[bases][1])

    def test_tamper_adjacent_to_slot(self, bases, layout):
        rng = random.Random(f"adjacent-{bases}-{layout}")
        for _ in range(10):
            slots = LAYOUTS[layout](rng, 512)
            c1, c2 = relocated(BASES[bases], slots, 512, rng, filler=0x90)
            for off, _ in rng.sample(slots, min(3, len(slots))):
                at = off - 1 if off and rng.random() < 0.5 else off + 4
                if at < len(c2):
                    c2[at] = rng.randrange(256)
            assert_identical(bytes(c1), BASES[bases][0], bytes(c2),
                             BASES[bases][1])


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_sections_shorter_than_a_slot(size):
    rng = random.Random(size)
    for _ in range(20):
        c1 = rng.randbytes(size)
        c2 = bytes(b ^ rng.choice((0, 0xFF)) for b in c1)
        for b1, b2 in BASES.values():
            assert_identical(c1, b1, c2, b2)


@pytest.mark.parametrize("bases", sorted(BASES))
def test_differences_in_last_three_bytes(bases):
    rng = random.Random(f"tail-{bases}")
    for size in (4, 5, 8, 64):
        for tail in (1, 2, 3):
            c1, c2 = relocated(BASES[bases], [(size - 4, 0x123)], size, rng)
            c2[size - tail] ^= 0x5A
            assert_identical(bytes(c1), BASES[bases][0], bytes(c2),
                             BASES[bases][1])


@pytest.mark.parametrize("max_rva", [0x4FF, 0x500, 0x501, 1 << 32,
                                     (1 << 40) + 3])
def test_max_rva_boundaries(max_rva):
    """RVA 0x500 is rejected at ``max_rva`` 0x4FF and 0x500 (strict
    bound), accepted above; bounds of 2**32 and up accept every RVA."""
    rng = random.Random(max_rva)
    for bases in BASES.values():
        c1, c2 = relocated(bases, [(8, 0x500), (12, 0x500), (40, 0x500)],
                           64, rng)
        stats = assert_identical(bytes(c1), bases[0], bytes(c2), bases[1],
                                 max_rva=max_rva)
        if bases == BASES["page-aligned"]:
            assert stats.replaced == (3 if max_rva > 0x500 else 0)


def test_rewritten_slot_bytes_are_retested():
    """Bases that differ only in byte 3: after slot 4 is rewritten to its
    RVA, the window at byte 8 accepts start 5 — on the *rewritten*
    bytes 5..7 plus byte 8. On the original bytes start 5 fails."""
    b1, b2 = 0x10000000, 0x20000000
    c1, c2 = bytearray(12), bytearray(12)
    struct.pack_into("<I", c1, 4, b1 + 0x1234)
    struct.pack_into("<I", c2, 4, b2 + 0x1234)
    c1[8], c2[8] = 0x11, 0x21
    stats = assert_identical(bytes(c1), b1, bytes(c2), b2, max_rva=1 << 32)
    assert (stats.replaced, stats.unresolved, stats.windows) == (2, 0, 2)
    scan = scan_slots(bytes(c1), b1, bytes(c2), b2, 1 << 32)
    assert scan.start.tolist() == [4, 5]
    assert scan.rva.tolist() == [0x1234, 0x01000012]


def test_seeded_fuzz():
    """Random sections mixing every layout, base shape and tamper kind."""
    rng = random.Random(2012)
    for _ in range(1500):
        size = rng.choice([4, 5, 7, 8, 16, 33, 64, 200])
        if rng.random() < 0.3:
            bases = rng.choice(list(BASES.values()))
        else:
            bases = (rng.randrange(1 << 32), rng.randrange(1 << 32))
        slots = rng.choice(list(LAYOUTS.values()))(rng, size)
        rvas = [(off, rng.choice([rng.randrange(0x1000),
                                  rng.randrange(1 << 32)]))
                for off, _ in slots]
        c1, c2 = relocated(bases, rvas, size, rng,
                           filler=rng.choice([None, 0, 0x90]))
        for _ in range(rng.choice([0, 0, 1, 3])):
            rng.choice((c1, c2))[rng.randrange(size)] = rng.randrange(256)
        max_rva = rng.choice([None, 0, 0x1000, 1 << 32,
                              rng.randrange(1 << 32)])
        assert_identical(bytes(c1), bases[0], bytes(c2), bases[1],
                         max_rva=max_rva)


def test_seeded_fuzz_overlapping_slots():
    """Dense slots at strides of 1-10 bytes, bases that share 0-3 low
    bytes and bounds up to 2**32: the inputs where a window re-tests a
    previous slot's rewritten bytes and slots may overlap."""
    rng = random.Random(42)
    for _ in range(4000):
        size = rng.randrange(40)
        b1 = rng.randrange(1 << 32)
        b2 = (b1 + rng.randrange(1, 256) * (1 << 8 * rng.randrange(4))) \
            & 0xFFFFFFFF
        c1 = bytearray(rng.randbytes(size) if rng.random() < 0.5
                       else bytes(size))
        c2 = bytearray(c1)
        off = rng.randrange(7)
        while off + 4 <= size:
            rva = rng.randrange(1 << 32)
            struct.pack_into("<I", c1, off, (rva + b1) & 0xFFFFFFFF)
            struct.pack_into("<I", c2, off, (rva + b2) & 0xFFFFFFFF)
            off += rng.randrange(1, 11)
        for _ in range(rng.choice([0, 1, 2])):
            if size:
                c2[rng.randrange(size)] ^= 1 << rng.randrange(8)
        max_rva = rng.choice([None, 1 << 31, 1 << 32,
                              rng.randrange(1 << 32)])
        assert_identical(bytes(c1), b1, bytes(c2), b2, max_rva=max_rva)


# -- the driver catalog ------------------------------------------------------

@pytest.fixture(scope="module")
def catalog():
    return build_catalog(seed=42)


def _load(blueprint, base: int):
    """Map and rebase a driver like the guest loader; parse its regions."""
    image = map_file_to_memory(blueprint.file_bytes)
    pe = PEImage(bytes(image))
    reloc = pe.optional_header.data_directories[C.DIR_BASERELOC]
    fixups = parse_reloc_section(bytes(
        image[reloc.virtual_address:reloc.virtual_address + reloc.size]))
    apply_relocations(image, fixups,
                      (base - pe.optional_header.image_base) & 0xFFFFFFFF)
    return ModuleParser().parse(ModuleCopy("vm", blueprint.name, base,
                                           bytes(image), 0))


@pytest.mark.parametrize("variant", ["clean"] + sorted(EXPERIMENTS))
@pytest.mark.parametrize("module", sorted(s.name for s in STANDARD_CATALOG))
def test_catalog_module(catalog, module, variant):
    """Every catalog driver at two random page-aligned bases, clean and
    with each experiment's attack applied to the suspect copy."""
    rng = random.Random(f"{module}-{variant}")
    reference = catalog[module]
    suspect = reference
    if variant != "clean":
        attack, _ = attack_for_experiment(variant)
        suspect = attack.apply(reference).infected
    mod_s = _load(suspect, 0x80000000 + rng.randrange(0x7FFF) * 0x1000)
    mod_r = _load(reference, 0x80000000 + rng.randrange(0x7FFF) * 0x1000)
    max_rva = max(len(mod_s.image), len(mod_r.image))
    regions_r = {r.name: r for r in mod_r.code_regions}
    checked = 0
    for region in mod_s.code_regions:
        if region.name not in regions_r:
            continue
        data_s = mod_s.region_bytes(region)
        data_r = mod_r.region_bytes(regions_r[region.name])
        n = min(len(data_s), len(data_r))
        stats = assert_identical(data_s[:n], mod_s.base, data_r[:n],
                                 mod_r.base, max_rva=max_rva)
        if variant == "clean":
            assert stats.unresolved == 0 and stats.replaced > 0
        checked += 1
    assert checked
