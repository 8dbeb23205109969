"""Seeded property-based round-trip suite: parse(build(x)) == x.

Each case draws builder parameters from a ``random.Random(seed)``
stream (stdlib only — no extra dependencies): function count and size
(which drive ``.text`` size and relocation density), data-section
size, import-table width and the load base. For every generated
driver we assert:

* the parsed memory image preserves the built layout — section names,
  RVAs, virtual sizes and characteristics survive the build ->
  file -> memory-map -> parse round trip;
* the relocation section round-trips (``parse(build(fixups))`` is the
  original, sorted and deduplicated);
* **base independence** — load the same file at two different bases
  (applying relocations exactly like the guest loader), RVA-normalise
  the pair, and the two adjusted buffers are byte-identical with zero
  unresolved differences. This is the property the whole cross-VM
  comparison (and the incremental pipeline's pair replay) rests on.
"""

import random

import pytest

from repro.core.rva import adjust_rva_robust
from repro.pe import constants as C
from repro.pe.builder import ImportSpec, build_driver
from repro.pe.parser import PEImage, map_file_to_memory
from repro.pe.relocations import (apply_relocations, build_reloc_section,
                                  parse_reloc_section)
from tests.core.rva_oracle import oracle_adjust_rva_robust

_IMPORT_POOL = (
    ImportSpec("ntoskrnl.exe", ("ExAllocatePoolWithTag",
                                "ExFreePoolWithTag", "KeBugCheckEx")),
    ImportSpec("hal.dll", ("KfAcquireSpinLock", "KfReleaseSpinLock")),
    ImportSpec("ndis.sys", ("NdisAllocateMemoryWithTag",)),
)

SEEDS = range(10)


def _draw_params(seed: int) -> dict:
    """One deterministic parameter draw per seed (stdlib RNG only)."""
    rng = random.Random(seed)
    return dict(
        seed=rng.randrange(1 << 16),
        n_functions=rng.randint(2, 24),               # reloc density knob
        avg_function_size=rng.randint(48, 320),
        data_size=rng.choice([0x100, 0x400, 0x800, 0x1800]),
        image_base=rng.randrange(0x0001_0000, 0x1000_0000, 0x1_0000),
        imports=tuple(_IMPORT_POOL[:rng.randint(1, len(_IMPORT_POOL))]),
    )


def _load_at(blueprint, base: int) -> bytes:
    """Map the file and relocate it to ``base``, like the guest loader."""
    image = map_file_to_memory(blueprint.file_bytes)
    fixups = parse_reloc_section(
        bytes(image[blueprint.section(".reloc").virtual_address:
                    blueprint.section(".reloc").virtual_address
                    + blueprint.section(".reloc").virtual_size]))
    apply_relocations(image, fixups, base - blueprint.image_base)
    return bytes(image)


@pytest.fixture(scope="module", params=SEEDS)
def case(request):
    params = _draw_params(request.param)
    return params, build_driver(f"case{request.param}.sys", **params)


class TestLayoutRoundTrip:
    def test_sections_preserved(self, case):
        _, bp = case
        parsed = PEImage(bytes(map_file_to_memory(bp.file_bytes)))
        assert [s.name for s in parsed.sections] == \
            [s.name for s in bp.sections]
        for built, seen in zip(bp.sections, parsed.sections):
            assert seen.virtual_address == built.virtual_address
            assert seen.virtual_size == built.virtual_size
            assert seen.characteristics == built.characteristics

    def test_alignment_invariants(self, case):
        _, bp = case
        parsed = PEImage(bytes(map_file_to_memory(bp.file_bytes)))
        align = parsed.optional_header.section_alignment
        assert align == C.DEFAULT_SECTION_ALIGNMENT
        for sec in parsed.sections:
            assert sec.virtual_address % align == 0
        assert parsed.optional_header.size_of_image % align == 0

    def test_entry_point_inside_text(self, case):
        _, bp = case
        parsed = PEImage(bytes(map_file_to_memory(bp.file_bytes)))
        text = parsed.section(".text")
        ep = parsed.optional_header.address_of_entry_point
        assert text.virtual_address <= ep \
            < text.virtual_address + text.virtual_size

    def test_section_bytes_survive_mapping(self, case):
        """Raw section data lands at its RVA, truncated/zero-padded to
        the virtual size — the loader contract the searcher relies on."""
        _, bp = case
        image = bytes(map_file_to_memory(bp.file_bytes))
        for sec in bp.sections:
            raw = bp.file_bytes[sec.pointer_to_raw_data:
                                sec.pointer_to_raw_data
                                + sec.size_of_raw_data]
            n = min(sec.virtual_size, sec.size_of_raw_data)
            assert image[sec.virtual_address:
                         sec.virtual_address + n] == raw[:n]


class TestRelocRoundTrip:
    def test_reloc_section_parses_back(self, case):
        params, bp = case
        sec = bp.section(".reloc")
        image = map_file_to_memory(bp.file_bytes)
        fixups = parse_reloc_section(
            bytes(image[sec.virtual_address:
                        sec.virtual_address + sec.virtual_size]))
        assert fixups == sorted(set(fixups))
        assert len(fixups) > 0
        rebuilt = build_reloc_section(fixups)
        assert parse_reloc_section(rebuilt) == fixups

    def test_density_scales_with_function_count(self):
        """More generated functions -> more absolute-address slots."""
        small = build_driver("small.sys", seed=3, n_functions=2)
        large = build_driver("large.sys", seed=3, n_functions=24)

        def n_fixups(bp):
            sec = bp.section(".reloc")
            image = map_file_to_memory(bp.file_bytes)
            return len(parse_reloc_section(
                bytes(image[sec.virtual_address:
                            sec.virtual_address + sec.virtual_size])))
        assert n_fixups(large) > n_fixups(small)


class TestBaseIndependence:
    def test_rva_normalisation_is_byte_identical(self, case):
        params, bp = case
        rng = random.Random(params["seed"] ^ 0x5EED)
        base_a = bp.image_base + rng.randrange(1, 0x200) * 0x1000
        base_b = bp.image_base + rng.randrange(0x200, 0x400) * 0x1000
        img_a, img_b = _load_at(bp, base_a), _load_at(bp, base_b)
        assert img_a != img_b       # relocation really moved slots
        text = bp.section(".text")
        sl = slice(text.virtual_address,
                   text.virtual_address + text.virtual_size)
        out_a, out_b, stats = adjust_rva_robust(
            img_a[sl], base_a, img_b[sl], base_b,
            max_rva=bp.size_of_image)
        assert out_a == out_b
        assert stats.unresolved == 0
        assert stats.replaced > 0

    def test_vectorized_adjuster_agrees(self, case):
        """The vectorised ``adjust_rva_robust`` reproduces the per-byte
        oracle on a real relocated .text section."""
        params, bp = case
        base_a = bp.image_base + 0x40_0000
        base_b = bp.image_base + 0x73_000 * 0x10
        img_a, img_b = _load_at(bp, base_a), _load_at(bp, base_b)
        text = bp.section(".text")
        sl = slice(text.virtual_address,
                   text.virtual_address + text.virtual_size)
        oracle = oracle_adjust_rva_robust(img_a[sl], base_a, img_b[sl],
                                          base_b, max_rva=bp.size_of_image)
        vector = adjust_rva_robust(img_a[sl], base_a, img_b[sl], base_b,
                                   max_rva=bp.size_of_image)
        assert oracle == vector

    def test_same_base_is_identity(self, case):
        _, bp = case
        image = bytes(map_file_to_memory(bp.file_bytes))
        text = bp.section(".text")
        sl = slice(text.virtual_address,
                   text.virtual_address + text.virtual_size)
        out_a, out_b, stats = adjust_rva_robust(
            image[sl], bp.image_base, image[sl], bp.image_base)
        assert out_a == image[sl] and out_b == image[sl]
        assert stats.windows == 0
