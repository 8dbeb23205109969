"""Unit tests for the guest PE module loader."""

import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.errors import ModuleLoadError
from repro.mem.address_space import KernelAddressSpace
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.guest.ldr import ListEntry
from repro.guest.loader import ModuleLoader
from repro.pe import build_driver, map_file_to_memory
from repro.pe.builder import ImportSpec


def _fresh_loader(seed=1):
    aspace = KernelAddressSpace(PhysicalMemory(4096 * PAGE_SIZE), seed=seed)
    head = aspace.alloc_fixed(0x1000, "globals")
    aspace.write(head, ListEntry(head, head).pack())
    return aspace, ModuleLoader(aspace, head)


@pytest.fixture
def standalone():
    """A driver with no imports, loadable on an empty kernel."""
    return build_driver("solo.sys", seed=3, n_functions=5, imports=())


class TestLoading:
    def test_load_returns_consistent_record(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        assert mod.name == "solo.sys"
        assert mod.size_of_image == standalone.size_of_image
        assert mod.base % PAGE_SIZE == 0

    def test_image_written_to_guest_memory(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        image = aspace.read(mod.base, mod.size_of_image)
        assert image[:2] == b"MZ"

    def test_relocations_applied(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        image = aspace.read(mod.base, mod.size_of_image)
        delta = mod.base - standalone.image_base
        for rva in standalone.fixup_rvas:
            got = struct.unpack_from("<I", image, rva)[0]
            pristine = struct.unpack_from(
                "<I", map_file_to_memory(standalone.file_bytes), rva)[0]
            assert got == (pristine + delta) & 0xFFFFFFFF

    def test_non_fixup_bytes_untouched(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        image = bytearray(aspace.read(mod.base, mod.size_of_image))
        pristine = map_file_to_memory(standalone.file_bytes)
        # zero out the fixup slots on both sides, then require equality
        for rva in standalone.fixup_rvas:
            image[rva:rva + 4] = b"\x00" * 4
            pristine[rva:rva + 4] = b"\x00" * 4
        # import resolution also writes the IAT slots
        for _dll, _sym, rva in standalone.iat_slots:
            image[rva:rva + 4] = b"\x00" * 4
            pristine[rva:rva + 4] = b"\x00" * 4
        assert bytes(image) == bytes(pristine)

    def test_entry_point_relocated(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        assert mod.entry_point == mod.base + \
            standalone.optional_header.address_of_entry_point

    def test_ldr_entry_linked_and_readable(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        head = ListEntry.unpack(aspace.read(loader.head_va, 8))
        assert head.flink == mod.ldr_entry_va

    def test_exports_registered(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        assert ("solo.sys", "DriverEntry") in loader.export_table
        assert loader.export_table[("solo.sys", "DriverEntry")] == \
            mod.exports["DriverEntry"]

    def test_unload_unlinks_and_unregisters(self, standalone):
        aspace, loader = _fresh_loader()
        mod = loader.load(standalone)
        loader.unload(mod)
        head = ListEntry.unpack(aspace.read(loader.head_va, 8))
        assert head.flink == loader.head_va
        assert not any(k[0] == "solo.sys" for k in loader.export_table)


class TestImports:
    def test_import_resolution_against_exporter(self):
        aspace, loader = _fresh_loader()
        exporter = build_driver("exp.sys", seed=4, n_functions=3, imports=())
        consumer = build_driver(
            "use.sys", seed=5, n_functions=3,
            imports=(ImportSpec("exp.sys", ("DriverEntry", "fn_001")),))
        exp_mod = loader.load(exporter)
        use_mod = loader.load(consumer)
        image = aspace.read(use_mod.base, use_mod.size_of_image)
        for dll, sym, rva in consumer.iat_slots:
            got = struct.unpack_from("<I", image, rva)[0]
            assert got == exp_mod.exports[sym]

    def test_missing_exporter_fails(self):
        _, loader = _fresh_loader()
        consumer = build_driver(
            "use.sys", seed=5,
            imports=(ImportSpec("ghost.sys", ("Nope",)),))
        with pytest.raises(ModuleLoadError, match="exporter not loaded"):
            loader.load(consumer)

    def test_unknown_symbol_maps_deterministically(self):
        results = []
        for run in range(2):
            aspace, loader = _fresh_loader(seed=7)
            exporter = build_driver("exp.sys", seed=4, n_functions=3,
                                    imports=())
            consumer = build_driver(
                "use.sys", seed=5,
                imports=(ImportSpec("exp.sys", ("NotARealExport",)),))
            loader.load(exporter)
            mod = loader.load(consumer)
            image = aspace.read(mod.base, mod.size_of_image)
            rva = consumer.iat_slots[0][2]
            results.append(struct.unpack_from("<I", image, rva)[0])
        assert results[0] == results[1]


class TestCrossVMBehaviour:
    def test_same_module_two_kernels_differs_only_at_reloc_sites(self):
        """The precondition for Algorithm 2, from the loader's side."""
        bp = build_driver("pair.sys", seed=8, imports=())
        images, bases = [], []
        for seed in (1, 2):
            aspace, loader = _fresh_loader(seed=seed)
            mod = loader.load(bp)
            images.append(aspace.read(mod.base, mod.size_of_image))
            bases.append(mod.base)
        assert bases[0] != bases[1]
        fixups = set(bp.fixup_rvas)
        iat = {rva for _d, _s, rva in bp.iat_slots}
        allowed = set()
        for site in fixups | iat:
            allowed.update(range(site, site + 4))
        diffs = {i for i, (a, b) in enumerate(zip(*images)) if a != b}
        assert diffs, "different bases must produce differing bytes"
        assert diffs <= allowed, sorted(diffs - allowed)[:8]


_HASH_SEED_PROBE = """
import hashlib
from repro.guest import GuestKernel, build_catalog
kernel = GuestKernel("Dom1", seed=1)
kernel.boot(build_catalog(seed=42))
for name, mod in kernel.modules.items():
    image = kernel.aspace.read(mod.base, mod.size_of_image)
    print(name, hashlib.sha256(image).hexdigest())
"""


class TestHashSeedIndependence:
    def test_module_images_independent_of_hash_seed(self):
        """Import fallbacks pick by CRC-32, not ``hash``: the booted
        images (IATs included) are the same bytes in every process."""
        root = Path(__file__).resolve().parents[2]
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [str(root / "src"),
                            os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                                 capture_output=True, text=True, env=env,
                                 cwd=root, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 10

    def test_unknown_symbol_picks_by_crc32(self):
        exporter = build_driver("exp.sys", seed=4, n_functions=6,
                                imports=())
        _, loader = _fresh_loader()
        mod = loader.load(exporter)
        symbols = loader.dll_symbols["exp.sys"]
        assert symbols == list(mod.exports)
        pick = symbols[zlib.crc32(b"Missing") % len(symbols)]
        assert loader._resolve_import("EXP.SYS", "Missing", "imp.sys") \
            == mod.exports[pick]
