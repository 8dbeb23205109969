"""The guest kernel's PE module loader.

Performs, in order, exactly what the XP loader does to a driver image
and what the paper's introduction describes ("the module loader
replaces [RVAs] with corresponding absolute addresses when it is loaded
into memory"):

1. allocate kernel VA space for ``SizeOfImage`` (base differs per VM);
2. map the file: headers + each section at its ``VirtualAddress``;
3. apply ``.reloc`` fixups with ``delta = base - ImageBase``;
4. resolve imports, overwriting IAT slots with the exporting module's
   addresses in *this* VM;
5. copy the finished image into guest memory; and
6. allocate and link an ``LDR_DATA_TABLE_ENTRY`` into
   ``PsLoadedModuleList``.

Step 3 is why clean clones of one module differ byte-for-byte across
VMs; step 4 is why the IAT (in ``.rdata``) additionally differs by the
*exporter's* base — which ModChecker tolerates by hashing only headers
and executable sections.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from ..errors import ModuleLoadError
from ..mem.address_space import KernelAddressSpace
from ..pe.builder import DriverBlueprint
from ..pe.constants import DIR_BASERELOC, DIR_EXPORT, DIR_IMPORT
from ..pe.exports import parse_exports
from ..pe.imports import parse_imports
from ..pe.parser import PEImage, map_file_to_memory
from ..pe.relocations import apply_relocations, parse_reloc_section
from .ldr import (XP_SP2_LAYOUT, LdrDataTableEntry, LdrLayout, ListEntry,
                  link_tail, unlink)
from .unicode_string import UnicodeString

__all__ = ["LoadedModule", "ModuleLoader"]


@dataclass
class LoadedModule:
    """Guest-side record of one loaded module."""

    name: str
    base: int
    size_of_image: int
    entry_point: int
    ldr_entry_va: int
    exports: dict[str, int]      # symbol -> VA in this guest


class ModuleLoader:
    """Loads :class:`DriverBlueprint` images into one guest kernel."""

    def __init__(self, address_space: KernelAddressSpace,
                 ps_loaded_module_list_va: int,
                 layout: LdrLayout = XP_SP2_LAYOUT) -> None:
        self.aspace = address_space
        self.head_va = ps_loaded_module_list_va
        self.layout = layout
        #: (dll name lowercased, symbol) -> VA; fed by loaded modules.
        self.export_table: dict[tuple[str, str], int] = {}
        #: dll name lowercased -> its exported symbols, in the order
        #: they entered :attr:`export_table` (the fallback pick's list)
        self.dll_symbols: dict[str, list[str]] = {}

    # -- export bookkeeping -----------------------------------------------------

    def _register_exports(self, name: str, image: bytes,
                          base: int) -> dict[str, int]:
        """Register exports by parsing the image's export directory.

        The directory tables hold RVAs (never rebased), so the same
        symbol resolves to the same RVA in every VM — resolved
        addresses differ between VMs only by the exporter's base.
        Images without an export directory export nothing, as on
        Windows.
        """
        pe = PEImage(bytes(image))
        exp_dir = pe.optional_header.data_directories[DIR_EXPORT]
        exports: dict[str, int] = {}
        if exp_dir.size:
            dll_name, by_name = parse_exports(bytes(image),
                                              exp_dir.virtual_address,
                                              exp_dir.size)
            if dll_name.lower() != name.lower():
                raise ModuleLoadError(
                    f"{name}: export directory names {dll_name!r}")
            dll = name.lower()
            symbols = self.dll_symbols.setdefault(dll, [])
            for symbol, rva in by_name.items():
                exports[symbol] = base + rva
                if (dll, symbol) not in self.export_table:
                    symbols.append(symbol)
                self.export_table[(dll, symbol)] = base + rva
        return exports

    def _resolve_import(self, dll: str, symbol: str,
                        importer_name: str) -> int:
        """Resolve ``dll!symbol`` against already-loaded exporters.

        Unknown symbols map deterministically onto one of the
        exporter's functions, mimicking ordinal resolution: the pick is
        a CRC-32 of the symbol name, so it is the same in every VM and
        every process (``hash`` of a str changes with
        ``PYTHONHASHSEED``). A missing exporter is a load error, as on
        Windows.
        """
        key = (dll.lower(), symbol)
        if key in self.export_table:
            return self.export_table[key]
        candidates = self.dll_symbols.get(key[0])
        if not candidates:
            raise ModuleLoadError(
                f"{importer_name}: import {dll}!{symbol} — "
                f"exporter not loaded")
        pick = candidates[zlib.crc32(symbol.encode()) % len(candidates)]
        return self.export_table[(key[0], pick)]

    # -- loading -----------------------------------------------------------------

    def load(self, blueprint: DriverBlueprint, *,
             resolve_imports: bool = True) -> LoadedModule:
        """Load a built driver (everything still parsed from its bytes)."""
        return self.load_bytes(blueprint.name, blueprint.file_bytes,
                               resolve_imports=resolve_imports)

    def load_bytes(self, name: str, file_bytes: bytes, *,
                   resolve_imports: bool = True) -> LoadedModule:
        """Load a driver from raw file bytes — the real loader's input.

        Relocations, the export directory and the import table are all
        parsed out of the image itself; no build-time metadata crosses
        into the guest.
        """
        image = map_file_to_memory(file_bytes)
        pe = PEImage(bytes(image))

        base = self.aspace.alloc_driver_image(len(image), name)
        delta = (base - pe.optional_header.image_base) & 0xFFFFFFFF

        reloc_dir = pe.optional_header.data_directories[DIR_BASERELOC]
        if reloc_dir.size:
            raw = image[reloc_dir.virtual_address:
                        reloc_dir.virtual_address + reloc_dir.size]
            fixups = parse_reloc_section(bytes(raw))
            apply_relocations(image, fixups, delta)
        elif delta:
            raise ModuleLoadError(
                f"{name}: needs rebasing but has no .reloc")

        if resolve_imports:
            imp_dir = pe.optional_header.data_directories[DIR_IMPORT]
            for imp in parse_imports(bytes(image), imp_dir.virtual_address,
                                     imp_dir.size):
                va = self._resolve_import(imp.dll, imp.symbol, name)
                image[imp.iat_slot_rva:imp.iat_slot_rva + 4] = \
                    struct.pack("<I", va)

        self.aspace.write(base, bytes(image))
        exports = self._register_exports(name, image, base)

        entry_point = base + pe.optional_header.address_of_entry_point
        ldr_va = self._install_ldr_entry(name, base, len(image),
                                         entry_point)
        return LoadedModule(name, base, len(image), entry_point,
                            ldr_va, exports)

    def _install_ldr_entry(self, name: str, base: int, size: int,
                           entry_point: int) -> int:
        full_name = f"\\SystemRoot\\System32\\drivers\\{name}"
        # One pool allocation holding the entry followed by both name
        # payloads, like the kernel's single ExAllocatePool for the node.
        base_hdr_stub = UnicodeString.for_text(name, 0)[1]
        full_hdr_stub = UnicodeString.for_text(full_name, 0)[1]
        total = (self.layout.entry_size + len(full_hdr_stub)
                 + len(base_hdr_stub))
        node_va = self.aspace.alloc_fixed(total, f"ldr:{name}")
        full_buf_va = node_va + self.layout.entry_size
        base_buf_va = full_buf_va + len(full_hdr_stub)

        full_us, full_payload = UnicodeString.for_text(full_name, full_buf_va)
        base_us, base_payload = UnicodeString.for_text(name, base_buf_va)

        entry = LdrDataTableEntry(
            in_load_order=ListEntry(0, 0),
            in_memory_order=ListEntry(0, 0),
            in_init_order=ListEntry(0, 0),
            dll_base=base, entry_point=entry_point, size_of_image=size,
            full_dll_name=full_us, base_dll_name=base_us)
        self.aspace.write(node_va, entry.pack(self.layout))
        self.aspace.write(full_buf_va, full_payload)
        self.aspace.write(base_buf_va, base_payload)
        link_tail(self.aspace.write, self.aspace.read, self.head_va, node_va)
        return node_va

    def unload(self, module: LoadedModule) -> None:
        """Unlink the module's LDR entry (image pages are left mapped,
        matching how the pool block may linger — ModChecker only trusts
        the list)."""
        unlink(self.aspace.write, self.aspace.read, module.ldr_entry_va)
        for key in [k for k, v in self.export_table.items()
                    if k[0] == module.name.lower()]:
            del self.export_table[key]
