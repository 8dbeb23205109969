"""Module carving — finding kernel modules without the module list.

Module-Searcher trusts ``PsLoadedModuleList``, so a rootkit that
unlinks its ``LDR_DATA_TABLE_ENTRY`` (classic DKOM hiding — the paper's
related work calls this out for in-guest tools) becomes invisible to
it even though its image pages stay mapped and executable.

:class:`ModuleCarver` closes that gap the way Volatility's
``modscan``/``driverscan`` do: sweep the kernel driver arena for mapped
pages whose first bytes are a plausible PE header (``MZ`` magic, sane
``e_lfanew``, ``PE\\0\\0`` signature, plausible ``SizeOfImage``),
then extract the image exactly as the searcher would. The sweep is
:func:`repro.mem.paging.mapped_pages` over the session's physical
reads: it walks the guest's page tables *at page-directory
granularity* — one PDE read skips 4 MiB of unmapped space — so
scanning the 48 MiB arena costs a few hundred introspection reads, not
tens of thousands.

Carved modules carry no ``BaseDllName``; :func:`identify_carved`
matches them to named modules from other VMs by their base-independent
header fingerprint (``TimeDateStamp``, ``SizeOfImage``, section names
and sizes) — identical across clones of one installation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import IntrospectionFault, PEFormatError
from ..mem.address_space import DRIVER_AREA_BASE, DRIVER_AREA_END
from ..mem.paging import mapped_pages
from ..mem.physical import PAGE_SIZE
from ..pe.parser import PEImage
from ..vmi.core import VMIInstance
from .parser import ParsedModule
from .searcher import MAX_IMAGE_BYTES, ModuleCopy

__all__ = ["CarvedModule", "ModuleCarver", "module_fingerprint",
           "identify_carved"]

@dataclass(frozen=True)
class CarvedModule:
    """A PE image found by carving, with no list entry to name it."""

    vm_name: str
    base: int
    image: bytes

    @property
    def size_of_image(self) -> int:
        return len(self.image)

    def as_module_copy(self, name: str) -> ModuleCopy:
        """Promote to a ModuleCopy once identified."""
        return ModuleCopy(self.vm_name, name, self.base, self.image, 0)


def module_fingerprint(image: bytes) -> tuple:
    """Base-independent identity of a module image.

    Clones of one installation share link timestamp, image size and
    section geometry; relocation only rewrites code bytes, never these.
    """
    pe = PEImage(image)
    return (pe.file_header.time_date_stamp,
            pe.optional_header.size_of_image,
            tuple((s.name, s.virtual_size, s.characteristics)
                  for s in pe.sections))


class ModuleCarver:
    """Signature-scans one guest's driver arena for module images."""

    def __init__(self, vmi: VMIInstance,
                 arena: tuple[int, int] = (DRIVER_AREA_BASE,
                                           DRIVER_AREA_END)) -> None:
        self.vmi = vmi
        self.arena = arena

    # -- candidate validation -----------------------------------------------------

    def _probe_header(self, page_va: int) -> int | None:
        """Return SizeOfImage if the page starts a plausible PE image."""
        head = self.vmi.read_va(page_va, 0x40)
        if head[:2] != b"MZ":
            return None
        e_lfanew = struct.unpack_from("<I", head, 0x3C)[0]
        if not 0x40 <= e_lfanew <= PAGE_SIZE - 0xF8:
            return None
        nt = self.vmi.read_va(page_va + e_lfanew, 0x60)
        if nt[:4] != b"PE\x00\x00":
            return None
        # SizeOfImage lives at optional header offset 56.
        size_of_image = struct.unpack_from("<I", nt, 4 + 20 + 56)[0]
        if not 0 < size_of_image <= MAX_IMAGE_BYTES:
            return None
        return size_of_image

    def carve(self) -> list[CarvedModule]:
        """Find every module image mapped in the arena."""
        found: list[CarvedModule] = []
        skip_until = -1
        for page_va in mapped_pages(self.vmi.read_pa, self.vmi.cr3,
                                    *self.arena):
            if page_va < skip_until:
                continue          # interior page of a carved image
            size = self._probe_header(page_va)
            if size is None:
                continue
            try:
                image = self.vmi.read_va(page_va, size)
                PEImage(image)    # full structural validation
            except (PEFormatError, IntrospectionFault):
                continue          # false hit or partially unmapped tail
            found.append(CarvedModule(self.vmi.domain.name, page_va, image))
            skip_until = page_va + size
        return found

    def find_hidden(self, listed_bases: set[int]) -> list[CarvedModule]:
        """Carved images whose base is absent from the module list —
        the DKOM-hiding signal."""
        return [m for m in self.carve() if m.base not in listed_bases]


def identify_carved(carved: CarvedModule,
                    named: dict[str, ParsedModule | ModuleCopy | bytes],
                    ) -> str | None:
    """Match a carved image against named module images from other VMs.

    ``named`` maps module name → a ParsedModule/ModuleCopy/image whose
    fingerprint to compare. Returns the matching name or None.
    """
    fp = module_fingerprint(carved.image)
    for name, other in named.items():
        image = other if isinstance(other, (bytes, bytearray)) \
            else other.image
        if module_fingerprint(bytes(image)) == fp:
            return name
    return None
