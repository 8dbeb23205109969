"""Module-Parser — headers and executable content extraction.

Implements the paper's Algorithm 1 on a copied module image: verify the
DOS magic, chase ``e_lfanew`` to the NT headers, read
``NumberOfSections`` section headers, and slice out each section's data
— keeping, per §III-B2, the headers and the *executable* section data
for the Integrity-Checker.

Runs entirely in Dom0 on the local buffer; its (small) CPU cost is
charged per byte through the optional ``charge`` hook, which is how the
Module-Parser series of Figs. 7/8 is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs import NULL_OBS, Observability
from ..pe.parser import PEImage, Region
from ..perf.costmodel import DEFAULT_COST_MODEL
from .searcher import ModuleCopy

__all__ = ["ParsedModule", "ModuleParser"]


def _no_charge(_seconds: float) -> None:
    """Default charge hook: free parsing (unit tests, offline use)."""


@dataclass
class ParsedModule:
    """Parser output: named regions of one VM's module copy."""

    vm_name: str
    module_name: str
    base: int
    image: bytes
    header_regions: list[Region] = field(default_factory=list)
    code_regions: list[Region] = field(default_factory=list)

    def region_bytes(self, region: Region) -> bytes:
        return region.slice(self.image)

    def all_regions(self) -> list[Region]:
        return self.header_regions + self.code_regions

    def region_names(self) -> list[str]:
        return [r.name for r in self.all_regions()]


class ModuleParser:
    """Parses :class:`ModuleCopy` buffers into hashable regions."""

    def __init__(self, *, charge: Callable[[float], None] | None = None,
                 obs: Observability = NULL_OBS) -> None:
        self.costs = DEFAULT_COST_MODEL
        self._charge = charge or _no_charge
        self.obs = obs

    def parse(self, copy: ModuleCopy) -> ParsedModule:
        """Algorithm 1: extract headers and executable section data."""
        with self.obs.tracer.span("parser.parse", vm=copy.vm_name,
                                  module=copy.module_name) as span:
            pe = PEImage(copy.image)
            parsed = ParsedModule(
                vm_name=copy.vm_name, module_name=copy.module_name,
                base=copy.base, image=copy.image,
                header_regions=pe.header_regions(),
                code_regions=pe.code_regions())
            # Cost: one pass over headers + the extracted section data.
            touched = sum(r.size for r in parsed.all_regions())
            self._charge(touched * self.costs.parse_per_byte)
            span.set(bytes=touched,
                     regions=len(parsed.all_regions()))
        return parsed
