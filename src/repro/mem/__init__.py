"""Guest memory substrate: physical frames, x86 paging, kernel VA space."""

from .address_space import (DRIVER_AREA_BASE, DRIVER_AREA_END, KERNEL_BASE,
                            KernelAddressSpace)
from .paging import AddressTranslator, PageTableBuilder
from .physical import PAGE_SIZE, FrameAllocator, PhysicalMemory
from .regions import Region, RegionMap

__all__ = [
    "DRIVER_AREA_BASE", "DRIVER_AREA_END", "KERNEL_BASE",
    "KernelAddressSpace",
    "AddressTranslator", "PageTableBuilder",
    "PAGE_SIZE", "FrameAllocator", "PhysicalMemory",
    "Region", "RegionMap",
]
