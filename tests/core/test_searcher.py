"""Unit tests for Module-Searcher."""

import struct

import pytest

from repro.errors import (IntrospectionFault, ModuleNotLoadedError,
                          TransientFault)
from repro.core.searcher import ModuleSearcher
from repro.hypervisor import Hypervisor
from repro.hypervisor.faults import FaultConfig, FaultInjector
from repro.vmi import OSProfile, VMIInstance


@pytest.fixture(scope="module")
def env(catalog):
    hv = Hypervisor()
    hv.create_guest("Dom1", catalog, seed=1)
    profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
    return hv, profile, catalog


@pytest.fixture
def searcher(env):
    hv, profile, _ = env
    return ModuleSearcher(VMIInstance(hv, "Dom1", profile))


class TestListWalk:
    def test_lists_all_modules_in_load_order(self, searcher, env):
        _, _, catalog = env
        names = [e.name for e in searcher.list_modules()]
        assert names == list(catalog)

    def test_entries_match_guest_ground_truth(self, searcher, env):
        hv, _, _ = env
        kernel = hv.domain("Dom1").kernel
        for entry in searcher.list_modules():
            truth = kernel.module(entry.name)
            assert entry.dll_base == truth.base
            assert entry.size_of_image == truth.size_of_image
            assert entry.entry_point == truth.entry_point


class TestFind:
    def test_find_by_name(self, searcher):
        entry = searcher.find("http.sys")
        assert entry.name == "http.sys"

    def test_find_case_insensitive(self, searcher):
        assert searcher.find("HAL.DLL").name == "hal.dll"

    def test_missing_module_raises(self, searcher):
        with pytest.raises(ModuleNotLoadedError):
            searcher.find("rootkit.sys")


class TestCopy:
    def test_copy_matches_guest_memory(self, searcher, env):
        hv, _, _ = env
        kernel = hv.domain("Dom1").kernel
        copy = searcher.copy_module("hal.dll")
        assert copy.image == kernel.read_module_image("hal.dll")
        assert copy.vm_name == "Dom1"
        assert copy.base == kernel.module("hal.dll").base

    def test_copy_charges_pages(self, env):
        hv, profile, _ = env
        vmi = VMIInstance(hv, "Dom1", profile)
        vmi.flush_caches()
        before = vmi.stats.pages_mapped
        copy = ModuleSearcher(vmi).copy_module("http.sys")
        pages = (len(copy.image) + 4095) // 4096
        assert vmi.stats.pages_mapped - before >= pages


class TestHostileGuest:
    """A compromised guest controls the list bytes; the searcher must
    not hang or over-copy."""

    def _fresh(self, catalog, seed=77):
        hv = Hypervisor()
        hv.create_guest("Evil", catalog, seed=seed)
        profile = OSProfile.from_guest(hv.domain("Evil").kernel)
        return hv, ModuleSearcher(VMIInstance(hv, "Evil", profile))

    def test_cyclic_list_bounded(self, catalog):
        hv, searcher = self._fresh(catalog)
        kernel = hv.domain("Evil").kernel
        # Make the first node's FLINK point at itself: infinite list.
        head = kernel.symbols["PsLoadedModuleList"]
        first = struct.unpack("<I", kernel.aspace.read(head, 4))[0]
        kernel.aspace.write(first, struct.pack("<I", first))
        with pytest.raises(IntrospectionFault, match="bound"):
            searcher.list_modules()

    def test_null_flink_detected(self, catalog):
        hv, searcher = self._fresh(catalog)
        kernel = hv.domain("Evil").kernel
        head = kernel.symbols["PsLoadedModuleList"]
        first = struct.unpack("<I", kernel.aspace.read(head, 4))[0]
        kernel.aspace.write(first, struct.pack("<I", 0))
        with pytest.raises(IntrospectionFault, match="NULL"):
            searcher.list_modules()

    def test_implausible_size_rejected(self, catalog):
        hv, searcher = self._fresh(catalog)
        kernel = hv.domain("Evil").kernel
        mod = kernel.module("hal.dll")
        from repro.guest.ldr import OFF_SIZEOFIMAGE
        kernel.aspace.write(mod.ldr_entry_va + OFF_SIZEOFIMAGE,
                            struct.pack("<I", 1 << 30))
        with pytest.raises(IntrospectionFault, match="implausible"):
            searcher.copy_module("hal.dll")

    def test_unreadable_name_skips_node(self, catalog):
        hv, searcher = self._fresh(catalog)
        kernel = hv.domain("Evil").kernel
        mod = kernel.module("disk.sys")
        from repro.guest.ldr import OFF_BASEDLLNAME
        # Point the name buffer at unmapped VA.
        kernel.aspace.write(mod.ldr_entry_va + OFF_BASEDLLNAME + 4,
                            struct.pack("<I", 0x6000_0000))
        names = [e.name for e in searcher.list_modules()]
        assert "disk.sys" not in names
        assert "hal.dll" in names           # rest of the walk survives

    def test_hidden_module_not_found(self, catalog):
        """DKOM-style hiding: unlinked modules escape the searcher —
        a known limit of list-walking tools the paper inherits."""
        hv, searcher = self._fresh(catalog)
        kernel = hv.domain("Evil").kernel
        kernel.unload_module("dummy.sys")    # unlink, image stays mapped
        with pytest.raises(ModuleNotLoadedError):
            searcher.find("dummy.sys")


class TestTransientNameFault:
    """A transient fault on a ``BaseDllName`` read must propagate like
    any other walk read: swallowing it would report a short list (the
    module "not loaded") instead of degrading the VM."""

    def _walk(self, catalog, seed):
        hv = Hypervisor()
        hv.create_guest("Dom1", catalog, seed=1)
        profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
        FaultInjector(FaultConfig(transient_rate=0.004), seed=seed) \
            .install(hv)
        vmi = VMIInstance(hv, "Dom1", profile, enable_caches=False)
        return ModuleSearcher(vmi).list_modules()

    def test_faulted_name_read_raises(self, catalog):
        # seed 290's one injected fault lands on hal.dll's name buffer
        with pytest.raises(TransientFault):
            self._walk(catalog, 290)

    def test_walk_is_complete_or_raises(self, catalog):
        for seed in range(0, 300, 3):
            try:
                names = [e.name for e in self._walk(catalog, seed)]
            except TransientFault:
                continue
            assert names == list(catalog), seed
