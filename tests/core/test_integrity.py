"""Unit tests for the Integrity-Checker (pairing + majority votes)."""

import random

import pytest

from repro.core.integrity import IntegrityChecker, md5_hex
from repro.core.parser import ModuleParser
from repro.core.report import PairComparison
from repro.core.searcher import ModuleCopy
from repro.guest.loader import ModuleLoader
from repro.guest.ldr import ListEntry
from repro.mem.address_space import KernelAddressSpace
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.pe import build_driver


def _load_on_vm(blueprint, vm_name, seed):
    """Load a blueprint into a fresh kernel; return a ParsedModule."""
    aspace = KernelAddressSpace(PhysicalMemory(4096 * PAGE_SIZE), seed=seed)
    head = aspace.alloc_fixed(0x1000, "globals")
    aspace.write(head, ListEntry(head, head).pack())
    loader = ModuleLoader(aspace, head)
    mod = loader.load(blueprint)
    image = aspace.read(mod.base, mod.size_of_image)
    copy = ModuleCopy(vm_name, blueprint.name, mod.base, image,
                      mod.ldr_entry_va)
    return ModuleParser().parse(copy)


@pytest.fixture(scope="module")
def clean_pair():
    bp = build_driver("pair.sys", seed=21, imports=())
    return (_load_on_vm(bp, "VmA", 1), _load_on_vm(bp, "VmB", 2))


@pytest.fixture(scope="module")
def clean_pool():
    bp = build_driver("pool.sys", seed=22, imports=())
    return [_load_on_vm(bp, f"Vm{i}", seed=i) for i in range(5)]


class TestMd5:
    def test_known_digest(self):
        assert md5_hex(b"") == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_hex(b"abc") == "900150983cd24fb0d6963f7d28e17f72"


class TestPairComparison:
    def test_clean_pair_matches(self, clean_pair):
        result = IntegrityChecker().compare_pair(*clean_pair)
        assert result.matched
        assert result.mismatched_regions == ()

    def test_rva_stats_recorded_per_code_region(self, clean_pair):
        result = IntegrityChecker().compare_pair(*clean_pair)
        assert set(result.rva_stats) == {".text", "INIT"}
        assert all(s.clean for s in result.rva_stats.values())

    def test_header_tamper_detected(self, clean_pair):
        a, b = clean_pair
        image = bytearray(a.image)
        image[10] ^= 0xFF                      # inside the DOS header
        tampered = ModuleParser().parse(ModuleCopy(
            a.vm_name, a.module_name, a.base, bytes(image), 0))
        result = IntegrityChecker().compare_pair(tampered, b)
        assert result.mismatched_regions == ("IMAGE_DOS_HEADER",)

    def test_code_tamper_detected(self, clean_pair):
        a, b = clean_pair
        text = next(r for r in a.code_regions if r.name == ".text")
        image = bytearray(a.image)
        image[text.start + 40] ^= 0x41
        tampered = ModuleParser().parse(ModuleCopy(
            a.vm_name, a.module_name, a.base, bytes(image), 0))
        result = IntegrityChecker().compare_pair(tampered, b)
        assert ".text" in result.mismatched_regions

    def test_all_rva_modes_agree_on_clean_pair(self, clean_pair):
        for mode in ("faithful", "robust"):
            result = IntegrityChecker(rva_mode=mode).compare_pair(*clean_pair)
            assert result.matched, mode

    def test_unknown_rva_mode_rejected(self):
        with pytest.raises(ValueError):
            IntegrityChecker(rva_mode="quantum")

    def test_pair_helpers(self, clean_pair):
        result = IntegrityChecker().compare_pair(*clean_pair)
        assert result.involves("VmA") and result.involves("VmB")
        assert result.other("VmA") == "VmB"
        with pytest.raises(ValueError):
            result.other("VmZ")

    def test_charge_called(self, clean_pair):
        charges = []
        IntegrityChecker(charge=charges.append).compare_pair(*clean_pair)
        assert charges and charges[0] > 0


class TestTargetCheck:
    def test_clean_target(self, clean_pool):
        checker = IntegrityChecker()
        report = checker.check_target(clean_pool[0], clean_pool[1:])
        assert report.clean
        assert report.matches == report.comparisons == 4
        assert report.mismatched_regions() == ()

    def test_infected_target_flagged(self, clean_pool):
        target = clean_pool[0]
        image = bytearray(target.image)
        text = next(r for r in target.code_regions if r.name == ".text")
        image[text.start + 8] ^= 0x01
        infected = ModuleParser().parse(ModuleCopy(
            target.vm_name, target.module_name, target.base, bytes(image), 0))
        report = IntegrityChecker().check_target(infected, clean_pool[1:])
        assert not report.clean
        assert report.matches == 0
        assert report.mismatched_regions() == (".text",)


class TestPoolCheck:
    def _infect(self, parsed, offset_in_text=8):
        image = bytearray(parsed.image)
        text = next(r for r in parsed.code_regions if r.name == ".text")
        image[text.start + offset_in_text] ^= 0x01
        return ModuleParser().parse(ModuleCopy(
            parsed.vm_name, parsed.module_name, parsed.base, bytes(image), 0))

    def test_all_clean(self, clean_pool):
        report = IntegrityChecker().check_pool(clean_pool)
        assert report.all_clean
        assert report.flagged() == []
        assert len(report.pairs) == 10       # C(5, 2)

    def test_single_infection_flagged(self, clean_pool):
        pool = list(clean_pool)
        pool[2] = self._infect(pool[2])
        report = IntegrityChecker().check_pool(pool)
        assert report.flagged() == ["Vm2"]
        assert report.verdicts["Vm2"].matches == 0
        assert report.mismatched_regions("Vm2") == (".text",)
        for name in ("Vm0", "Vm1", "Vm3", "Vm4"):
            assert report.verdicts[name].clean
            assert report.verdicts[name].matches == 3

    def test_majority_infected_flags_minority(self, clean_pool):
        """SQL-Slammer scenario (§III-B): when most VMs carry the same
        infection, the *clean* VMs lose the vote — but a discrepancy is
        still visible in the pair matrix."""
        pool = [self._infect(p) if i != 0 else p
                for i, p in enumerate(clean_pool)]
        report = IntegrityChecker().check_pool(pool)
        assert report.flagged() == ["Vm0"]
        assert not report.all_clean          # discrepancy still raised

    def test_even_split_flags_everyone(self, clean_pool):
        pool = [self._infect(p) if i < 2 else p
                for i, p in enumerate(clean_pool[:4])]
        report = IntegrityChecker().check_pool(pool)
        # 4 VMs: each matches only 1 other; majority needs > 1.5.
        assert set(report.flagged()) == {"Vm0", "Vm1", "Vm2", "Vm3"}

    def test_verdict_counts(self, clean_pool):
        report = IntegrityChecker().check_pool(clean_pool)
        for verdict in report.verdicts.values():
            assert verdict.comparisons == 4

    def test_pair_lookup(self, clean_pool):
        report = IntegrityChecker().check_pool(clean_pool)
        pair = report.pair("Vm0", "Vm3")
        assert {pair.vm_a, pair.vm_b} == {"Vm0", "Vm3"}
        with pytest.raises(KeyError):
            report.pair("Vm0", "VmZ")


def _vote_by_scan(names, pairs, clean):
    """Each flagged VM's regions as the vote built them before it
    indexed pairs by VM: every VM scans every pair."""
    regions = {}
    for name in names:
        found: list[str] = []
        for p in pairs:
            if p.involves(name) and clean.get(p.other(name), False):
                for region in p.mismatched_regions:
                    if region not in found:
                        found.append(region)
        regions[name] = tuple(found) if not clean[name] else ()
    return regions


def test_vote_regions_equal_the_per_vm_scan():
    """Random pair matrices, shuffled and flipped pairs: verdicts and
    region order equal the per-VM scan's."""
    rng = random.Random("vote")
    region_names = [".text", "INIT", "DOS_HEADER", "SECTION_HEADER[.x]"]
    for _ in range(300):
        t = rng.randrange(1, 9)
        modules = [type("M", (), {"vm_name": f"Dom{i}",
                                  "module_name": "m.sys"})()
                   for i in range(t)]
        names = [m.vm_name for m in modules]
        pairs = []
        for i in range(t):
            for j in range(i + 1, t):
                a, b = (names[i], names[j]) if rng.random() < 0.7 \
                    else (names[j], names[i])
                bad = [] if rng.random() < 0.6 else rng.sample(
                    region_names, rng.randrange(1, 4))
                pairs.append(PairComparison(a, b, tuple(bad)))
        rng.shuffle(pairs)
        report = IntegrityChecker().vote(modules, pairs)
        clean = {n: v.clean for n, v in report.verdicts.items()}
        want = _vote_by_scan(names, pairs, clean)
        assert {n: v.mismatched_regions
                for n, v in report.verdicts.items()} == want
