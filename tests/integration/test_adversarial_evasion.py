"""Adversarial evasion attempts against Algorithm 2.

The RVA adjustment "explains away" byte differences that look like
relocated addresses — an attacker who can make malicious changes look
like relocation would slip past the hash. These tests mount the natural
evasion strategies from a single compromised VM and verify each one
still produces a mismatch (the paper's implicit claim: "the assumption
is valid until the code is altered by an adversary" — we show altering
the code never *satisfies* the assumption from one VM alone).
"""

import struct

import pytest

from repro.cloud import build_testbed
from repro.core import IntegrityChecker, ModChecker, ModuleParser
from repro.core.searcher import ModuleCopy
from repro.pe import PEImage


@pytest.fixture(scope="module")
def pool():
    tb = build_testbed(4, seed=42)
    mc = ModChecker(tb.hypervisor, tb.profile)
    parsed, *_ = mc.fetch_modules("hal.dll", tb.vm_names)
    return tb, parsed


def _retamper(target, mutate):
    """Apply ``mutate(bytearray image, target)`` and re-parse."""
    image = bytearray(target.image)
    mutate(image, target)
    return ModuleParser().parse(ModuleCopy(
        target.vm_name, target.module_name, target.base, bytes(image), 0))


def _first_text_slot(tb, target):
    """(slot offset in image, original value) of a genuine .text fixup."""
    blueprint = tb.catalog["hal.dll"]
    text = blueprint.section(".text")
    rva = next(r for r in blueprint.fixup_rvas
               if text.virtual_address <= r
               < text.virtual_address + text.virtual_size)
    value = struct.unpack_from("<I", target.image, rva)[0]
    return rva, value


class TestSlotRetargeting:
    def test_redirect_existing_slot_detected(self, pool):
        """Evasion 1: change a genuine relocated slot to point at
        attacker code. The diff lands exactly where Algorithm 2 expects
        an address — but the recovered RVAs disagree, so it stays."""
        tb, parsed = pool
        target, *others = parsed
        rva, _ = _first_text_slot(tb, target)

        def mutate(image, mod):
            evil = (mod.base + 0x666) & 0xFFFFFFFF    # plausible VA!
            struct.pack_into("<I", image, rva, evil)

        tampered = _retamper(target, mutate)
        report = IntegrityChecker().check_target(tampered, others)
        assert not report.clean
        assert ".text" in report.mismatched_regions()

    def test_slot_offset_by_small_delta_detected(self, pool):
        tb, parsed = pool
        target, *others = parsed
        rva, value = _first_text_slot(tb, target)

        def mutate(image, mod):
            struct.pack_into("<I", image, rva, (value + 4) & 0xFFFFFFFF)

        tampered = _retamper(target, mutate)
        report = IntegrityChecker().check_target(tampered, others)
        assert not report.clean


class TestFakeSlotInjection:
    def test_plausible_address_bytes_detected(self, pool):
        """Evasion 2: overwrite non-slot code bytes with something that
        decodes as (own base + small rva) — maximally relocation-like.
        The clean VMs' bytes at that spot do not decode to the same RVA
        against *their* bases, so no replacement happens."""
        tb, parsed = pool
        target, *others = parsed
        pe = PEImage(target.image)
        text = pe.section(".text")
        off = text.virtual_address + 0x40

        def mutate(image, mod):
            struct.pack_into("<I", image, off,
                             (mod.base + 0x100) & 0xFFFFFFFF)

        tampered = _retamper(target, mutate)
        report = IntegrityChecker().check_target(tampered, others)
        assert not report.clean
        assert ".text" in report.mismatched_regions()

    @pytest.mark.parametrize("mode", ["faithful", "robust"])
    def test_detected_under_every_adjuster(self, pool, mode):
        tb, parsed = pool
        target, *others = parsed
        pe = PEImage(target.image)
        text = pe.section(".text")
        off = text.virtual_address + 0x48

        def mutate(image, mod):
            struct.pack_into("<I", image, off,
                             (mod.base + 0x200) & 0xFFFFFFFF)

        tampered = _retamper(target, mutate)
        report = IntegrityChecker(rva_mode=mode).check_target(tampered,
                                                              others)
        assert not report.clean, mode


class TestBaseForgery:
    def test_lying_about_base_detected(self, pool):
        """Evasion 3: a rootkit rewrites its LDR entry's DllBase so the
        checker computes RVAs against a wrong base. Every genuine slot
        then decodes inconsistently — the module lights up entirely."""
        tb, parsed = pool
        target, *others = parsed
        lying = ModuleParser().parse(ModuleCopy(
            target.vm_name, target.module_name,
            target.base + 0x2000,            # forged base
            target.image, 0))
        report = IntegrityChecker().check_target(lying, others)
        assert not report.clean
        assert ".text" in report.mismatched_regions()


class TestCavePayloadDisguise:
    def test_payload_written_as_address_soup_detected(self, pool):
        """Evasion 4: hide the payload in a cave encoded as a string of
        plausible own-base 'addresses'. Clean VMs have zeros there —
        zero minus their base is an implausible RVA, so nothing is
        explained away."""
        tb, parsed = pool
        target, *others = parsed
        blueprint = tb.catalog["hal.dll"]
        cave = blueprint.caves_rva()[0]

        def mutate(image, mod):
            for k in range(0, min(cave.size, 16), 4):
                struct.pack_into("<I", image, cave.offset + k,
                                 (mod.base + 0x300 + k) & 0xFFFFFFFF)

        tampered = _retamper(target, mutate)
        report = IntegrityChecker().check_target(tampered, others)
        assert not report.clean
