"""Unit + property tests for Algorithm 2 and its variants.

The ground-truth generator builds a synthetic "section" containing
filler bytes plus 32-bit address slots, then produces two relocated
copies at different bases — exactly what the loader hands the checker.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rva import (ADJUSTERS, adjust_rva_faithful, adjust_rva_robust,
                            first_differing_base_byte)
from tests.core.rva_oracle import oracle_adjust_rva_robust


def make_pair(base1, base2, *, size=256, slots=(16, 64, 200), rvas=None,
              filler=0x90):
    """Two relocated copies of one synthetic section."""
    rvas = rvas or [0x120, 0x340, 0x88]
    canonical = bytearray([filler]) * size
    canonical = bytearray([filler] * size)
    for slot, rva in zip(slots, rvas):
        struct.pack_into("<I", canonical, slot, rva)
    copy1, copy2 = bytearray(canonical), bytearray(canonical)
    for slot, rva in zip(slots, rvas):
        struct.pack_into("<I", copy1, slot, (rva + base1) & 0xFFFFFFFF)
        struct.pack_into("<I", copy2, slot, (rva + base2) & 0xFFFFFFFF)
    return bytes(canonical), bytes(copy1), bytes(copy2)


BASES = (0xF7010000, 0xF70B5000)


class TestFirstDifferingByte:
    def test_identical(self):
        assert first_differing_base_byte(0x1000, 0x1000) is None

    def test_little_endian_order(self):
        # bases differing only in bits 16-23 differ at byte index 2
        assert first_differing_base_byte(0xF7010000, 0xF70B0000) == 2

    def test_byte1(self):
        assert first_differing_base_byte(0xF7011000, 0xF7012000) == 1

    def test_paper_example_shape(self):
        # Fig. 4's bases: differ from the second byte on.
        assert first_differing_base_byte(0x0020CCF8, 0x00C0D0F8) in (0, 1, 2, 3)


@pytest.mark.parametrize("mode", sorted(ADJUSTERS))
class TestCleanPair:
    def test_recovers_canonical_content(self, mode):
        canonical, c1, c2 = make_pair(*BASES)
        adj1, adj2, stats = ADJUSTERS[mode](c1, BASES[0], c2, BASES[1])
        assert adj1 == adj2 == canonical
        assert stats.replaced == 3
        assert stats.unresolved == 0
        assert stats.clean

    def test_identical_bases_noop(self, mode):
        _, c1, _ = make_pair(*BASES)
        adj1, adj2, stats = ADJUSTERS[mode](c1, BASES[0], c1, BASES[0])
        assert adj1 == adj2 == c1
        assert stats.replaced == 0

    def test_no_slots_at_all(self, mode):
        data = bytes(128)
        adj1, adj2, stats = ADJUSTERS[mode](data, *[BASES[0], data, BASES[1]])
        assert adj1 == adj2 == data
        assert stats.windows == 0

    def test_slot_at_start(self, mode):
        canonical, c1, c2 = make_pair(*BASES, slots=(0,), rvas=[0x50])
        adj1, adj2, stats = ADJUSTERS[mode](c1, BASES[0], c2, BASES[1])
        assert adj1 == adj2 == canonical

    def test_slot_at_end(self, mode):
        canonical, c1, c2 = make_pair(*BASES, size=64, slots=(60,),
                                      rvas=[0x10])
        adj1, adj2, stats = ADJUSTERS[mode](c1, BASES[0], c2, BASES[1])
        assert adj1 == adj2 == canonical

    def test_adjacent_slots(self, mode):
        canonical, c1, c2 = make_pair(*BASES, slots=(16, 20, 24),
                                      rvas=[0x100, 0x200, 0x300])
        adj1, adj2, stats = ADJUSTERS[mode](c1, BASES[0], c2, BASES[1])
        assert adj1 == adj2 == canonical
        assert stats.replaced == 3

    def test_length_mismatch_rejected(self, mode):
        with pytest.raises(ValueError):
            ADJUSTERS[mode](b"ab", BASES[0], b"abc", BASES[1])


@pytest.mark.parametrize("mode", sorted(ADJUSTERS))
class TestTamperedPair:
    def test_tamper_leaves_unresolved_and_mismatch(self, mode):
        _, c1, c2 = make_pair(*BASES)
        tampered = bytearray(c1)
        tampered[100] ^= 0xFF                       # not a relocation site
        adj1, adj2, stats = ADJUSTERS[mode](bytes(tampered), BASES[0],
                                            c2, BASES[1])
        assert adj1 != adj2
        assert stats.unresolved >= 1

    def test_tamper_near_slot_still_detected(self, mode):
        _, c1, c2 = make_pair(*BASES, slots=(16,), rvas=[0x100])
        tampered = bytearray(c1)
        tampered[21] ^= 0x41                        # right after the slot
        adj1, adj2, _ = ADJUSTERS[mode](bytes(tampered), BASES[0],
                                        c2, BASES[1])
        assert adj1 != adj2

    def test_jmp_insertion_detected(self, mode):
        """E1-style: equal-length opcode rewrite inside the section."""
        _, c1, c2 = make_pair(*BASES)
        tampered = bytearray(c1)
        tampered[40:43] = b"\x83\xE9\x01"
        adj1, adj2, _ = ADJUSTERS[mode](bytes(tampered), BASES[0],
                                        c2, BASES[1])
        assert adj1 != adj2


class TestFaithfulSpecifics:
    def test_requires_base_byte_difference(self):
        # Bases equal -> algorithm 2's guard (IsDifferenceExist) trips
        # and nothing is replaced even if content differs.
        _, c1, c2 = make_pair(BASES[0], BASES[0])
        tampered = bytearray(c2)
        tampered[3] ^= 1
        adj1, adj2, stats = adjust_rva_faithful(c1, BASES[0],
                                                bytes(tampered), BASES[0])
        assert stats.replaced == 0
        assert adj1 != adj2

    def test_carry_does_not_shift_first_difference(self):
        """Sums first differ exactly at the bases' first differing byte
        (bytes below it are equal, so carries into it are equal), so the
        paper's offset heuristic is sound for genuine relocation slots
        even when the addition carries."""
        base1, base2 = 0xF7014000, 0xF701C000      # differ at byte 1
        rva = 0x4000                               # carries out of byte 1
        c1, c2 = bytearray(16), bytearray(16)
        struct.pack_into("<I", c1, 4, (base1 + rva) & 0xFFFFFFFF)
        struct.pack_into("<I", c2, 4, (base2 + rva) & 0xFFFFFFFF)
        adj1, adj2, stats = adjust_rva_faithful(bytes(c1), base1,
                                                bytes(c2), base2)
        assert adj1 == adj2
        assert stats.replaced == 1

    def test_implausible_rva_left_unresolved(self):
        """RVAs beyond max_rva are treated as tampering, not relocation."""
        base1, base2 = BASES
        rva = 0x00FF0000                           # ~16 MiB: implausible
        c1, c2 = bytearray(16), bytearray(16)
        struct.pack_into("<I", c1, 4, (base1 + rva) & 0xFFFFFFFF)
        struct.pack_into("<I", c2, 4, (base2 + rva) & 0xFFFFFFFF)
        for fn in ADJUSTERS.values():
            adj1, adj2, stats = fn(bytes(c1), base1, bytes(c2), base2,
                                   max_rva=0x100000)
            assert stats.unresolved >= 1
            assert adj1 != adj2
        # with a generous bound the same pair resolves
        adj1, adj2, stats = adjust_rva_robust(bytes(c1), base1,
                                              bytes(c2), base2,
                                              max_rva=1 << 25)
        assert adj1 == adj2 and stats.replaced == 1

    @given(
        base_pages=st.tuples(
            st.integers(min_value=0xF7000, max_value=0xF9FFF),
            st.integers(min_value=0xF7000, max_value=0xF9FFF)),
        slot_ids=st.sets(st.integers(min_value=0, max_value=30), max_size=6),
        rva_seed=st.integers(min_value=1, max_value=0xFFF),
    )
    @settings(max_examples=80, deadline=None)
    def test_faithful_equals_robust_on_clean_pairs(self, base_pages,
                                                   slot_ids, rva_seed):
        base1, base2 = base_pages[0] << 12, base_pages[1] << 12
        slots = sorted(s * 8 for s in slot_ids)
        rvas = [(rva_seed * (i + 1)) % 0xFF0 for i in range(len(slots))]
        _, c1, c2 = make_pair(base1, base2, size=256, slots=slots, rvas=rvas)
        f = adjust_rva_faithful(c1, base1, c2, base2)
        r = adjust_rva_robust(c1, base1, c2, base2)
        assert f[0] == r[0] and f[1] == r[1]


class TestEquivalence:
    @given(
        bases=st.tuples(
            st.integers(min_value=0xF000_0000 >> 12, max_value=0xF9FF_F000 >> 12),
            st.integers(min_value=0xF000_0000 >> 12, max_value=0xF9FF_F000 >> 12)),
        slot_ids=st.sets(st.integers(min_value=0, max_value=30), max_size=6),
        rva_seed=st.integers(min_value=1, max_value=0xFFFF),
    )
    @settings(max_examples=80, deadline=None)
    def test_robust_equals_vectorized(self, bases, slot_ids, rva_seed):
        """The per-byte robust loop (the oracle) and the vectorised
        kernel behind ``adjust_rva_robust`` agree byte for byte."""
        base1, base2 = bases[0] << 12, bases[1] << 12
        slots = sorted(s * 8 for s in slot_ids)
        rvas = [(rva_seed * (i + 3)) % 0xFFF0 for i in range(len(slots))]
        _, c1, c2 = make_pair(base1, base2, size=256, slots=slots, rvas=rvas)
        r = oracle_adjust_rva_robust(c1, base1, c2, base2)
        v = adjust_rva_robust(c1, base1, c2, base2)
        assert r == v

    @given(
        base_pages=st.tuples(
            st.integers(min_value=0xF7000, max_value=0xF9FFF),
            st.integers(min_value=0xF7000, max_value=0xF9FFF)),
        slot_ids=st.sets(st.integers(min_value=0, max_value=30), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_clean_pairs_always_resolve(self, base_pages, slot_ids):
        """Page-aligned bases (as Windows allocates them): every clean
        relocated pair must fully resolve under every variant."""
        base1, base2 = base_pages[0] << 12, base_pages[1] << 12
        slots = sorted(s * 8 for s in slot_ids)
        rvas = [0x10 + 4 * i for i in range(len(slots))]
        canonical, c1, c2 = make_pair(base1, base2, size=256, slots=slots,
                                      rvas=rvas)
        for mode, fn in ADJUSTERS.items():
            adj1, adj2, stats = fn(c1, base1, c2, base2)
            assert adj1 == adj2, mode
            if base1 != base2:
                assert stats.unresolved == 0, mode
