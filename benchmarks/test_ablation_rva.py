"""A3 — Algorithm 2 implementation ablation.

Compares the RVA-adjustment implementations on identical inputs:
(a) real wall-clock cost on a large relocated section (pytest-benchmark),
(b) the numpy kernel's speed against the per-byte oracle it replaced,
(c) output equivalence, and (d) behaviour of the faithful variant's
precondition (identical bases → it refuses to adjust).
"""

from __future__ import annotations

import struct

import pytest

from repro.core.rva import (ADJUSTERS, adjust_rva_faithful,
                            adjust_rva_robust)
from repro.rng import make_rng
from tests.core.rva_oracle import oracle_adjust_rva_robust

BASE1, BASE2 = 0xF7010000, 0xF70B5000
SIZE = 256 * 1024          # a driver-scale .text section
N_SLOTS = 2000


def _big_pair():
    rng = make_rng(99)
    canonical = bytearray(rng.integers(0, 256, SIZE, dtype="uint8").tobytes())
    slots = sorted(rng.choice(SIZE // 8 - 1, size=N_SLOTS,
                              replace=False) * 8)
    for slot in slots:
        struct.pack_into("<I", canonical, int(slot),
                         int(rng.integers(0, SIZE)))
    c1, c2 = bytearray(canonical), bytearray(canonical)
    for slot in slots:
        rva = struct.unpack_from("<I", canonical, int(slot))[0]
        struct.pack_into("<I", c1, int(slot), (rva + BASE1) & 0xFFFFFFFF)
        struct.pack_into("<I", c2, int(slot), (rva + BASE2) & 0xFFFFFFFF)
    return bytes(canonical), bytes(c1), bytes(c2)


PAIR = _big_pair()


@pytest.mark.parametrize("mode", sorted(ADJUSTERS))
def test_adjuster_wall_clock(benchmark, mode):
    canonical, c1, c2 = PAIR
    fn = ADJUSTERS[mode]
    adj1, adj2, stats = benchmark(lambda: fn(c1, BASE1, c2, BASE2))
    assert adj1 == adj2 == canonical
    assert stats.replaced == N_SLOTS
    assert stats.unresolved == 0


#: the numpy kernel must beat the per-byte loop by at least this factor
KERNEL_SPEEDUP_FLOOR = 4.0


def test_kernel_at_least_4x_faster_than_oracle():
    """The numpy kernel must pay off on driver-scale sections: a ratio,
    so machine speed cancels (min of 5 runs each)."""
    import time
    _, c1, c2 = PAIR

    def clock(fn):
        t0 = time.perf_counter()
        fn(c1, BASE1, c2, BASE2)
        return time.perf_counter() - t0

    t_oracle = min(clock(oracle_adjust_rva_robust) for _ in range(5))
    t_kernel = min(clock(adjust_rva_robust) for _ in range(5))
    assert t_oracle >= KERNEL_SPEEDUP_FLOOR * t_kernel, (t_oracle, t_kernel)


def test_all_variants_equivalent_on_driver_pair():
    canonical, c1, c2 = PAIR
    outputs = {mode: fn(c1, BASE1, c2, BASE2)
               for mode, fn in ADJUSTERS.items()}
    outputs["oracle"] = oracle_adjust_rva_robust(c1, BASE1, c2, BASE2)
    reference = outputs["robust"]
    for mode, out in outputs.items():
        assert out[0] == reference[0], mode
        assert out[1] == reference[1], mode


def test_faithful_gives_up_on_identical_bases():
    """The faithful variant's guard (paper Algorithm 2 line 10): if the
    bases share all four bytes it never adjusts — harmless for clean
    modules (identical bases ⇒ identical bytes) but a blind spot the
    robust variant does not have."""
    _, c1, _ = PAIR
    adj1, adj2, stats = adjust_rva_faithful(c1, BASE1, c1, BASE1)
    assert stats.replaced == 0
    assert adj1 == adj2 == c1
