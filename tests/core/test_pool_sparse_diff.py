"""Differential tests for the sparse pool scan.

:func:`repro.core.rva.scan_pool` reads only the columns where some copy
of a group differs from the first and builds no adjusted rows. Every
case here holds it, and :func:`repro.core.rva.adjust_rva_pool` over it,
to the dense scan it replaced (:mod:`tests.core.pool_oracle`) and to
the per-byte loop of :mod:`tests.core.rva_oracle`: windows and settled
flags per pair, ``PoolPair`` outcomes (stats and adjusted bytes), and
the invariant that lets the sparse scan skip the rows: a settled pair's
adjusted copies are byte-equal.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.integrity as integrity
import repro.core.rva as rva
from repro.attacks import attack_for_experiment
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.core.integrity import IntegrityChecker
from repro.guest import build_catalog
from tests.core.pool_oracle import oracle_pool_adjust, oracle_scan_pool
from tests.core.rva_oracle import oracle_adjust_rva_pool
from tests.core.test_pool_batch import (all_pairs,
                                        assert_pool_matches_oracle, pool_of)
from tests.core.test_rva_kernel_diff import LAYOUTS


def tangled_pool(rng: random.Random, bases: list[int], size: int,
                 ) -> list[bytearray]:
    """Copies with dense slots at random steps of 1-10 bytes, so slots
    overlap and clusters tangle, over random or zero filler."""
    canonical = bytearray(rng.randbytes(size) if rng.random() < 0.5
                          else bytes(size))
    copies = [bytearray(canonical) for _ in bases]
    off = rng.randrange(7)
    while off + 4 <= size:
        value = rng.randrange(1 << 32)
        for copy, base in zip(copies, bases):
            copy[off:off + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(
                4, "little")
        off += rng.randrange(1, 11)
    return copies


def random_bases(rng: random.Random, t: int) -> list[int]:
    """Page-aligned, low-byte-sharing or repeated bases (equal-base
    pairs), mixed."""
    b0 = rng.randrange(1 << 32)
    pool = [b0]
    for _ in range(t - 1):
        kind = rng.randrange(4)
        if kind == 0:
            pool.append(rng.choice(pool))
        elif kind == 1:
            pool.append(0x80000000 + rng.randrange(0x7FFF) * 0x1000)
        else:
            pool.append((b0 + rng.randrange(1, 256)
                         * (1 << 8 * rng.randrange(4))) & 0xFFFFFFFF)
    return pool


def random_limits(rng: random.Random, size: int, count: int) -> list[int]:
    """One RVA bound per pair, from 0 up to and beyond 2**32."""
    choices = [0, 0x100, size * 16, 1 << 20, 1 << 31, (1 << 32) - 1,
               1 << 32, (1 << 40) + 3]
    return [rng.choice(choices) if rng.random() < 0.7
            else rng.randrange(1 << 33) for _ in range(count)]


def tamper(rng: random.Random, copies: list[bytearray]) -> None:
    for _ in range(rng.choice([0, 0, 1, 2, 5])):
        victim = rng.choice(copies)
        victim[rng.randrange(len(victim))] ^= 1 << rng.randrange(8)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_fuzz(seed, monkeypatch):
    """Random pools: sparse, packed and tangled slots, equal-base pairs,
    per-pair limits, tampered rows, sections of 1-3 bytes, and chunk
    budgets from one pair per chunk to one chunk per group."""
    rng = random.Random(f"sparse-{seed}")
    for _ in range(40):
        monkeypatch.setattr(rva, "POOL_CHUNK_BYTES",
                            rng.choice([1, 5, 64, 1000, 64 * 1024]))
        t = rng.randrange(2, 8)
        size = rng.choice([1, 2, 3, 4, 5, 7, 16, rng.randrange(4, 300)])
        bases = random_bases(rng, t)
        if size < 4 or rng.random() < 0.4:
            copies = tangled_pool(rng, bases, size)
        else:
            layout = rng.choice(sorted(LAYOUTS))
            copies = pool_of(layout, bases, size, rng)
        tamper(rng, copies)
        pairs = all_pairs(t)
        if rng.random() < 0.3:
            pairs = [rng.choice(pairs) for _ in range(rng.randrange(1, 12))]
        assert_pool_matches_oracle(copies, bases, pairs,
                                   random_limits(rng, size, len(pairs)))


def test_identical_copies_and_one_column():
    """No differing column at all, and a single differing column."""
    rng = random.Random("columns")
    bases = [0x1000, 0x2000, 0x3000]
    same = [bytearray(b"\x90" * 64) for _ in bases]
    got = assert_pool_matches_oracle(same, bases)
    assert all(p == rva.PoolPair(rva.RvaAdjustStats(), None) for p in got)
    for at in (0, 1, 30, 62, 63):
        copies = [bytearray(rng.randbytes(64))] * 3
        copies = [bytearray(c) for c in copies]
        copies[1][at] ^= 0x01
        assert_pool_matches_oracle(copies, bases)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1 << 30), st.integers(2, 6), st.integers(4, 96),
       st.booleans())
def test_settled_pairs_have_equal_adjusted_copies(seed, t, size, dirty):
    """The invariant the sparse scan relies on: wherever the dense scan
    calls a pair settled, its adjusted rows, and the per-byte oracle's
    adjusted copies, are byte-equal, and the sparse scan agrees."""
    rng = random.Random(seed)
    bases = random_bases(rng, t)
    copies = tangled_pool(rng, bases, size)
    if dirty:
        tamper(rng, copies)
    rows = np.array([np.frombuffer(bytes(c), np.uint8) for c in copies])
    pairs = [(i, j) for i, j in all_pairs(t) if bases[i] != bases[j]]
    if not pairs:
        return
    limits = random_limits(rng, size, len(pairs))
    table = np.array(pairs, np.intp)
    bound = np.array([min(limit, 1 << 32) for limit in limits], np.int64)
    per_byte = oracle_adjust_rva_pool(rows, bases, pairs, limits)
    settled = {}
    for chunk in oracle_scan_pool(rows, bases, table, bound):
        for c, k in enumerate(chunk.pairs.tolist()):
            settled[k] = bool(chunk.settled[c])
            if settled[k]:
                assert np.array_equal(chunk.adjusted_a[c],
                                      chunk.adjusted_b[c])
                adj_a, adj_b, _ = per_byte[k]
                assert adj_a == adj_b
    sparse = {k: bool(chunk.settled[c])
              for chunk in rva.scan_pool(rows, bases, table, bound)
              for c, k in enumerate(chunk.pairs.tolist())}
    assert sparse == settled


def test_testbed_pool_matches_oracle(monkeypatch):
    """The paper's 15-VM testbed, E2 on Dom3, all 10 modules: every
    ``PairComparison`` of the batched vote, ``rva_stats`` included, and
    every cost equal to the batch run over the dense oracle scan."""
    attack, module = attack_for_experiment("E2")
    infected = attack.apply(build_catalog(seed=42)[module]).infected
    tb = build_testbed(15, seed=42, infected={"Dom3": {module: infected}})
    mc = ModChecker(tb.hypervisor, tb.profile)
    checker = IntegrityChecker()
    flagged = set()
    for name in sorted(tb.catalog):
        parsed = mc.fetch_modules(name, tb.vm_names).parsed
        assert len(parsed) == 15
        jobs = [(parsed[i], parsed[j]) for i, j in all_pairs(15)]
        got = checker.compare_pairs(jobs)
        with monkeypatch.context() as patch:
            patch.setattr(integrity, "adjust_rva_pool", oracle_pool_adjust)
            want = checker.compare_pairs(jobs)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert [c.hex() for _, c in got] == [c.hex() for _, c in want]
        assert all(set(p.rva_stats) == {".text", "INIT"} for p, _ in got)
        flagged |= {vm for p, _ in got if not p.matched
                    for vm in (p.vm_a, p.vm_b)}
        for region in parsed[0].code_regions:
            copies = [m.region_bytes(r) for m in parsed
                      for r in m.code_regions if r.name == region.name]
            rows = np.array([np.frombuffer(c, np.uint8) for c in copies])
            bases = [m.base for m in parsed]
            pairs = all_pairs(15)
            limits = [max(len(parsed[i].image), len(parsed[j].image))
                      for i, j in pairs]
            assert rva.adjust_rva_pool(rows, bases, pairs, limits) == \
                oracle_pool_adjust(rows, bases, pairs, limits)
    assert "Dom3" in flagged
