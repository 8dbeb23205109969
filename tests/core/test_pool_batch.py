"""Differential tests for the batched pairwise vote.

``IntegrityChecker.compare_pairs`` compares every job of a vote in one
batch: header digests once per copy, one :func:`repro.core.rva.
adjust_rva_pool` pass per (code region, length) group. Every case here
holds it to the per-pair path (``compare_pair``), to the per-byte
oracles of :mod:`tests.core.rva_oracle` and to the dense pool scan of
:mod:`tests.core.pool_oracle`, pair for pair (mismatched regions,
``rva_stats``, adjusted bytes, chunk windows and settled flags) and
charge for charge.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.rva as rva
from repro.attacks import EXPERIMENTS, attack_for_experiment
from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.core.integrity import IntegrityChecker
from repro.core.parser import ParsedModule
from repro.core.rva import adjust_rva_pool, scan_pool
from repro.guest import STANDARD_CATALOG, build_catalog
from repro.ledger import Entry
from repro.obs import make_observability
from repro.pe.parser import Region
from repro.vmi.cache import LRUCache
from tests.core.pool_oracle import oracle_pool_adjust, oracle_scan_pool
from tests.core.rva_oracle import (oracle_adjust_rva_pool,
                                   oracle_compare_pair)
from tests.core.test_rva_kernel_diff import BASES, LAYOUTS, _load, relocated

ROOT = Path(__file__).resolve().parents[2]


def all_pairs(t: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(t), 2))


def assert_pool_matches_oracle(copies, bases, pairs=None, limits=None):
    """``scan_pool`` and ``adjust_rva_pool`` == the per-byte oracle and
    the dense pool scan they replaced."""
    rows = np.array([np.frombuffer(bytes(c), np.uint8) for c in copies],
                    np.uint8).reshape(len(copies), -1)
    pairs = all_pairs(len(copies)) if pairs is None else pairs
    if limits is None:
        limits = [max(rows.shape[1] * 16, 1 << 20)] * len(pairs)
    want = oracle_adjust_rva_pool(rows, bases, pairs, limits)
    got = adjust_rva_pool(rows, bases, pairs, limits)
    for (adj_a, adj_b, stats), outcome in zip(want, got):
        assert outcome.stats == stats
        if adj_a == adj_b:
            assert outcome.adjusted is None
        else:
            assert outcome.adjusted == (adj_a, adj_b)
    assert got == oracle_pool_adjust(rows, bases, pairs, limits)
    scanned = [k for k, (i, j) in enumerate(pairs)
               if rows.shape[1] >= 4 and bases[i] != bases[j]]
    if scanned:
        table = np.array([pairs[k] for k in scanned], np.intp)
        bound = np.array([min(limits[k], 1 << 32) for k in scanned],
                         np.int64)
        dense = {}
        for chunk in oracle_scan_pool(rows, bases, table, bound):
            for c, k in enumerate(chunk.pairs.tolist()):
                dense[k] = (int(chunk.windows[c]), bool(chunk.settled[c]))
        seen = []
        for chunk in scan_pool(rows, bases, table, bound):
            for c, k in enumerate(chunk.pairs.tolist()):
                seen.append(k)
                adj_a, adj_b, stats = want[scanned[k]]
                assert (chunk.windows[c], chunk.settled[c]) == dense[k]
                if not chunk.settled[c]:
                    continue
                assert adj_a == adj_b       # settled => equal
                assert chunk.windows[c] == stats.windows == stats.replaced
        assert seen == list(range(len(scanned)))
    return got


def pool_of(layout: str, bases: list[int], size: int, rng: random.Random,
            filler: int | None = None) -> list[bytearray]:
    """One section's copies at ``bases``: shared slots, shared filler."""
    slots = LAYOUTS[layout](rng, size)
    canonical = relocated((0, 0), slots, size, rng, filler)[0]
    copies = []
    for base in bases:
        copy = bytearray(canonical)
        for off, value in slots:
            copy[off:off + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(
                4, "little")
        copies.append(copy)
    return copies


class TestPoolScan:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_clean_and_tampered(self, layout):
        rng = random.Random(f"pool-{layout}")
        for _ in range(10):
            bases = [0x80000000 + rng.randrange(0x7FFF) * 0x1000
                     for _ in range(5)]
            copies = pool_of(layout, bases, 512, rng)
            assert_pool_matches_oracle(copies, bases)
            victim = copies[rng.randrange(5)]
            for _ in range(3):
                victim[rng.randrange(512)] ^= 1 << rng.randrange(8)
            assert_pool_matches_oracle(copies, bases)

    @pytest.mark.parametrize("shape", sorted(BASES))
    def test_base_shapes(self, shape):
        """Bases sharing 0-3 low bytes, including equal ones."""
        rng = random.Random(f"shape-{shape}")
        b1, b2 = BASES[shape]
        for layout in sorted(LAYOUTS):
            copies = pool_of(layout, [b1, b2, b1, b2], 256, rng)
            got = assert_pool_matches_oracle(copies, [b1, b2, b1, b2])
            same = [k for k, (i, j) in enumerate(all_pairs(4))
                    if i % 2 == j % 2]
            for k in same:                  # equal bases: untouched
                assert got[k].stats == rva.RvaAdjustStats()

    def test_equal_base_pair_keeps_its_difference(self):
        rng = random.Random(3)
        copies = pool_of("sparse", [0x1000, 0x1000, 0x9000], 128, rng)
        copies[1][5] ^= 0xFF
        got = assert_pool_matches_oracle(copies, [0x1000, 0x1000, 0x9000])
        assert got[0].stats == rva.RvaAdjustStats()
        assert got[0].adjusted == (bytes(copies[0]), bytes(copies[1]))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_sections_shorter_than_a_slot(self, size):
        rng = random.Random(size)
        for _ in range(10):
            copies = [rng.randbytes(size) for _ in range(4)]
            assert_pool_matches_oracle(copies, [0x1000, 0x2000, 0x1000,
                                                0x12345678])

    def test_differences_in_last_three_bytes(self):
        rng = random.Random("tail")
        for size in (4, 5, 8, 64):
            for tail in (1, 2, 3):
                bases = [0xF7010000, 0xF70B5000, 0x12345678]
                copies = pool_of("sparse", bases, size, rng)
                copies[1][size - tail] ^= 0x5A
                assert_pool_matches_oracle(copies, bases)

    def test_tangled_clusters(self):
        """The dense, overlapping slot layouts of
        ``test_seeded_fuzz_overlapping_slots``, pooled."""
        rng = random.Random(42)
        for _ in range(300):
            size = rng.randrange(4, 40)
            b0 = rng.randrange(1 << 32)
            bases = [b0] + [(b0 + rng.randrange(1, 256)
                             * (1 << 8 * rng.randrange(4))) & 0xFFFFFFFF
                            for _ in range(3)]
            canonical = bytearray(rng.randbytes(size) if rng.random() < 0.5
                                  else bytes(size))
            copies = [bytearray(canonical) for _ in bases]
            off = rng.randrange(7)
            while off + 4 <= size:
                value = rng.randrange(1 << 32)
                for copy, base in zip(copies, bases):
                    copy[off:off + 4] = ((value + base) & 0xFFFFFFFF
                                         ).to_bytes(4, "little")
                off += rng.randrange(1, 11)
            for _ in range(rng.choice([0, 1, 2])):
                rng.choice(copies)[rng.randrange(size)] ^= \
                    1 << rng.randrange(8)
            limit = rng.choice([1 << 31, 1 << 32, rng.randrange(1 << 32),
                                (1 << 40) + 3])
            assert_pool_matches_oracle(copies, bases,
                                       limits=[limit] * 6)

    def test_group_spans_several_chunks(self, monkeypatch):
        """A budget smaller than one pair's differing columns (one pair
        per chunk) and one of a few pairs (several pairs per chunk, a
        short last chunk)."""
        rng = random.Random("chunks")
        bases = [0x80000000 + rng.randrange(0x7FFF) * 0x1000
                 for _ in range(7)]
        copies = pool_of("packed", bases, 300, rng)
        copies[4][100] ^= 0x10
        rows = np.array([np.frombuffer(bytes(c), np.uint8)
                         for c in copies])
        columns = int((rows[1:] != rows[0]).any(axis=0).sum())
        # 16 budget bytes per pair and differing column
        for budget, per_chunk in ((16 * columns - 1, 1), (64 * columns, 4)):
            monkeypatch.setattr(rva, "POOL_CHUNK_BYTES", budget)
            table = np.array(all_pairs(7), np.intp)
            chunks = list(scan_pool(rows, bases, table,
                                    np.full(len(table), 1 << 20)))
            assert [len(c.pairs) for c in chunks] == \
                [per_chunk] * (21 // per_chunk) + [21 % per_chunk] * (
                    21 % per_chunk > 0)
            assert_pool_matches_oracle(copies, bases)

    def test_per_pair_limits(self):
        """Each pair keeps its own RVA bound."""
        rng = random.Random(5)
        bases = [0xF7010000, 0xF70B5000, 0xF7200000]
        copies = pool_of("sparse", bases, 256, rng)
        for limits in ([0x100, 0x10000, 0], [1 << 33, 0x500, 0x8000]):
            assert_pool_matches_oracle(copies, bases, limits=limits)


# -- the batched vote on the driver catalog -----------------------------------

@pytest.fixture(scope="module")
def catalog():
    return build_catalog(seed=42)


def _charges(checker: IntegrityChecker, jobs) -> list[float]:
    """What ``compare_pair`` charges, one call per job."""
    charged: list[float] = []
    checker._charge = charged.append
    for mod_a, mod_b in jobs:
        checker.compare_pair(mod_a, mod_b)
    return charged


def assert_batch_matches(modules: list[ParsedModule]):
    """Batch == per-pair ``compare_pair`` == per-byte oracle."""
    checker = IntegrityChecker()
    jobs = [(modules[i], modules[j])
            for i, j in all_pairs(len(modules))]
    batch = checker.compare_pairs(jobs)
    single = [checker.compare_pairs([job])[0] for job in jobs]
    assert batch == single
    oracle = [oracle_compare_pair(a, b, checker.digest) for a, b in jobs]
    assert [p for p, _ in batch] == [p for p, _, _ in oracle]
    costs = [c for _, c in batch]
    assert [c.hex() for c in costs] == [c.hex() for _, c, _ in oracle]
    assert [c.hex() for c in _charges(checker, jobs)] == \
        [c.hex() for c in costs]
    charged: list[float] = []
    checker._charge = charged.append
    checker.check_pool(modules)
    assert [c.hex() for c in charged] == [c.hex() for c in costs]
    return batch


@pytest.mark.parametrize("variant", ["clean"] + sorted(EXPERIMENTS))
@pytest.mark.parametrize("module", sorted(s.name for s in STANDARD_CATALOG))
def test_catalog_pool(catalog, module, variant):
    """Every catalog driver, 5 copies at random page-aligned bases (two
    share one), the last infected by each experiment's attack."""
    reference = catalog[module]
    suspect = reference
    if variant != "clean":
        suspect = attack_for_experiment(variant)[0].apply(reference).infected
    for draw in range(2):
        rng = random.Random(f"{module}-{variant}-{draw}")
        bases = [0x80000000 + rng.randrange(0x7FFF) * 0x1000
                 for _ in range(4)]
        bases.insert(2, bases[1])
        modules = [_load(suspect if k == 4 else reference, base)
                   for k, base in enumerate(bases)]
        for k, mod in enumerate(modules):
            mod.vm_name = f"Dom{k + 1}"
        batch = assert_batch_matches(modules)
        clean = [p for p, _ in batch if "Dom5" not in (p.vm_a, p.vm_b)]
        assert all(p.matched for p in clean)
        # the oracle's adjusted bytes, through the pool entry point
        for region in modules[0].code_regions:
            copies = [m.region_bytes(r) for m in modules
                      for r in m.code_regions if r.name == region.name]
            if len(copies) == 5 and len({len(c) for c in copies}) == 1:
                assert_pool_matches_oracle(copies, bases)


def _with_regions(mod: ParsedModule, *, header=None, code=None,
                  vm=None) -> ParsedModule:
    return ParsedModule(vm or mod.vm_name, mod.module_name, mod.base,
                        mod.image,
                        header_regions=list(mod.header_regions
                                            if header is None else header),
                        code_regions=list(mod.code_regions
                                          if code is None else code))


class TestStructuralDivergence:
    @pytest.fixture
    def pool(self, catalog):
        rng = random.Random("structure")
        return [_load(catalog["ntoskrnl.exe"],
                      0x80000000 + rng.randrange(0x7FFF) * 0x1000)
                for _ in range(4)]

    def test_missing_and_resized_code_regions(self, pool):
        text, init = pool[1].code_regions
        pool[1] = _with_regions(pool[1], code=[text], vm="Dom2")
        short = Region(init.name, init.start, init.end - 4)
        pool[2] = _with_regions(pool[2], code=[text, short], vm="Dom3")
        batch = assert_batch_matches(pool)
        assert batch[0][0].mismatched_regions == ("INIT",)
        assert "INIT" not in batch[0][0].rva_stats

    def test_injected_extra_section_headers(self, pool):
        extra = [Region("SECTION_HEADER[.hook]", 0, 40),
                 Region("SECTION_HEADER[.stub]", 40, 80)]
        pool[3] = _with_regions(pool[3], vm="Dom4",
                                header=pool[3].header_regions + extra)
        batch = assert_batch_matches(pool)
        assert batch[2][0].mismatched_regions == (
            "SECTION_HEADER[.hook]", "SECTION_HEADER[.stub]")

    def test_duplicate_copy_in_two_jobs(self, pool):
        """One copy in many jobs is one row of its group."""
        assert_batch_matches(pool + [pool[0]])


# -- charges and region order do not depend on the hash seed -----------------

_HASH_SEED_PROBE = """
from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.core.integrity import IntegrityChecker
from repro.core.parser import ParsedModule
from repro.pe.parser import Region

charges = []
checker = IntegrityChecker(charge=charges.append)
tb = build_testbed(3, seed=42)
mc = ModChecker(tb.hypervisor, tb.profile)
for module in sorted(tb.catalog):
    parsed = mc.fetch_modules(module, tb.vm_names).parsed
    for i, mod_a in enumerate(parsed):
        for mod_b in parsed[i + 1:]:
            checker.compare_pair(mod_a, mod_b)
a, b = parsed[0], parsed[1]
hooked = ParsedModule(b.vm_name, b.module_name, b.base, b.image,
                      header_regions=b.header_regions + [
                          Region("SECTION_HEADER[.hook]", 0, 40),
                          Region("SECTION_HEADER[.stub]", 40, 80)],
                      code_regions=list(b.code_regions))
pair = checker.compare_pair(a, hooked)
print([c.hex() for c in charges])
print(pair.mismatched_regions)
"""


def test_charges_and_region_order_independent_of_hash_seed():
    outputs = []
    # under set order, these seeds give 3 charge sequences, 2 orders
    for seed in ("0", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                             capture_output=True, text=True, env=env,
                             cwd=ROOT, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "('SECTION_HEADER[.hook]', 'SECTION_HEADER[.stub]')" in outputs[0]


# -- ModChecker: one batch, per-pair charges, events and replay --------------

def _per_pair_compare(mc: ModChecker):
    """The per-pair loop the batch replaced, as a reference: look up,
    compare, store and emit one job at a time. A stored pair replays
    free and counts in ``pair_replays``."""

    def compare(jobs):
        pairs, work = [], []
        for mod_a, mod_b in jobs:
            start = mc._work()
            key = (mod_a.module_name, mod_a.vm_name, mod_b.vm_name)
            guard = mc._guard(mod_a, mod_b)
            entry = mc._entry(key, guard)
            if entry is not None:
                pair = entry.result
                mc.pair_replays += 1
                mc.checker.emit_pair(mod_a.module_name, pair)
            else:
                pair = mc.checker.compare_pair(mod_a, mod_b)
                if guard is not None:
                    mc._ledger.put(key, Entry(guard, pair, ()))
            pairs.append(pair)
            work.append(mc._work() - start)
        return pairs, work

    return compare


def _three_rounds(tb, mc) -> None:
    """Pairwise and target checks over 3 rounds, Dom3 patched in 2."""
    for round_ in range(3):
        if round_ == 1:
            RuntimeCodePatchAttack().apply(
                tb.hypervisor.domain("Dom3").kernel, tb.catalog["hal.dll"])
        for module in ("hal.dll", "http.sys"):
            mc.check_pool(module)
        mc.check_on_vm("hal.dll", "Dom2")


def _newcomer_first(tb, mc) -> None:
    """Dom1-Dom6's 15 pairs stored, then the 5 (Dom1, *) pairs again
    (Dom1 patched), then a round led by Dom7: its 6 new pairs evict 5
    older entries that were hits when the round began; each recomputed
    pair's store evicts the next, up to the (Dom1, *) pairs."""
    six = tb.vm_names[:6]
    mc.check_pool("hal.dll", vms=six)
    RuntimeCodePatchAttack().apply(tb.hypervisor.domain("Dom1").kernel,
                                   tb.catalog["hal.dll"])
    mc.check_pool("hal.dll", vms=six)
    mc.check_pool("hal.dll", vms=tb.vm_names[6:] + six)


def _soak(reference: bool, scenario=_three_rounds, *, vms: int = 6,
          workers: int = 1, cache: int | None = None, **kwargs) -> dict:
    """Run ``scenario`` with the batch or the per-pair reference loop;
    returns everything the batch must leave unchanged."""
    tb = build_testbed(vms, seed=42)
    obs = make_observability(tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs, workers=workers,
                    **kwargs)
    if cache is not None:
        mc._ledger = LRUCache(cache)
    if reference:
        mc._compare_pairs = _per_pair_compare(mc)
    work: list = []
    inner = mc._compare_pairs

    def metered(jobs):
        pairs, pair_work = inner(jobs)
        work.append([w.hex() for w in pair_work])
        return pairs, pair_work

    mc._compare_pairs = metered
    scenario(tb, mc)
    return {"events": obs.events.to_jsonl(), "clock": tb.clock.now.hex(),
            "work": work, "replays": mc.pair_replays,
            "cache": mc._ledger.keys(),
            "dom0": tb.hypervisor.dom0_cpu_seconds.hex()}


class TestModCheckerBatch:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_full_mode_equals_per_pair_loop(self, workers):
        assert _soak(False, workers=workers) == _soak(True, workers=workers)

    def test_incremental_equals_per_pair_loop(self):
        """Replayed and computed pairs keep their order."""
        got = _soak(False, incremental=True)
        assert got == _soak(True, incremental=True)
        assert got["replays"] > 0

    def test_store_evicts_a_later_hit(self):
        """A store made earlier in the walk evicts a later hit, as the
        per-pair loop's store does before that pair's lookup: the hit
        is computed again, and charged."""
        kwargs = dict(vms=7, cache=16, incremental=True)
        got = _soak(False, _newcomer_first, **kwargs)
        assert got == _soak(True, _newcomer_first, **kwargs)
        assert got["replays"] == 10 + 5      # not 10 + 15

    def test_pair_events_and_charges_equal_across_workers(self):
        """``workers=4`` defers each pair's charge into the phase sink:
        the same ``pair.compared`` stream, and per-pair work that sums
        to the sequential run's Dom0 CPU."""
        seq, par = _soak(False), _soak(False, workers=4)

        def pair_events(jsonl):         # all but the simulated time
            records = (json.loads(line) for line in jsonl.splitlines())
            return [{k: v for k, v in r.items() if k != "t"}
                    for r in records if r["event"] == "pair.compared"]

        assert pair_events(seq["events"]) == pair_events(par["events"])
        assert seq["dom0"] == par["dom0"]
        assert [len(w) for w in seq["work"]] == [len(w) for w in par["work"]]
