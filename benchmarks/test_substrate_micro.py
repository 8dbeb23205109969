"""Substrate micro-benchmarks: the building blocks' real wall-clock cost.

Not a paper figure — engineering telemetry for the simulation itself:
how fast we can build drivers, boot clones, introspect memory and hash
modules. Useful when scaling experiments up (e.g. 100-VM pools).
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.core import IntegrityChecker, ModChecker, ModuleSearcher
from repro.guest import GuestKernel, build_catalog
from repro.hypervisor import Hypervisor
from repro.pe import build_driver, map_file_to_memory
from repro.vmi import OSProfile, VMIInstance

SEED = 42

#: rounds behind each interleaved same-run ratio (min of N per side)
RATIO_ROUNDS = 30


def interleaved_mins(numerator, denominator,
                     rounds: int = RATIO_ROUNDS) -> tuple[float, float]:
    """Time two callables alternately; the min of ``rounds`` each.

    Interleaving puts both sides of a ratio under the same runner load,
    and the min discards the rounds a burst of load slowed down.
    """
    best_num = best_den = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        numerator()
        t1 = time.perf_counter()
        denominator()
        t2 = time.perf_counter()
        best_num, best_den = min(best_num, t1 - t0), min(best_den, t2 - t1)
    return best_num, best_den


def test_bench_build_driver(benchmark):
    bp = benchmark(lambda: build_driver("bench.sys", seed=SEED))
    assert bp.file_bytes[:2] == b"MZ"


def test_bench_build_catalog(benchmark):
    catalog = benchmark(lambda: build_catalog(seed=SEED))
    assert len(catalog) == 10


def test_bench_boot_guest(benchmark, catalog):
    counter = iter(range(10_000))

    def boot():
        kernel = GuestKernel(f"bench{next(counter)}", seed=1)
        kernel.boot(catalog)
        return kernel

    kernel = benchmark(boot)
    assert kernel.list_entry_count() == 10


def test_bench_map_file_to_memory(benchmark, catalog):
    bp = catalog["ntoskrnl.exe"]
    image = benchmark(lambda: map_file_to_memory(bp.file_bytes))
    assert len(image) == bp.size_of_image


def test_bench_vmi_module_copy(benchmark, catalog):
    hv = Hypervisor()
    hv.create_guest("Dom1", catalog, seed=1)
    profile = OSProfile.from_guest(hv.domain("Dom1").kernel)

    def copy():
        vmi = VMIInstance(hv, "Dom1", profile, enable_caches=False)
        return ModuleSearcher(vmi).copy_module("ntoskrnl.exe")

    result = benchmark(copy)
    assert result.image[:2] == b"MZ"


@pytest.fixture(scope="module")
def image_env(catalog):
    """A guest carrying a ~200-page driver image for the read pair.

    The catalog modules are all ≤10 pages — small enough that fixed
    per-call overhead swamps the per-page loop the batch path
    eliminates — so the acquisition benchmarks read a deliberately
    large image, the regime the vectorised path exists for.
    """
    big = build_driver("bigimage.sys", seed=9, n_functions=600,
                       avg_function_size=800, data_size=0x40000)
    cat = dict(catalog, **{"bigimage.sys": big})
    hv = Hypervisor()
    hv.create_guest("Dom1", cat, seed=1)
    profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
    mod = hv.domain("Dom1").kernel.module("bigimage.sys")
    return hv, profile, mod


def _image_reader(image_env, batch: bool):
    hv, profile, mod = image_env

    def read():
        vmi = VMIInstance(hv, "Dom1", profile, enable_caches=False,
                          batch=batch)
        return vmi.read_va(mod.base, mod.size_of_image)

    return read


def test_bench_vmi_read_image_scalar(benchmark, image_env):
    """The per-page reference loop over a large module image."""
    image = benchmark(_image_reader(image_env, False))
    assert image[:2] == b"MZ"


def test_bench_vmi_read_image_batch(benchmark, image_env):
    """The vectorised acquisition path over the same image.

    Also times scalar and batch reads interleaved and records the min
    of :data:`RATIO_ROUNDS` of each in ``extra_info``: the
    ``batch-read-speedup`` wall-clock tier gates their ratio.
    """
    scalar, batch = (_image_reader(image_env, b) for b in (False, True))
    image = benchmark(batch)
    assert image[:2] == b"MZ" and image == scalar()
    scalar_s, batch_s = interleaved_mins(scalar, batch)
    benchmark.extra_info.update(scalar_min_s=scalar_s, batch_min_s=batch_s)


@pytest.fixture(scope="module")
def warm_walk_env(catalog):
    """A session whose list pages are all in both Dom0 caches."""
    hv = Hypervisor()
    hv.create_guest("Dom1", catalog, seed=1)
    profile = OSProfile.from_guest(hv.domain("Dom1").kernel)
    vmi = VMIInstance(hv, "Dom1", profile)
    searcher = ModuleSearcher(vmi)
    searcher.list_modules()                 # cold: fills both caches
    return vmi, searcher


def _warm_walker(vmi, searcher):
    """A warm walk that re-issues its reads and records anew."""
    def walk():
        vmi.walk_record = None
        return searcher.list_modules()
    return walk


def test_bench_walk_warm_real(benchmark, warm_walk_env):
    """A warm LDR walk that re-issues its reads (record dropped first).

    :func:`test_bench_walk_replayed` times it against the replayed walk
    for the ``walk-replay-speedup`` wall-clock tier.
    """
    vmi, searcher = warm_walk_env
    entries = benchmark(_warm_walker(vmi, searcher))
    assert len(entries) == 10


def _cold_walker(vmi, searcher, *, real: bool):
    """A flushed walk: real (record dropped first, so every page is
    walked and mapped again and the walk records anew) or replayed."""
    def walk():
        if real:
            vmi.walk_record = None
        vmi.flush_caches()
        return searcher.list_modules()
    return walk


def test_bench_walk_cold(benchmark, warm_walk_env):
    """A real cold LDR walk: both caches flushed, the record dropped,
    every page walked and mapped again — the discovery the
    pool and daemon workloads paid each round after ``flush_caches``
    before cold-walk replay."""
    vmi, searcher = warm_walk_env
    mapped = vmi.stats.pages_mapped
    entries = benchmark(_cold_walker(vmi, searcher, real=True))
    assert len(entries) == 10
    assert vmi.stats.pages_mapped > mapped
    assert vmi.walk_record.guard[-1] is not None    # the cold half


def test_bench_walk_replayed(benchmark, warm_walk_env):
    """The same warm walk served from the session's record.

    Also times real and replayed warm walks interleaved and records the
    min of :data:`RATIO_ROUNDS` of each in ``extra_info``: the
    ``walk-replay-speedup`` wall-clock tier gates their ratio.
    """
    vmi, searcher = warm_walk_env
    searcher.list_modules()                 # (re-)record
    entries = benchmark(searcher.list_modules)
    assert len(entries) == 10
    assert vmi.walk_record is not None
    real_s, replayed_s = interleaved_mins(_warm_walker(vmi, searcher),
                                          searcher.list_modules)
    assert vmi.walk_record is not None
    benchmark.extra_info.update(real_min_s=real_s, replayed_min_s=replayed_s)


def test_bench_walk_cold_replayed(benchmark, warm_walk_env):
    """The same flushed walk served from the record's cold half.

    Also times real and replayed cold walks interleaved and records the
    min of :data:`RATIO_ROUNDS` of each in ``extra_info``: the
    ``cold-walk-replay-speedup`` wall-clock tier gates their ratio.
    """
    vmi, searcher = warm_walk_env
    real = _cold_walker(vmi, searcher, real=True)
    replayed = _cold_walker(vmi, searcher, real=False)
    want = real()                           # (re-)record
    mapped = vmi.stats.pages_mapped
    entries = benchmark(replayed)
    assert entries == want and vmi.stats.pages_mapped > mapped
    assert vmi.walk_record.guard[-1] is not None    # the cold half
    real_s, replayed_s = interleaved_mins(real, replayed)
    benchmark.extra_info.update(real_min_s=real_s, replayed_min_s=replayed_s)


def test_bench_pool_check_scales(benchmark, tb15):
    """One full 15-VM pool check — the paper-scale operation."""
    mc = ModChecker(tb15.hypervisor, tb15.profile)
    out = benchmark(lambda: mc.check_pool("http.sys"))
    assert out.report.all_clean


def test_bench_pool_vote_batch(benchmark, tb15):
    """The paper's 15-VM pairwise vote on ``http.sys``, as one batched
    ``compare_pairs`` over the 105 pairs of parsed copies.

    Also times 105 single-pair ``compare_pair`` calls and the batch
    interleaved, and records the min of :data:`RATIO_ROUNDS` of each in
    ``extra_info``: the ``pool-vote-batch-speedup`` wall-clock tier
    gates their ratio.
    """
    mc = ModChecker(tb15.hypervisor, tb15.profile)
    parsed = mc.fetch_modules("http.sys", tb15.vm_names).parsed
    jobs = list(itertools.combinations(parsed, 2))
    checker = IntegrityChecker()

    def per_pair():
        return [checker.compare_pair(a, b) for a, b in jobs]

    def batch():
        return [pair for pair, _ in checker.compare_pairs(jobs)]

    pairs = benchmark(batch)
    assert len(pairs) == 105 and pairs == per_pair()
    assert all(p.matched for p in pairs)
    per_pair_s, batch_s = interleaved_mins(per_pair, batch)
    benchmark.extra_info.update(per_pair_min_s=per_pair_s,
                                batch_min_s=batch_s)
