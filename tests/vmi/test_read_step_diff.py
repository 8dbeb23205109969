"""Differential test: the fused per-page read step vs the old chain.

Two guests are booted from one seed. One is introspected by a
:class:`~tests.vmi.read_oracle.ReadOracle` session over memory whose
reads and gathers run the old loops; the other by a live
:class:`VMIInstance`. Both run the same seeded operation sequence:
LDR walks (forced and replayable), ``verify_cached_entry``, header and
image reads, page-straddling, zero-length and unmapped reads, physical
reads, checksum sweeps and cache flushes. After every operation the
two worlds must agree exactly on the outcome (bytes, or exception type
and text), the ordered ``(cpu_seconds, op)`` charges the operation
made, and the whole observable state: every ``VMIStats`` field, each
cache's hits, misses and key order, ``dom0_cpu_seconds`` and the clock
(as ``float.hex``), the fault injector's counters, and the tracer's
spans and charges.

The matrix crosses caches on/off, a retry policy on/off, no / an inert
/ a live fault injector, tracing on/off, a racing guest writer on
``clock.on_advance``, and caches held at capacity.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import numpy as np
import pytest

from repro.core import ModuleSearcher
from repro.errors import PhysicalAddressError
from repro.hypervisor import Hypervisor
from repro.hypervisor.faults import FaultConfig, FaultInjector
from repro.mem.paging import AddressTranslator
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.obs import NULL_OBS, make_observability
from repro.vmi import OSProfile, PageCache, V2PCache, VMIInstance
from repro.vmi.retry import RetryPolicy
from tests.vmi.read_oracle import (ReadOracle, install_oracle_memory,
                                   oracle_gather_frames,
                                   oracle_physical_read)

SEED = 3
OPS = 160
#: VAs whose PDE is not present (user space, the top of the address
#: space); the "unmapped" step adds the page below the first module,
#: whose PTE is not present
UNMAPPED = (0x00400000, 0xC0000000, 0xFFFF0000)

LIVE = FaultConfig(transient_rate=0.06, torn_page_rate=0.04,
                   paged_out_rate=0.02, paged_out_duration=0.003,
                   unreachable_rate=0.004, unreachable_duration=0.004)


@dataclasses.dataclass
class World:
    hv: Hypervisor
    vmi: VMIInstance
    searcher: ModuleSearcher
    injector: FaultInjector | None
    tracer: object | None


def racing_writer(kernel, seed: int):
    """A guest that rewrites 4 bytes of ``hal.dll`` (headers included)
    or of an LDR node (its fields and the start of its name payloads)
    on one simulated-clock advance in five, from its own seeded
    stream."""
    rng = random.Random(seed)
    hal = kernel.module("hal.dll")
    targets = [(hal.base, hal.size_of_image)] + [
        (mod.ldr_entry_va, 0x80) for mod in kernel.modules.values()]

    def write(now: float) -> None:
        if rng.random() < 0.2:
            va, size = rng.choice(targets)
            kernel.aspace.write(va + rng.randrange(size - 4),
                                rng.randbytes(4))

    return write


def make_world(catalog, *, oracle: bool, caches: bool, retry: bool,
               faults: str | None, traced: bool, writer: bool,
               at_capacity: bool) -> World:
    hv = Hypervisor()
    hv.create_guest("Dom1", catalog, seed=SEED)
    kernel = hv.domain("Dom1").kernel
    if oracle:
        install_oracle_memory(kernel.memory)
    obs = make_observability(hv.clock) if traced else NULL_OBS
    cls = ReadOracle if oracle else VMIInstance
    vmi = cls(hv, "Dom1", OSProfile.from_guest(kernel),
              enable_caches=caches, retry=RetryPolicy() if retry else None,
              obs=obs)
    if at_capacity:
        # smaller than one walk's working set: every walk evicts
        vmi.v2p_cache, vmi.page_cache = V2PCache(6), PageCache(4)
    injector = None
    if faults is not None:
        injector = FaultInjector(LIVE if faults == "live" else FaultConfig(),
                                 seed=SEED).install(hv)
    if writer:
        hv.clock.on_advance.append(racing_writer(kernel, SEED))
    return World(hv, vmi, ModuleSearcher(vmi), injector,
                 obs.tracer if traced else None)


def operations(kernel, seed: int):
    """``OPS`` seeded ``(name, fn(world))`` steps over ``kernel``'s
    layout (read from the guest, not through VMI)."""
    rng = random.Random(seed)
    mods = sorted(kernel.modules.values(), key=lambda m: m.base)
    translate = AddressTranslator(kernel.memory, kernel.cr3).translate

    def walk(w):
        w.vmi.walk_record = None
        return w.searcher.list_modules()

    def read(va, n):
        return lambda w: w.vmi.read_va(va, n)

    def make(kind):
        mod = rng.choice(mods)
        page = mod.base + PAGE_SIZE * rng.randrange(mod.size_of_image
                                                    // PAGE_SIZE)
        if kind == "walk":
            return walk
        if kind == "walk-or-replay":
            return lambda w: w.searcher.list_modules()
        if kind == "verify":
            return lambda w: w.searcher.verify_cached_entry(
                mod.ldr_entry_va, dll_base=mod.base,
                size_of_image=mod.size_of_image)
        if kind == "header":
            return read(mod.base, 0x400)
        if kind == "image":
            return read(mod.base, mod.size_of_image)
        if kind == "batch":
            start = mod.base + rng.randrange(0x800)
            return lambda w: w.vmi.read_va_range_batch(
                start, mod.size_of_image - 0x800)
        if kind == "straddle":
            start = page + PAGE_SIZE - rng.randrange(1, 16)
            return read(start, rng.randrange(16, 2 * PAGE_SIZE + 64))
        if kind == "zero":
            return read(page + rng.randrange(PAGE_SIZE), 0)
        if kind == "u32":
            va = page + rng.randrange(PAGE_SIZE - 4)
            return lambda w: w.vmi.read_u32(va)
        if kind == "u16":
            va = page + rng.randrange(PAGE_SIZE - 2)
            return lambda w: w.vmi.read_u16(va)
        if kind == "unmapped":
            va = rng.choice(UNMAPPED + (mods[0].base - PAGE_SIZE,))
            return read(va + rng.randrange(PAGE_SIZE), rng.randrange(1, 64))
        if kind == "straddle-into-unmapped":
            last = mods[-1]
            return read(last.base + last.size_of_image - 8, 16)
        if kind == "pa":
            pa = translate(page) + rng.randrange(PAGE_SIZE)
            n = rng.choice((0, 4, 64, PAGE_SIZE, PAGE_SIZE + 100))
            return lambda w: w.vmi.read_pa(pa, n)
        if kind == "checksum":
            return lambda w: w.vmi.checksum_va_range(mod.base,
                                                     mod.size_of_image)
        assert kind == "flush"
        return lambda w: w.vmi.flush_caches()

    kinds = ["walk", "walk-or-replay", "verify", "header", "image",
             "batch", "straddle", "zero", "u32", "u16", "unmapped",
             "straddle-into-unmapped", "pa", "checksum", "flush"]
    weights = [6, 4, 6, 3, 2, 2, 4, 2, 6, 2, 2, 1, 3, 1, 2]
    return [(kind, make(kind))
            for kind in rng.choices(kinds, weights, k=OPS)]


def outcome(fn, world):
    with world.hv.recorded_charges() as charges:
        try:
            result = ("ok", fn(world))
        except Exception as exc:        # both worlds must raise alike
            result = ("raise", type(exc).__name__, str(exc),
                      type(exc.__cause__).__name__)
    return result, [(cpu.hex(), op) for cpu, op in charges]


def state(world) -> dict:
    vmi, hv = world.vmi, world.hv
    out = {"stats": dataclasses.asdict(vmi.stats),
           "caches": [(c.hits, c.misses, c.keys())
                      for c in (vmi.v2p_cache, vmi.page_cache)],
           "dom0": hv.dom0_cpu_seconds.hex(), "clock": hv.clock.now.hex()}
    if world.injector is not None:
        out["faults"] = world.injector.stats.as_dict()
    if world.tracer is not None:
        out["spans"] = [(s.name, s.span_id, s.parent_id, s.start.hex(),
                         s.end.hex() if s.end is not None else None,
                         s.attrs) for s in world.tracer.spans]
        out["charges"] = [(c.op, c.cpu.hex(), c.span_id)
                          for c in world.tracer.charges]
    return out


def run_differential(catalog, **config) -> list[str]:
    """Run both worlds in lockstep; returns the step kinds that ran."""
    old = make_world(catalog, oracle=True, **config)
    new = make_world(catalog, oracle=False, **config)
    ops = operations(new.hv.domain("Dom1").kernel, SEED)
    for step, (kind, fn) in enumerate(ops):
        assert outcome(fn, new) == outcome(fn, old), \
            f"step {step} ({kind}) diverged"
        assert state(new) == state(old), \
            f"state after step {step} ({kind}) diverged"
    return [kind for kind, _ in ops]


MATRIX = [dict(caches=caches, retry=retry, faults=faults, traced=traced,
               writer=writer, at_capacity=at_capacity)
          for caches, retry, faults, traced, writer, at_capacity
          in itertools.product((True, False), (False, True),
                               (None, "inert", "live"), (False, True),
                               (False, True), (False, True))
          if caches or not at_capacity]


def _id(config: dict) -> str:
    return "-".join([
        "caches" if config["caches"] else "nocache",
        "retry" if config["retry"] else "noretry",
        config["faults"] or "nofaults",
        "traced" if config["traced"] else "untraced",
        "writer" if config["writer"] else "still",
        "full" if config["at_capacity"] else "roomy"])


@pytest.mark.parametrize("config", MATRIX, ids=[_id(c) for c in MATRIX])
def test_read_step_matches_oracle(catalog, config):
    run_differential(catalog, **config)


def test_sequence_exercises_every_path(catalog):
    """The seeded sequence reaches the paths the matrix is about."""
    old = make_world(catalog, oracle=True, caches=True, retry=True,
                     faults="live", traced=True, writer=True,
                     at_capacity=False)
    ops = operations(old.hv.domain("Dom1").kernel, SEED)
    results = [outcome(fn, old)[0] for _, fn in ops]
    raised = {r[1] for r in results if r[0] == "raise"}
    assert {"IntrospectionFault"} <= raised
    stats = old.vmi.stats
    assert stats.retries and stats.retries_recovered
    assert stats.translation_cache_hits and stats.translations
    assert stats.page_cache_hits and stats.pages_mapped
    assert old.injector.stats.torn_pages and old.injector.stats.transient
    assert any(s.name == "retry.attempt" for s in old.tracer.spans)
    assert len({kind for kind, _ in ops}) == 15


# -- PhysicalMemory: the single-frame read and the concatenating gather -----

@pytest.fixture
def memory():
    mem = PhysicalMemory(64 * PAGE_SIZE)
    rng = np.random.default_rng(SEED)
    for frame_no in (0, 1, 5, 6, 63):
        mem.frame_view(frame_no)[:] = rng.integers(0, 256, PAGE_SIZE,
                                                   dtype=np.uint8)
    return mem


def _call(fn, *args):
    try:
        return "ok", fn(*args)
    except (PhysicalAddressError, ValueError) as exc:
        return "raise", type(exc).__name__, str(exc)


def test_physical_read_matches_oracle(memory):
    rng = random.Random(SEED)
    cases = [(0, 4), (PAGE_SIZE - 2, 4), (2 * PAGE_SIZE, 4), (0, 0),
             (memory.size, 0), (memory.size - 4, 4), (memory.size - 2, 4),
             (-1, 4), (0, -1), (5 * PAGE_SIZE + 7, 2 * PAGE_SIZE)]
    cases += [(rng.randrange(memory.size), rng.choice((1, 4, 64, 5000)))
              for _ in range(300)]
    for paddr, length in cases:
        got = _call(memory.read, paddr, length)
        assert got == _call(oracle_physical_read, memory, paddr, length)
        assert got[0] == "raise" or type(got[1]) is bytes


def test_gather_frames_matches_oracle(memory):
    for frame_nos in ([], [0], [3], [0, 5, 0, 63, 2], list(range(64)),
                      [64], [-1, 0], [[1, 2]]):
        got = _call(memory.gather_frames, frame_nos)
        want = _call(oracle_gather_frames, memory, frame_nos)
        assert got[0] == want[0]
        if got[0] == "raise":
            assert got == want
            continue
        assert got[1].dtype == np.uint8 and got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1])
        got[1][:] = 0xAA                   # a fresh, writable copy
    assert memory.read(0, 4) == oracle_physical_read(memory, 0, 4) \
        != b"\xaa" * 4
