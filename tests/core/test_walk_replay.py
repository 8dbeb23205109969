"""Differential tests: a ledger replay equals re-running the work.

The replay ledger (:mod:`repro.ledger`) serves three kinds of step: an
LDR walk (one entry per session; its warm half is replayed while every
page it read is still cached as recorded, its cold half into caches a
flush emptied while every frame it read holds the same bytes), a
canonical-vote member step and a pairwise comparison (both replayed
while the two copies' content keys hold).
Each scenario here runs two identically seeded worlds step by step. In
the *real* world every walk drops its session's entry first and
every vote's ledger lookup misses, so all the work re-runs; in the
*replay* world entries replay whenever their guard holds. After every step both worlds must agree on the
step's outcome and on the whole observable state: every ``VMIStats``
field, each cache's hits, misses and key order, ``hv.dom0_cpu_seconds``,
the simulated clock, the deferred sink's total, the fault injector's
read count, and (when enabled) every tracer span and charge. Floats
compare as ``float.hex``. That is the contract of the ``recharge``
policy (``walk`` and ``canonical``); a ``free`` replay (``pair``)
charges nothing and counts itself in ``pair_replays`` instead.
"""

from __future__ import annotations

import dataclasses
import struct
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import repro.core.modchecker as modchecker_module
import repro.vmi.core as vmi_module
from repro import ledger
from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import FLEET_VARIANTS, Fleet, build_fleet_testbed, \
    build_testbed
from repro.core import ModChecker, ModuleSearcher
from repro.errors import IntrospectionFault
from repro.guest.unicode_string import UnicodeString
from repro.hypervisor.clock import SimClock
from repro.hypervisor.faults import FaultConfig, FaultInjector
from repro.obs import NULL_METRICS, NULL_TRACER, Observability, Tracer, \
    make_observability
from repro.vmi import LRUCache, VMIInstance
from repro.vmi.core import _last_access_order

SEED = 42


@pytest.fixture
def replays(monkeypatch):
    """Counts walks served by :meth:`VMIInstance.replay_walk`."""
    served = []

    def counting(self, _original=VMIInstance.replay_walk):
        entries = _original(self)
        if entries is not None:
            served.append(self.domain.name)
        return entries

    monkeypatch.setattr(VMIInstance, "replay_walk", counting)
    return served


@pytest.fixture
def kinds(monkeypatch):
    """Counts :func:`repro.ledger.replay` calls by kind."""
    served = Counter()
    for module in (vmi_module, modchecker_module):
        def counting(kind, *args, _replay=module.replay):
            served[kind] += 1
            return _replay(kind, *args)

        monkeypatch.setattr(module, "replay", counting)
    return served


@pytest.fixture
def real_runs(monkeypatch):
    """Context factory: inside it, every walk drops its entry first and
    every ledger lookup of a pool vote misses, so all work re-runs."""
    original = ModuleSearcher.list_modules

    def forced(self):
        self.vmi.walk_record = None
        return original(self)

    @contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(ModuleSearcher, "list_modules", forced)
            m.setattr(ModChecker, "_entry", lambda *_: None)
            yield

    return context


def _state(world) -> dict:
    hv = world.hv
    out = {"clock": hv.clock.now.hex(), "dom0": hv.dom0_cpu_seconds.hex()}
    if world.injector is not None:
        out["faults"] = world.injector.stats.as_dict()
    if world.tracer is not None:
        out["spans"] = [(s.name, s.span_id, s.parent_id, s.start, s.end,
                         s.attrs) for s in world.tracer.spans]
        out["charges"] = list(world.tracer.charges)
    if getattr(world, "obs", None) is not None:
        out["events"] = world.obs.events.to_jsonl()
    for i, vmi in enumerate(world.sessions()):
        out[f"{i}:{vmi.domain.name}"] = (
            dataclasses.asdict(vmi.stats),
            [(c.hits, c.misses, c.keys())
             for c in (vmi.v2p_cache, vmi.page_cache)])
    return out


def _cold_half(vmi):
    """The session's cold half: the page-table guard of its walk
    record, replayed into flushed caches (None: no record or no half)."""
    return vmi.walk_record and vmi.walk_record.guard[-1]


def _outcome(step, world):
    try:
        return "ok", step(world)
    except Exception as exc:    # both worlds must raise alike
        return "raised", type(exc).__name__, str(exc)


def _differential(build, steps, real_runs, replays):
    """Run ``steps`` on a real and a replay world; compare after each.

    Returns the replay world, each step's outcome, and the VMs whose
    walk each step replayed.
    """
    real, replay = build(), build()
    outcomes, served = [], []
    for step in steps:
        with real_runs():
            expected = _outcome(step, real)
        assert not replays, "a forced-real walk replayed"
        got = _outcome(step, replay)
        assert got == expected, step.__name__
        assert _state(replay) == _state(real), step.__name__
        outcomes.append(got)
        served.append(sorted(replays))
        replays.clear()
    return replay, outcomes, served


# -- a small pool, walked directly --------------------------------------------

def _pool(*, fault_config=None, traced=False, caches=True):
    def build():
        tb = build_testbed(3, seed=SEED)
        hv = tb.hypervisor
        tracer = Tracer(tb.clock) if traced else None
        obs = (Observability(tracer=tracer, metrics=NULL_METRICS)
               if traced else None)
        injector = (FaultInjector(fault_config, seed=SEED).install(hv)
                    if fault_config is not None else None)
        kwargs = {"obs": obs} if obs is not None else {}
        mc = ModChecker(hv, tb.profile, flush_caches_each_round=False,
                        enable_caches=caches, **kwargs)
        retired = []

        def sessions():
            return retired + [mc.vmi_for(vm) for vm in mc.pool_vm_names()]

        return SimpleNamespace(tb=tb, hv=hv, mc=mc, injector=injector,
                               tracer=tracer, retired=retired,
                               sessions=sessions)
    return build


def walk_all(world):
    """Walk every VM once, charges deferred, as a fleet round does."""
    with world.hv.deferred_charges() as sink:
        lists = [tuple(ModuleSearcher(world.mc.vmi_for(vm)).list_modules())
                 for vm in world.mc.pool_vm_names()]
    return lists, sink.total


def walk_all_clocked(world):
    """Walk every VM once with the clock advancing per charge."""
    return [tuple(ModuleSearcher(world.mc.vmi_for(vm)).list_modules())
            for vm in world.mc.pool_vm_names()]


def _ldr_page(world, vm, module):
    kernel = world.hv.domain(vm).kernel
    return kernel.module(module).ldr_entry_va & ~0xFFF


def unlink_dummy(world):
    world.hv.domain("Dom1").kernel.unload_module("dummy.sys")


def evict_hal_node_frame(world):
    """Evict the frame holding hal.dll's LDR node, as a repair write
    (``write_va_range``) does."""
    vmi = world.mc.vmi_for("Dom1")
    pa = vmi.v2p_cache.peek(_ldr_page(world, "Dom1", "hal.dll"))
    assert vmi.page_cache.pop(pa >> 12) is not None


def remap_dom1_frames(world):
    """Evict and re-read every frame Dom1's session holds, as a repair
    write's eviction and any later read do: same translations, fresh
    ``bytes`` objects carrying the guest's current contents."""
    vmi = world.mc.vmi_for("Dom1")
    for page_va in vmi.v2p_cache.keys():
        vmi.page_cache.pop(vmi.v2p_cache.peek(page_va) >> 12)
        vmi.read_u32(page_va)


def flush_dom1(world):
    world.mc.vmi_for("Dom1").flush_caches()


def retarget_head_v2p(world):
    """Point the V2P entry of the list head's page at another frame."""
    vmi = world.mc.vmi_for("Dom1")
    head_page = vmi.symbol("PsLoadedModuleList") & ~0xFFF
    node_page = _ldr_page(world, "Dom1", "hal.dll")
    assert vmi.v2p_cache.peek(head_page) is not None
    vmi.v2p_cache.put(head_page, vmi.v2p_cache.peek(node_page))


def reboot_dom2(world):
    world.retired.append(world.mc.vmi_for("Dom2"))
    world.hv.reboot("Dom2")


def _warm(n=3):
    return [walk_all] * n


ALL = ["Dom1", "Dom2", "Dom3"]
NOT_DOM1 = ["Dom2", "Dom3"]


class TestPoolDifferential:
    def test_warm_steady_state(self, real_runs, replays):
        world, outcomes, served = _differential(_pool(), _warm(4),
                                                real_runs, replays)
        # cold (recorded), then replayed warm
        assert served == [[], ALL, ALL, ALL]
        assert outcomes[1] == outcomes[2] == outcomes[3]
        assert all(v.walk_record is not None for v in world.sessions())

    def test_clocked_steady_state(self, real_runs, replays):
        _, _, served = _differential(_pool(), [walk_all_clocked] * 4,
                                     real_runs, replays)
        assert served == [[], ALL, ALL, ALL]

    def test_dkom_unlink_behind_warm_cache_serves_stale_list(
            self, real_runs, replays):
        """Both paths serve the list the warm cache still holds; closing
        the page-cache staleness hole changes both together."""
        _, outcomes, served = _differential(
            _pool(), _warm() + [unlink_dummy, walk_all], real_runs,
            replays)
        assert served[-1] == ALL
        lists, _ = outcomes[-1][1]
        assert "dummy.sys" in [e.name for e in lists[0]]

    def test_evicted_node_frame_forces_real_walk(self, real_runs,
                                                 replays):
        _, _, served = _differential(
            _pool(),
            _warm() + [evict_hal_node_frame, walk_all, walk_all, walk_all],
            real_runs, replays)
        # Dom1 re-maps the frame, walks warm (recorded), then replays
        assert served[-3:] == [NOT_DOM1, NOT_DOM1, ALL]

    def test_remapped_frames_force_real_walk(self, real_runs, replays):
        """Equal translations are not enough: a frame re-mapped as a new
        ``bytes`` object carries the unlink, so the record must miss."""
        _, outcomes, served = _differential(
            _pool(), _warm() + [unlink_dummy, walk_all, remap_dom1_frames,
                                walk_all, walk_all],
            real_runs, replays)
        assert served[-4] == ALL and served[-2:] == [NOT_DOM1, ALL]

        def dom1_names(outcome):
            lists, _ = outcome[1]
            return [e.name for e in lists[0]]

        assert "dummy.sys" in dom1_names(outcomes[-4])      # stale cache
        assert "dummy.sys" not in dom1_names(outcomes[-2])

    def test_equal_remapped_frames_force_real_walk(self, real_runs,
                                                   replays):
        """The warm guard tests each frame's identity, one pointer
        compare, not its 4 KiB of bytes: a frame re-mapped with the same
        contents is a new object, so the entry misses once."""
        _, outcomes, served = _differential(
            _pool(), _warm() + [remap_dom1_frames, walk_all, walk_all],
            real_runs, replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        assert outcomes[-1] == outcomes[2]

    def test_flush_forces_real_walks(self, real_runs, replays):
        """A session's first flush finds no cold half: Dom1 walks for
        real and records one, replays warm, and after the next flush
        replays cold."""
        _, _, served = _differential(
            _pool(), _warm() + [flush_dom1, walk_all, walk_all, flush_dom1,
                                walk_all], real_runs, replays)
        assert served[-5:] == [[], NOT_DOM1, ALL, [], ALL]

    def test_flush_keeps_the_record(self):
        world = _pool()()
        walk_all(world)
        vmi = world.mc.vmi_for("Dom1")
        record = vmi.walk_record
        assert record is not None
        vmi.flush_caches()
        assert vmi.walk_record is record

    def test_changed_v2p_entry_forces_real_walk(self, real_runs, replays):
        _, _, served = _differential(
            _pool(), _warm() + [retarget_head_v2p, walk_all, walk_all],
            real_runs, replays)
        assert served[-2] == NOT_DOM1

    def test_reboot_starts_a_session_without_record(self, real_runs,
                                                    replays):
        world, _, served = _differential(
            _pool(), _warm() + [reboot_dom2, walk_all, walk_all, walk_all],
            real_runs, replays)
        assert world.mc.vmi_for("Dom2") is not world.retired[0]
        # the new session walks cold (recorded), then replays warm
        assert served[-3:] == [["Dom1", "Dom3"], ALL, ALL]

    def test_tracer_enabled(self, real_runs, replays):
        world, _, served = _differential(
            _pool(traced=True), [walk_all_clocked] * 3, real_runs,
            replays)
        assert served[-1] == ALL
        assert any(c.op == "small_read" for c in world.tracer.charges)

    def test_inert_injector(self, real_runs, replays):
        world, _, served = _differential(
            _pool(fault_config=FaultConfig()), _warm(), real_runs,
            replays)
        assert served[-1] == ALL
        assert world.injector.stats.reads > 0

    def test_live_injector(self, real_runs, replays):
        world, _, served = _differential(
            _pool(fault_config=FaultConfig(transient_rate=0.02)),
            _warm(4), real_runs, replays)
        assert served[-1] == ALL
        assert world.injector.stats.transient > 0


class TestRecordScope:
    def test_only_a_cold_walk_after_a_flush_records(self):
        """Only a cold walk after ``flush_caches`` records a cold half:
        a fresh session's first walk is cold but records the warm half
        alone. A warm walk then replays the same entry, and the next
        flush keeps it."""
        world = _pool()()
        walk_all(world)
        assert all(v.walk_record is not None and _cold_half(v) is None
                   for v in world.sessions())
        cold_walk_all(world)
        assert all(_cold_half(v) is not None for v in world.sessions())
        vmi = world.mc.vmi_for("Dom1")
        record = vmi.walk_record
        walk_all(world)
        assert vmi.walk_record is record
        vmi.flush_caches()
        assert vmi.walk_record is record

    def test_caches_off_never_records(self):
        tb = build_testbed(2, seed=SEED)
        vmi = VMIInstance(tb.hypervisor, "Dom1", tb.profile,
                          enable_caches=False)
        for _ in range(3):
            ModuleSearcher(vmi).list_modules()
        assert vmi.walk_record is None

    def test_caches_switched_off_never_replay(self):
        world = _pool()()
        walk_all(world)
        walk_all(world)
        vmi = world.mc.vmi_for("Dom1")
        assert vmi.walk_record is not None
        vmi.enable_caches = False
        mapped = vmi.stats.pages_mapped
        ModuleSearcher(vmi).list_modules()
        assert vmi.stats.pages_mapped > mapped
        assert vmi.walk_record is None

    def test_failed_walk_clears_the_record(self):
        world = _pool()()
        walk_all(world)
        walk_all(world)
        vmi = world.mc.vmi_for("Dom1")
        assert vmi.walk_record is not None
        kernel = world.hv.domain("Dom1").kernel
        head = vmi.symbol("PsLoadedModuleList")
        first = struct.unpack("<I", kernel.aspace.read(head, 4))[0]
        kernel.aspace.write(first, struct.pack("<I", 0))
        vmi.flush_caches()
        with pytest.raises(IntrospectionFault, match="NULL FLINK"):
            ModuleSearcher(vmi).list_modules()
        assert vmi.walk_record is None


# -- cold walks: replayed after a flush while every frame read holds ----------

def cold_walk_all(world):
    """Flush every session, then walk every VM, charges deferred."""
    for vm in world.mc.pool_vm_names():
        world.mc.vmi_for(vm).flush_caches()
    return walk_all(world)


def cold_walk_all_clocked(world):
    """Flush every session, then walk every VM with the clock advancing
    per charge."""
    for vm in world.mc.pool_vm_names():
        world.mc.vmi_for(vm).flush_caches()
    return walk_all_clocked(world)


def _cold(n=3):
    return [cold_walk_all] * n


def retarget_hal_node_pte(world):
    """Map the page holding hal.dll's LDR node onto a fresh frame with
    the same bytes: only a page-table frame changes."""
    kernel = world.hv.domain("Dom1").kernel
    page_va = _ldr_page(world, "Dom1", "hal.dll")
    frame = kernel.aspace.frame_allocator.alloc()
    kernel.memory.write(frame << 12, kernel.aspace.read(page_va, 0x1000))
    kernel.aspace.page_tables.map_page(page_va, frame)


def move_hal_node(world):
    """Map the page holding hal.dll's LDR node onto a fresh frame whose
    copy of the node claims a larger ``SizeOfImage``. The old frame
    keeps its bytes: only a page-table entry tells the two apart."""
    kernel = world.hv.domain("Dom1").kernel
    node = kernel.module("hal.dll").ldr_entry_va
    page = bytearray(kernel.aspace.read(node & ~0xFFF, 0x1000))
    at = (node & 0xFFF) \
        + world.mc.profile.offset("LDR_DATA_TABLE_ENTRY.SizeOfImage")
    size, = struct.unpack_from("<I", page, at)
    struct.pack_into("<I", page, at, size + 0x1000)
    frame = kernel.aspace.frame_allocator.alloc()
    kernel.memory.write(frame << 12, bytes(page))
    kernel.aspace.page_tables.map_page(node & ~0xFFF, frame)


def drop_dom1_record(world):
    world.mc.vmi_for("Dom1").walk_record = None


def _hal_size(outcome):
    lists, _ = outcome[1]
    return next(e.size_of_image for e in lists[0] if e.name == "hal.dll")


def rename_hal(world):
    """Rewrite hal.dll's ``BaseDllName`` buffer in place, same length."""
    kernel = world.hv.domain("Dom1").kernel
    off = world.mc.profile.offset("LDR_DATA_TABLE_ENTRY.BaseDllName")
    us = UnicodeString.unpack(kernel.aspace.read(
        kernel.module("hal.dll").ldr_entry_va + off, UnicodeString.SIZE))
    name = "HAL.DLL".encode("utf-16-le")
    assert us.length == len(name)
    kernel.aspace.write(us.buffer, name)


def spoof_last_name(world):
    """Point the last module's ``BaseDllName`` at the first module's
    name buffer: the walk revisits the first node's page near its end,
    so last-access order is no longer first-access order."""
    kernel = world.hv.domain("Dom1").kernel
    off = world.mc.profile.offset("LDR_DATA_TABLE_ENTRY.BaseDllName")
    first, *_, last = (m.ldr_entry_va for m in kernel.modules.values())
    kernel.aspace.write(last + off,
                        kernel.aspace.read(first + off, UnicodeString.SIZE))


def subscribe_renamer(world):
    """A guest writer on ``clock.on_advance``: renames hal.dll on the
    fifth advance after it subscribes, in the middle of Dom1's walk."""
    advances = []

    def writer(now):
        advances.append(now)
        if len(advances) == 5:
            rename_hal(world)

    world.hv.clock.on_advance.append(writer)


def _installer(config):
    def install_injector(world):
        world.injector = FaultInjector(config, seed=SEED).install(world.hv)
    return install_injector


def uninstall_injector(world):
    world.injector.uninstall()


def pause_dom1(world):
    world.hv.pause("Dom1")


def unpause_dom1(world):
    world.hv.unpause("Dom1")


def migrate_dom1(world):
    world.hv.migrate_start("Dom1")


def finish_dom1(world):
    world.hv.migrate_finish("Dom1")


def _dom1_names(outcome):
    lists, _ = outcome[1]
    return [e.name for e in lists[0]]


class TestColdDifferential:
    def test_cold_rounds(self, real_runs, replays):
        world, outcomes, served = _differential(_pool(), _cold(4),
                                                real_runs, replays)
        # recorded by the first flushed walk, replayed after each flush
        assert served == [[], ALL, ALL, ALL]
        assert outcomes[0] == outcomes[1] == outcomes[3]
        assert all(_cold_half(v) is not None for v in world.sessions())

    def test_clocked_cold_rounds(self, real_runs, replays):
        _, _, served = _differential(_pool(), [cold_walk_all_clocked] * 3,
                                     real_runs, replays)
        assert served == [[], ALL, ALL]

    def test_dkom_unlink_between_rounds(self, real_runs, replays):
        _, outcomes, served = _differential(
            _pool(), _cold(2) + [unlink_dummy] + _cold(2), real_runs,
            replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        assert "dummy.sys" in _dom1_names(outcomes[1])
        assert "dummy.sys" not in _dom1_names(outcomes[-2])

    def test_page_table_write_retargets_a_page(self, real_runs, replays):
        world, outcomes, served = _differential(
            _pool(), _cold(2) + [retarget_hal_node_pte] + _cold(2),
            real_runs, replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        assert outcomes[-2] == outcomes[1]      # same list, new frame
        # the re-recorded entry maps the page to its new frame
        kernel = world.hv.domain("Dom1").kernel
        page_va = _ldr_page(world, "Dom1", "hal.dll")
        v2p_items = world.mc.vmi_for("Dom1").walk_record.guard[0]
        assert dict(v2p_items)[page_va] \
            == kernel.aspace._translator().translate(page_va)

    def test_page_table_write_to_new_bytes(self, real_runs, replays):
        """The data frames a walk read are unchanged, so only the page
        tables in the cold guard see the node move."""
        _, outcomes, served = _differential(
            _pool(), _cold(2) + [move_hal_node] + _cold(2), real_runs,
            replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        assert _hal_size(outcomes[-2]) == _hal_size(outcomes[1]) + 0x1000

    def test_warm_walk_through_a_stale_translation(self, real_runs,
                                                   replays):
        """A flushed session's V2P cache keeps hal.dll's node page on its
        old frame after the node moves. The next warm walk runs for real
        through that stale translation and records; it keeps no cold
        half (its translations are the cache's, not the page tables'),
        so the walk after the next flush runs for real and sees the
        move."""
        world, outcomes, served = _differential(
            _pool(), _cold(2) + [move_hal_node, drop_dom1_record, walk_all]
            + _cold(2), real_runs, replays)
        assert served[-3:] == [NOT_DOM1, NOT_DOM1, ALL]
        assert _hal_size(outcomes[-3]) == _hal_size(outcomes[1])
        assert _hal_size(outcomes[-2]) == _hal_size(outcomes[1]) + 0x1000
        assert _cold_half(world.mc.vmi_for("Dom1")) is not None

    def test_revisited_page_keeps_last_access_order(self, real_runs,
                                                    replays):
        world, outcomes, served = _differential(
            _pool(), _cold(2) + [spoof_last_name] + _cold(2), real_runs,
            replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        names = _dom1_names(outcomes[-1])
        assert names[0] == names[-1]
        keys = world.mc.vmi_for("Dom1").v2p_cache.keys()
        assert keys != sorted(keys)
        assert keys[-2] == _ldr_page(world, "Dom1", names[0])

    def test_base_dll_name_write(self, real_runs, replays):
        _, outcomes, served = _differential(
            _pool(), _cold(2) + [rename_hal] + _cold(2), real_runs,
            replays)
        assert served[-2:] == [NOT_DOM1, ALL]
        assert "HAL.DLL" in _dom1_names(outcomes[-2])
        assert "hal.dll" not in _dom1_names(outcomes[-2])

    @pytest.mark.parametrize("config", [
        FaultConfig(), FaultConfig(transient_rate=0.02)],
        ids=["inert", "live"])
    def test_injector_sees_every_read(self, config, real_runs, replays):
        """An installed injector, inert or live, draws once per read:
        no walk replays under it and the draws match read for read."""
        world, _, served = _differential(
            _pool(), _cold(2) + [_installer(config)] + _cold(2)
            + [uninstall_injector] + _cold(2), real_runs, replays)
        assert served[1] == ALL
        assert served[3:5] == [[], []]
        assert served[-2:] == [[], ALL]
        assert world.injector.stats.reads > 0

    def test_injector_from_the_start_never_records(self, real_runs,
                                                   replays):
        """No cold half is recorded under an injector, so no flushed
        walk replays; the warm half alone is kept."""
        world, _, served = _differential(
            _pool(fault_config=FaultConfig()), _cold(3), real_runs,
            replays)
        assert served == [[], [], []]
        assert all(v.walk_record is not None and _cold_half(v) is None
                   for v in world.sessions())

    def test_racing_writer_on_clock(self, real_runs, replays):
        """A subscriber that can fire mid-walk stops replay: the real
        walk sees its write. Under deferred charges it cannot fire, and
        replay resumes."""
        _, outcomes, served = _differential(
            _pool(),
            [cold_walk_all_clocked] * 2 + [subscribe_renamer]
            + [cold_walk_all_clocked] * 2 + _cold(2),
            real_runs, replays)
        assert served[1] == ALL
        assert served[3:5] == [[], []]
        assert "HAL.DLL" in [e.name for e in outcomes[3][1][0]]
        assert served[-2:] == [[], ALL]

    @pytest.mark.parametrize("step", [cold_walk_all, cold_walk_all_clocked])
    def test_tracer_enabled(self, step, real_runs, replays):
        world, _, served = _differential(_pool(traced=True), [step] * 3,
                                         real_runs, replays)
        assert served[-1] == ALL
        assert any(s.name == "vmi.read_page" for s in world.tracer.spans)

    def test_caches_off(self, real_runs, replays):
        world, _, served = _differential(_pool(caches=False), _cold(3),
                                         real_runs, replays)
        assert served == [[], [], []]
        assert all(v.walk_record is None for v in world.sessions())

    def test_paused_domain_replays(self, real_runs, replays):
        _, _, served = _differential(
            _pool(), _cold(2) + [pause_dom1] + _cold(1) + [unpause_dom1]
            + _cold(1), real_runs, replays)
        assert served[3] == served[-1] == ALL

    def test_migrating_domain_raises_alike(self, real_runs, replays):
        _, outcomes, served = _differential(
            _pool(), _cold(2) + [migrate_dom1] + _cold(1) + [finish_dom1]
            + _cold(2), real_runs, replays)
        assert outcomes[3][0] == "raised" and served[3] == []
        # the failed check dropped Dom1's entry: it records, then replays
        assert served[-2:] == [NOT_DOM1, ALL]

    def test_reboot(self, real_runs, replays):
        world, _, served = _differential(
            _pool(), _cold(2) + [reboot_dom2] + _cold(3), real_runs,
            replays)
        assert world.mc.vmi_for("Dom2") is not world.retired[0]
        # the new session's first walk follows a flush: it records
        assert served[-3:] == [["Dom1", "Dom3"], ALL, ALL]


def _flushing_pool():
    """Four VMs checked with the checker's own per-round flush."""
    def build():
        tb = build_testbed(4, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        return SimpleNamespace(
            tb=tb, hv=tb.hypervisor, mc=mc, obs=obs, injector=None,
            tracer=obs.tracer,
            sessions=lambda: [mc.vmi_for(vm) for vm in mc.pool_vm_names()])
    return build


def test_pool_rounds_with_flush(real_runs, replays):
    steps = [pairwise_vote, canonical_vote] * 2 + [tamper_dom3] \
        + [pairwise_vote, canonical_vote]
    _, outcomes, served = _differential(_flushing_pool(), steps, real_runs,
                                        replays)
    assert served[0] == []
    assert served[1] == served[-1] == ["Dom1", "Dom2", "Dom3", "Dom4"]
    verdicts, _ = outcomes[-1][1]
    assert [vm for vm, v in verdicts.items() if not v.clean] == ["Dom3"]


# -- a sharded fleet at steady state ------------------------------------------

def _fleet():
    tb = build_fleet_testbed(24, seed=SEED, variants=FLEET_VARIANTS)
    fleet = Fleet(tb.hypervisor, shard_size=12,
                  checker_kwargs={"event_driven": True,
                                  "flush_caches_each_round": False})

    def sessions():
        return [vmi for _, shard in sorted(fleet.shards.items())
                for _, vmi in sorted(shard.checker._vmis.items())]

    return SimpleNamespace(hv=tb.hypervisor, fleet=fleet, injector=None,
                           tracer=None, sessions=sessions)


def fleet_cycle(world):
    report = world.fleet.run_cycle()
    return (str(report), dataclasses.asdict(world.fleet.stats),
            [(shard, str(alert)) for shard, alert in world.fleet.alert_log])


def test_fleet_steady_state(real_runs, replays):
    _, _, served = _differential(_fleet, [fleet_cycle] * 5, real_runs,
                                 replays)
    assert len(served[-1]) >= 24


def test_fleet_sessions_never_hold_a_cold_entry():
    """Fleet sessions keep their caches warm and never flush, so their
    first walk, the only cold one, records the warm half alone."""
    world = _fleet()
    for _ in range(3):
        fleet_cycle(world)
    sessions = world.sessions()
    assert len(sessions) >= 24
    assert all(v.walk_record is not None and _cold_half(v) is None
               for v in sessions)


# -- the vote kinds: canonical (recharge) and pair (free) ---------------------

MODULE = "hal.dll"


def _vote_pool():
    """Six VMs voting incrementally: both vote kinds can replay. (The
    caches are flushed every round, so a tamper reaches the vote.)"""
    def build():
        tb = build_testbed(6, seed=SEED)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs, incremental=True)
        return SimpleNamespace(
            tb=tb, hv=tb.hypervisor, mc=mc, obs=obs, injector=None,
            tracer=obs.tracer,
            sessions=lambda: [mc.vmi_for(vm) for vm in mc.pool_vm_names()])
    return build


def canonical_vote(world):
    report = world.mc.check_pool(MODULE, mode="canonical").report
    return report.verdicts, report.pairs


def pairwise_vote(world):
    report = world.mc.check_pool(MODULE).report
    return report.verdicts, report.pairs


def tamper_dom3(world):
    RuntimeCodePatchAttack().apply(world.hv.domain("Dom3").kernel,
                                   world.tb.catalog[MODULE])


VOTES = [canonical_vote] * 3 + [tamper_dom3] + [canonical_vote] * 2


def _compares(charges):
    return [cpu for cpu, op in charges if op == "compare"]


class TestVoteKinds:
    def test_canonical_replay_equals_recompute(self, real_runs, replays,
                                               kinds):
        """``recharge``: clock, Dom0 CPU, tracer charges, events,
        ``VMIStats`` and LRU order as if every step re-ran."""
        world, outcomes, _ = _differential(_vote_pool(), VOTES, real_runs,
                                           replays)
        # two warm rounds of five members, then Dom3's step misses once
        assert kinds["canonical"] == 5 + 5 + 4 + 5
        assert kinds["pair"] == world.mc.pair_replays == 0
        verdicts, _ = outcomes[-1][1]
        assert [vm for vm, v in verdicts.items() if not v.clean] == ["Dom3"]

    def test_pair_replay_is_free_and_counted(self, real_runs, kinds):
        real, replay = _vote_pool()(), _vote_pool()()
        for world in (real, replay):
            pairwise_vote(world)
        with real_runs(), real.hv.recorded_charges() as real_charges:
            expected = pairwise_vote(real)
        assert kinds["pair"] == 0
        traced = len(replay.tracer.charges)
        with replay.hv.recorded_charges() as replay_charges:
            got = pairwise_vote(replay)
        assert got == expected
        assert kinds["pair"] == replay.mc.pair_replays == 15
        assert real.mc.pair_replays == 0
        assert len(_compares(real_charges)) == 15
        assert _compares(replay_charges) == []
        # the replay world skips exactly the comparison charges
        assert [c for c in real_charges if c[1] != "compare"] \
            == replay_charges
        assert not [c for c in replay.tracer.charges[traced:]
                    if c.op == "compare"]

    def test_free_canonical_moves_only_the_clock(self, monkeypatch):
        """The canonical row set to ``free``: the same verdicts, events
        and counters; only the clock and the Dom0 CPU it charges move."""
        def run():
            world = _vote_pool()()
            return world, [step(world) for step in VOTES]

        recharged, want = run()
        monkeypatch.setitem(ledger.POLICY, "canonical", "free")
        freed, got = run()
        assert got == want
        assert freed.hv.clock.now < recharged.hv.clock.now
        assert freed.hv.dom0_cpu_seconds < recharged.hv.dom0_cpu_seconds

        def unclocked(world):
            state = _state(world)
            return ([(e.seq, e.name, e.check_id, e.attrs)
                     for e in world.obs.events.events],
                    {k: v for k, v in state.items()
                     if k not in ("clock", "dom0", "spans", "charges",
                                  "events")},
                    dataclasses.asdict(world.mc.stats))

        assert unclocked(freed) == unclocked(recharged)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("kind", ["walk", "pair"])
def test_replay_applies_policy_and_deltas(kind, traced):
    """One :func:`repro.ledger.replay`: ``recharge`` re-issues each
    recorded charge in order (traced under its op when the tracer is
    on), ``free`` none; the deltas apply under both."""
    charges = ((0.5, "small_read"), (0.25, "compare"), (0.125, "parse"))
    entry = ledger.Entry("guard", "result", charges, (("reads", 3),))
    issued = []
    tracer = Tracer(SimClock()) if traced else NULL_TRACER
    stats = SimpleNamespace(reads=1)
    assert ledger.replay(kind, entry, lambda *c: issued.append(c), tracer,
                         stats) == "result"
    assert stats.reads == 4
    want = charges if ledger.POLICY[kind] == "recharge" else ()
    assert tuple(issued) == want
    assert [(c.cpu, c.op) for c in tracer.charges] == list(want * traced)


def test_replay_reopens_recorded_spans():
    """A traced ``recharge`` replay charges each span-tagged charge
    inside a span of the recorded name and attributes, under the span
    open around the replay, and the rest outside it."""
    tracer = Tracer(SimClock())
    charges = ((0.5, "page_translate"), (0.25, "page_copy"),
               (0.125, "small_read"))
    spans = (None, ("vmi.read_page", {"vm": "Dom1", "frame": 7}), None)
    entry = ledger.Entry("guard", "result", charges, (), spans)
    with tracer.span("searcher.walk"):
        assert ledger.replay("walk", entry, lambda *c: None, tracer,
                             SimpleNamespace()) == "result"
    assert [(s.name, s.span_id, s.parent_id, s.attrs)
            for s in tracer.spans] == [
        ("searcher.walk", 0, None, {}),
        ("vmi.read_page", 1, 0, {"vm": "Dom1", "frame": 7})]
    assert [(c.op, c.span_id) for c in tracer.charges] == [
        ("page_translate", 0), ("page_copy", 1), ("small_read", 0)]


# -- LRU promotion order ------------------------------------------------------

@pytest.mark.parametrize("accesses", [
    [3, 1, 3, 7, 1, 0],
    [5, 5, 5],
    [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
    [2, 4, 2, 4, 2],
])
def test_replay_hits_leaves_a_run_of_gets_order(accesses):
    """A run of ``get`` hits leaves the touched keys, in last-access
    order, behind every untouched key; ``replay_hits`` with that order
    reproduces the ``OrderedDict`` and the hit count exactly."""
    def filled():
        cache = LRUCache(16)
        for key in range(10):
            cache.put(key, f"v{key}")
        return cache

    ran, replayed = filled(), filled()
    for key in accesses:
        assert ran.get(key) is not None
    last_access = _last_access_order(accesses)
    replayed.replay_hits(last_access, len(accesses))
    assert replayed.keys() == ran.keys()
    assert tuple(ran.keys()[-len(last_access):]) == last_access
    assert (replayed.hits, replayed.misses) == (ran.hits, ran.misses)


@pytest.mark.parametrize("accesses", [
    [3, 1, 3, 7, 1, 0],
    [5, 5, 5],
    [2, 4, 2, 4, 2, 9],
])
def test_load_leaves_a_run_from_empty(accesses):
    """``load`` with a run's ``items()`` and counts reproduces the state
    a run of get-then-put-on-miss accesses leaves in an empty cache."""
    ran, loaded = LRUCache(16), LRUCache(16)
    for key in accesses:
        if ran.get(key) is None:
            ran.put(key, f"v{key}")
    loaded.load(ran.items(), ran.hits, ran.misses)
    assert loaded.items() == ran.items()
    assert (loaded.hits, loaded.misses) == (ran.hits, ran.misses)
