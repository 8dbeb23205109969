"""Differential tests: a replayed LDR walk equals re-running it.

A walk whose every read was a single-page hit in both VMI caches is
recorded on its session; the next walk replays it while every page it
read is still cached as recorded. Each scenario here runs two
identically seeded worlds step by step. In the *real* world the
session's record is dropped before each walk, so every walk re-runs;
in the *replay* world walks replay whenever the record holds. After
every step both worlds must agree on the walk's outcome and on the
whole observable state: every ``VMIStats`` field, each cache's hits,
misses and key order, ``hv.dom0_cpu_seconds``, the simulated clock, the
deferred sink's total, the fault injector's read count, and (when
enabled) every tracer span and charge. Floats compare with ``==``.
"""

from __future__ import annotations

import dataclasses
import struct
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.cloud import FLEET_VARIANTS, Fleet, build_fleet_testbed, \
    build_testbed
from repro.core import ModChecker, ModuleSearcher
from repro.errors import IntrospectionFault
from repro.hypervisor.faults import FaultConfig, FaultInjector
from repro.obs import NULL_METRICS, Observability, Tracer
from repro.vmi import LRUCache, VMIInstance
from repro.vmi.core import _last_access_order

SEED = 42


@pytest.fixture
def replays(monkeypatch):
    """Counts walks served by :meth:`VMIInstance.replay_walk`."""
    served = []
    original = VMIInstance.replay_walk

    def counting(self):
        entries = original(self)
        if entries is not None:
            served.append(self.domain.name)
        return entries

    monkeypatch.setattr(VMIInstance, "replay_walk", counting)
    return served


@pytest.fixture
def real_walks(monkeypatch):
    """Context factory: inside it, every walk drops its record first."""
    original = ModuleSearcher.list_modules

    def forced(self):
        self.vmi.walk_record = None
        return original(self)

    @contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(ModuleSearcher, "list_modules", forced)
            yield

    return context


def _state(world) -> dict:
    hv = world.hv
    out = {"clock": hv.clock.now, "dom0": hv.dom0_cpu_seconds}
    if world.injector is not None:
        out["faults"] = world.injector.stats.as_dict()
    if world.tracer is not None:
        out["spans"] = [(s.name, s.span_id, s.parent_id, s.start, s.end,
                         s.attrs) for s in world.tracer.spans]
        out["charges"] = list(world.tracer.charges)
    for i, vmi in enumerate(world.sessions()):
        out[f"{i}:{vmi.domain.name}"] = (
            dataclasses.asdict(vmi.stats),
            [(c.hits, c.misses, c.keys())
             for c in (vmi.v2p_cache, vmi.page_cache)])
    return out


def _outcome(step, world):
    try:
        return "ok", step(world)
    except Exception as exc:    # both worlds must raise alike
        return "raised", type(exc).__name__, str(exc)


def _differential(build, steps, real_walks, replays):
    """Run ``steps`` on a real and a replay world; compare after each.

    Returns the replay world, each step's outcome, and the VMs whose
    walk each step replayed.
    """
    real, replay = build(), build()
    outcomes, served = [], []
    for step in steps:
        with real_walks():
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

def _pool(*, fault_config=None, traced=False):
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
                        **kwargs)
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
    def test_warm_steady_state(self, real_walks, replays):
        world, outcomes, served = _differential(_pool(), _warm(4),
                                                real_walks, replays)
        # cold, warm (recorded), then replayed
        assert served == [[], [], ALL, ALL]
        assert outcomes[1] == outcomes[2] == outcomes[3]
        assert all(v.walk_record is not None for v in world.sessions())

    def test_clocked_steady_state(self, real_walks, replays):
        _, _, served = _differential(_pool(), [walk_all_clocked] * 4,
                                     real_walks, replays)
        assert served == [[], [], ALL, ALL]

    def test_dkom_unlink_behind_warm_cache_serves_stale_list(
            self, real_walks, replays):
        """Both paths serve the list the warm cache still holds; closing
        the page-cache staleness hole changes both together."""
        _, outcomes, served = _differential(
            _pool(), _warm() + [unlink_dummy, walk_all], real_walks,
            replays)
        assert served[-1] == ALL
        lists, _ = outcomes[-1][1]
        assert "dummy.sys" in [e.name for e in lists[0]]

    def test_evicted_node_frame_forces_real_walk(self, real_walks,
                                                 replays):
        _, _, served = _differential(
            _pool(),
            _warm() + [evict_hal_node_frame, walk_all, walk_all, walk_all],
            real_walks, replays)
        # Dom1 re-maps the frame, walks warm (recorded), then replays
        assert served[-3:] == [NOT_DOM1, NOT_DOM1, ALL]

    def test_remapped_frames_force_real_walk(self, real_walks, replays):
        """Equal translations are not enough: a frame re-mapped as a new
        ``bytes`` object carries the unlink, so the record must miss."""
        _, outcomes, served = _differential(
            _pool(), _warm() + [unlink_dummy, walk_all, remap_dom1_frames,
                                walk_all, walk_all],
            real_walks, replays)
        assert served[-4] == ALL and served[-2:] == [NOT_DOM1, ALL]

        def dom1_names(outcome):
            lists, _ = outcome[1]
            return [e.name for e in lists[0]]

        assert "dummy.sys" in dom1_names(outcomes[-4])      # stale cache
        assert "dummy.sys" not in dom1_names(outcomes[-2])

    def test_flush_forces_real_walks(self, real_walks, replays):
        _, _, served = _differential(
            _pool(), _warm() + [flush_dom1, walk_all, walk_all, walk_all],
            real_walks, replays)
        assert served[-3:] == [NOT_DOM1, NOT_DOM1, ALL]

    def test_flush_drops_the_record(self):
        world = _pool()()
        walk_all(world)
        walk_all(world)
        vmi = world.mc.vmi_for("Dom1")
        assert vmi.walk_record is not None
        vmi.flush_caches()
        assert vmi.walk_record is None

    def test_changed_v2p_entry_forces_real_walk(self, real_walks, replays):
        _, _, served = _differential(
            _pool(), _warm() + [retarget_head_v2p, walk_all, walk_all],
            real_walks, replays)
        assert served[-2] == NOT_DOM1

    def test_reboot_starts_a_session_without_record(self, real_walks,
                                                    replays):
        world, _, served = _differential(
            _pool(), _warm() + [reboot_dom2, walk_all, walk_all, walk_all],
            real_walks, replays)
        assert world.mc.vmi_for("Dom2") is not world.retired[0]
        # the new session walks cold, then warm (recorded), then replays
        assert served[-3:] == [["Dom1", "Dom3"], ["Dom1", "Dom3"], ALL]

    def test_tracer_enabled(self, real_walks, replays):
        world, _, served = _differential(
            _pool(traced=True), [walk_all_clocked] * 3, real_walks,
            replays)
        assert served[-1] == ALL
        assert any(c.op == "small_read" for c in world.tracer.charges)

    def test_inert_injector(self, real_walks, replays):
        world, _, served = _differential(
            _pool(fault_config=FaultConfig()), _warm(), real_walks,
            replays)
        assert served[-1] == ALL
        assert world.injector.stats.reads > 0

    def test_live_injector(self, real_walks, replays):
        world, _, served = _differential(
            _pool(fault_config=FaultConfig(transient_rate=0.02)),
            _warm(4), real_walks, replays)
        assert served[-1] == ALL
        assert world.injector.stats.transient > 0


class TestRecordScope:
    def test_cold_walk_leaves_no_record(self):
        world = _pool()()
        walk_all(world)
        assert all(v.walk_record is None for v in world.sessions())

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


def test_fleet_steady_state(real_walks, replays):
    _, _, served = _differential(_fleet, [fleet_cycle] * 5, real_walks,
                                 replays)
    assert len(served[-1]) >= 24


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
