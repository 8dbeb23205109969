"""Differential test: the cached contention factor behind ``charge_dom0``.

``Hypervisor.charge_dom0`` caches ``dom0_slowdown(guest_demand())`` and
recomputes it only when ``Domain.demand_version`` moves. This drives a
seeded trace that changes guest demand every way the codebase can —
lifecycle events from the chaos engine, ``set_load``, direct attribute
writes, and a clock callback that changes a load *during* a charge —
and checks every charge bit for bit against a from-scratch recompute.
"""

import random

import pytest

from repro.cloud.chaos import ChaosConfig, ChaosEngine
from repro.hypervisor.domain import DomainState
from repro.hypervisor.xen import Hypervisor

N_GUESTS = 15
STEPS = 600


@pytest.fixture
def hv(catalog):
    hypervisor = Hypervisor()
    for i in range(1, N_GUESTS + 1):
        hypervisor.create_guest(f"Dom{i}", catalog, seed=i)
    return hypervisor


def _cost(rng: random.Random) -> float:
    return rng.choice((120e-6, 35e-6, 1e-3, rng.random() * 1e-2))


class TestCachedFactor:
    def test_every_charge_matches_a_fresh_recompute(self, hv, catalog):
        rng = random.Random(1234)
        chaos = ChaosEngine(
            hv, ChaosConfig(reboot_rate=0.03, pause_rate=0.05,
                            pause_duration=0.02, migrate_rate=0.05,
                            migrate_duration=0.03, destroy_rate=0.02,
                            create_rate=0.3, min_pool=4, max_pool=20),
            seed=7, catalog=catalog)

        def meanwhile(now: float) -> None:
            # a load change *inside* clock.advance, i.e. mid-charge
            if rng.random() < 0.05:
                guests = hv.guests()
                if guests:
                    rng.choice(guests).cpu_load = rng.random()

        hv.clock.on_advance.append(meanwhile)
        reference = hv.clock.now
        charges = 0
        kinds = set()
        for _ in range(STEPS):
            action = rng.random()
            guests = hv.guests()
            victim = rng.choice(guests) if guests else None
            if action < 0.15:
                kinds.update(e.kind for e in chaos.step())
            elif action < 0.30 and victim is not None:
                victim.set_load(cpu=rng.choice((0.0, 1.0, rng.random())))
            elif action < 0.40 and victim is not None:
                victim.state = rng.choice((DomainState.PAUSED,
                                           DomainState.RUNNING))
            elif action < 0.50 and victim is not None:
                victim.cpu_load = rng.random()
            elif action < 0.55 and victim is not None:
                victim.vcpus = rng.randint(1, 4)
            elif action < 0.60:
                with hv.deferred_charges() as sink:
                    cost = _cost(rng)
                    assert hv.charge_dom0(cost) == 0.0
                assert sink.total == cost
                assert hv.clock.now == reference
            for _ in range(rng.randint(1, 4)):
                cost = _cost(rng)
                expected = cost * hv.scheduler.dom0_slowdown(
                    hv.guest_demand())
                assert hv.charge_dom0(cost) == expected
                reference += expected
                assert hv.clock.now == reference
                charges += 1
        assert charges > 1000
        # the trace exercised every lifecycle transition it claims to
        assert {"pause", "unpause", "migrate-start", "migrate-finish",
                "reboot", "destroy", "create"} <= kinds
