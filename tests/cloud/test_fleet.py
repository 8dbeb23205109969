"""The sharded fleet control plane: placement, scheduling, borrowing."""

import pytest

from repro.attacks import attack_for_experiment
from repro.cloud import (ChaosConfig, ChaosEngine, Fleet, build_fleet_testbed,
                         shard_key_for)
from repro.guest import build_catalog
from repro.obs import make_observability

SEED = 42
ONE_VARIANT = (("xp-sp2", ("ntoskrnl.exe", "hal.dll", "disk.sys")),)


def make_fleet(n_vms, *, variants=None, infected=None, **kwargs):
    build_kwargs = {"seed": SEED}
    if variants is not None:
        build_kwargs["variants"] = variants
    tb = build_fleet_testbed(n_vms, infected=infected, **build_kwargs)
    return tb, Fleet(tb.hypervisor, **kwargs)


class TestSharding:
    def test_same_variant_guests_share_a_key(self):
        tb, _ = make_fleet(8)
        hv = tb.hypervisor
        # Dom1 and Dom5 are the same variant (4 variants, round-robin)
        assert shard_key_for(hv.domain("Dom1")) \
            == shard_key_for(hv.domain("Dom5"))
        assert shard_key_for(hv.domain("Dom1")) \
            != shard_key_for(hv.domain("Dom2"))

    def test_key_ignores_module_content(self):
        """Tampered bytes must NOT split the pool — content differences
        are what the vote detects, so they may not dodge it."""
        attack, module = attack_for_experiment("E1")
        infected = attack.apply(build_catalog(seed=SEED)[module]).infected
        tb, _ = make_fleet(4, variants=ONE_VARIANT,
                           infected={"Dom2": {module: infected}})
        assert shard_key_for(tb.hypervisor.domain("Dom2")) \
            == shard_key_for(tb.hypervisor.domain("Dom1"))

    def test_placement_covers_every_guest(self):
        _, fleet = make_fleet(50, shard_size=8)
        placed = [vm for s in fleet.shards.values() for vm in s.members]
        assert sorted(placed) == sorted(f"Dom{i}" for i in range(1, 51))
        for shard in fleet.shards.values():
            assert shard.size <= 8
            for vm in shard.members:
                assert shard_key_for(
                    fleet.hv.domain(vm)) == shard.key

    def test_shard_size_cap_opens_siblings(self):
        _, fleet = make_fleet(10, variants=ONE_VARIANT, shard_size=4)
        sizes = sorted(s.size for s in fleet.shards.values())
        assert sizes == [2, 4, 4]
        keys = {s.key for s in fleet.shards.values()}
        assert len(keys) == 1


class TestScheduler:
    def test_clock_advances_once_per_round(self):
        tb, fleet = make_fleet(12, shard_size=4, interval=60.0)
        before = tb.clock.now
        report = fleet.run_cycle()
        # exactly interval + the round's makespan, not one interval
        # per shard
        assert tb.clock.now == pytest.approx(
            before + 60.0 + report.duration)

    def test_shard_checkers_reject_their_own_workers(self):
        # the fleet models Dom0 concurrency itself; a shard checker's
        # makespan would advance the clock inside the deferred round
        tb = build_fleet_testbed(4, seed=SEED)
        with pytest.raises(ValueError, match="workers"):
            Fleet(tb.hypervisor, checker_kwargs={"workers": 4})
        Fleet(tb.hypervisor, checker_kwargs={"workers": 1})

    def test_more_workers_shrink_the_makespan(self):
        _, narrow = make_fleet(24, shard_size=4, workers=1)
        _, wide = make_fleet(24, shard_size=4, workers=8)
        r1 = narrow.run_cycle()
        r8 = wide.run_cycle()
        assert r8.duration < r1.duration

    def test_clean_fleet_raises_nothing(self):
        _, fleet = make_fleet(16, shard_size=4)
        reports = fleet.run(3)
        assert all(not r.alerts for r in reports)
        assert fleet.stats.alerts_total == 0

    def test_detection_stays_shard_local(self):
        attack, module = attack_for_experiment("E1")
        infected = attack.apply(build_catalog(seed=SEED)[module]).infected
        tb, fleet = make_fleet(16, shard_size=4,
                               infected={"Dom6": {module: infected}})
        fleet.run(2)
        flagged = {vm for _, a in fleet.alert_log
                   if a.kind == "integrity" for vm in a.flagged_vms}
        assert flagged == {"Dom6"}
        owner = fleet.shard_of("Dom6").name
        assert all(shard == owner for shard, a in fleet.alert_log
                   if a.kind == "integrity")


class TestQuorumBorrowing:
    def test_small_shard_verdicts_only_via_siblings(self):
        """A 1-VM shard cannot vote alone; with same-key siblings it
        reaches a verdict every cycle via borrowed references."""
        _, fleet = make_fleet(5, variants=ONE_VARIANT, shard_size=4)
        small = next(s for s in fleet.shards.values() if s.size == 1)
        fleet.run(3)
        assert small.daemon.stats.checks_total == 3
        assert small.daemon.stats.borrowed_refs_total > 0
        assert fleet.stats.borrowed_refs_total > 0

    def test_no_borrowing_without_lender(self):
        _, fleet = make_fleet(5, variants=ONE_VARIANT, shard_size=4,
                              borrow=False)
        small = next(s for s in fleet.shards.values() if s.size == 1)
        fleet.run(3)
        assert small.daemon.stats.checks_total == 0
        assert small.daemon.stats.borrowed_refs_total == 0
        # the starved shard degrades loudly instead of checking
        assert any(a.kind == "degraded" and "quorum starved" in a.regions[0]
                   for _, a in fleet.alert_log)

    def test_tampered_member_convicted_by_borrowed_majority(self):
        attack, module = attack_for_experiment("E1")
        infected = attack.apply(build_catalog(seed=SEED)[module]).infected
        _, fleet = make_fleet(5, variants=ONE_VARIANT, shard_size=4,
                              infected={"Dom5": {module: infected}})
        small = next(s for s in fleet.shards.values() if s.size == 1)
        assert small.members == {"Dom5"}
        fleet.run(2)
        flagged = {vm for _, a in fleet.alert_log
                   if a.kind == "integrity" for vm in a.flagged_vms}
        # the borrowed majority convicts exactly the tampered VM —
        # never the lent references
        assert flagged == {"Dom5"}

    def test_borrowed_vms_keep_their_home_breakers(self):
        _, fleet = make_fleet(5, variants=ONE_VARIANT, shard_size=4)
        small = next(s for s in fleet.shards.values() if s.size == 1)
        big = next(s for s in fleet.shards.values() if s.size == 4)
        fleet.run(2)
        # lending never leaks breaker state into the borrowing shard
        assert set(small.daemon.health.states()) <= small.members
        assert set(big.daemon.health.states()) <= big.members

    def test_cross_key_shards_never_lend(self):
        """A unique-key 1-VM shard has no sibling to borrow from."""
        variants = (("xp-sp2", ("ntoskrnl.exe", "hal.dll", "disk.sys")),
                    ("win2003", ("ntoskrnl.exe", "hal.dll", "dummy.sys")))
        # 5 VMs -> 3 xp + 2 win2003; shard_size 3 splits xp into 3+... no:
        # round-robin gives xp {Dom1,Dom3,Dom5}, win {Dom2,Dom4}
        _, fleet = make_fleet(5, variants=variants, shard_size=2)
        ones = [s for s in fleet.shards.values() if s.size == 1]
        fleet.run(2)
        for shard in ones:
            same_key = [s for s in fleet.shards.values()
                        if s is not shard and s.key == shard.key]
            if not same_key:
                assert shard.daemon.stats.checks_total == 0
                assert shard.daemon.stats.borrowed_refs_total == 0


class TestShardAdministration:
    def test_evict_and_readmit_shard(self):
        _, fleet = make_fleet(12, shard_size=4)
        name = sorted(fleet.shards)[0]
        fleet.run_cycle()
        checks_before = fleet.shards[name].daemon.stats.checks_total
        fleet.evict_shard(name)
        report = fleet.run_cycle()
        assert fleet.shards[name].daemon.stats.checks_total == checks_before
        assert report.shards == len(fleet.shards) - 1
        fleet.admit_shard(name)
        fleet.run_cycle()
        assert fleet.shards[name].daemon.stats.checks_total == checks_before + 1
        assert fleet.stats.shard_events["evicted"] == 1
        assert fleet.stats.shard_events["admitted"] == 1

    def test_evicted_members_stay_placed(self):
        _, fleet = make_fleet(12, shard_size=4)
        name = sorted(fleet.shards)[0]
        members = set(fleet.shards[name].members)
        fleet.evict_shard(name)
        fleet.run_cycle()
        assert fleet.shards[name].members == members
        for vm in members:
            assert fleet.shard_of(vm).name == name

    def test_evict_is_idempotent(self):
        _, fleet = make_fleet(8, shard_size=4)
        name = sorted(fleet.shards)[0]
        fleet.evict_shard(name)
        fleet.evict_shard(name)
        assert fleet.stats.shard_events["evicted"] == 1


class TestMembershipUnderChurn:
    def test_new_guest_joins_matching_shard(self):
        tb, fleet = make_fleet(8, shard_size=4)
        catalog = {m: tb.catalog[m]
                   for m in ("ntoskrnl.exe", "hal.dll", "disk.sys")}
        tb.hypervisor.create_guest("Late1", catalog, seed=SEED,
                                   os_flavor="xp-sp2")
        fleet.run_cycle()
        shard = fleet.shard_of("Late1")
        assert shard is not None
        assert shard.key == shard_key_for(tb.hypervisor.domain("Late1"))

    def test_vanished_guest_leaves_its_shard(self):
        tb, fleet = make_fleet(8, shard_size=4)
        owner = fleet.shard_of("Dom1")
        tb.hypervisor.destroy("Dom1")
        fleet.run_cycle()
        assert fleet.shard_of("Dom1") is None
        assert "Dom1" not in owner.members
        assert "Dom1" not in owner.daemon.health.states()

    def test_emptied_shard_retires(self):
        variants = (("xp-sp2", ("ntoskrnl.exe", "hal.dll", "disk.sys")),
                    ("win2003", ("ntoskrnl.exe", "hal.dll", "dummy.sys")))
        tb, fleet = make_fleet(4, variants=variants, shard_size=4)
        win_shard = fleet.shard_of("Dom2")
        tb.hypervisor.destroy("Dom2")
        tb.hypervisor.destroy("Dom4")
        fleet.run_cycle()
        assert win_shard.name not in fleet.shards
        assert fleet.stats.shard_events["retired"] == 1

    def test_breaker_membership_invariants_hold_under_churn(self):
        """PR 3's per-shard invariants survive fleet-wide chaos: every
        breaker and every placement always refers to a shard member,
        every live guest is placed in exactly one key-matching shard,
        and fleet totals never run backwards."""
        tb, fleet = make_fleet(24, shard_size=4)
        engine = ChaosEngine(
            tb.hypervisor, ChaosConfig.from_churn_rate(0.25),
            seed=SEED, catalog={m: tb.catalog[m] for m in
                                ("ntoskrnl.exe", "hal.dll", "disk.sys")})
        fleet.chaos = engine
        last_checks = 0
        for _ in range(12):
            fleet.run_cycle()
            live = {d.name for d in tb.hypervisor.guests()}
            placed = [vm for s in fleet.shards.values()
                      for vm in s.members]
            assert sorted(placed) == sorted(live)
            for shard in fleet.shards.values():
                for vm in shard.members:
                    assert shard_key_for(
                        tb.hypervisor.domain(vm)) == shard.key
                assert set(shard.daemon.health.states()) <= shard.members
            assert fleet.stats.checks_total >= last_checks
            last_checks = fleet.stats.checks_total
        assert engine.stats.events > 0
        # churn alone never produces an integrity conviction
        assert not [a for _, a in fleet.alert_log
                    if a.kind == "integrity"]

    def test_counters_survive_shard_retirement(self):
        variants = (("xp-sp2", ("ntoskrnl.exe", "hal.dll", "disk.sys")),
                    ("win2003", ("ntoskrnl.exe", "hal.dll", "dummy.sys")))
        tb, fleet = make_fleet(4, variants=variants, shard_size=4)
        fleet.run(2)
        before = fleet.stats.vm_checks_total
        assert before > 0
        tb.hypervisor.destroy("Dom2")
        tb.hypervisor.destroy("Dom4")
        fleet.run_cycle()
        assert fleet.stats.vm_checks_total >= before


class TestObservability:
    def test_fleet_events_and_metrics_flow(self):
        tb = build_fleet_testbed(5, seed=SEED, variants=ONE_VARIANT)
        obs = make_observability(tb.clock)
        fleet = Fleet(tb.hypervisor, shard_size=4, obs=obs)
        fleet.run(2)
        names = {e.name for e in obs.events.events}
        assert "fleet.cycle" in names
        assert "shard.changed" in names
        assert "quorum.borrowed" in names
        blob = str(obs.metrics.snapshot())
        for metric in ("modchecker_fleet_shards",
                       "modchecker_fleet_vm_checks_total",
                       "modchecker_fleet_borrowed_refs_total",
                       "modchecker_fleet_cycle_seconds"):
            assert metric in blob


    def test_borrowed_session_retirement_keeps_one_publisher(self):
        """Regression: a shard that borrowed a reference VM which then
        rebooted folded the borrowed session into its own per-VM
        baseline and published it, so two shards set one ``{vm}``
        series and the shared counter ran backwards (ValueError)."""
        tb = build_fleet_testbed(12, seed=SEED)
        obs = make_observability(tb.clock)
        engine = ChaosEngine(tb.hypervisor, ChaosConfig.from_churn_rate(0.4),
                             seed=SEED, catalog=tb.catalog)
        fleet = Fleet(tb.hypervisor, shard_size=1, chaos=engine, obs=obs)
        fleet.run(5)
        assert fleet.stats.borrowed_refs_total > 0
        assert engine.stats.reboots > 0
        for shard in fleet.shards.values():
            # only the home shard keeps a per-VM baseline
            assert set(shard.checker._vmi_stats_base) <= shard.members

    def test_checker_series_are_fleet_wide_sums_under_churn(self):
        """Manifest, trap and repair series are owned by the fleet:
        each equals the sum over every shard checker the fleet ever
        ran, retired shards included. Scoped checkers used to publish
        their own totals on the shared series, so the last shard won,
        and under churn the counter ran backwards and raised."""
        attack, module = attack_for_experiment("E1")
        infected = attack.apply(build_catalog(seed=SEED)[module]).infected
        tb = build_fleet_testbed(48, seed=SEED,
                                 infected={"Dom3": {module: infected}})
        obs = make_observability(tb.clock)
        engine = ChaosEngine(tb.hypervisor, ChaosConfig.from_churn_rate(0.2),
                             seed=SEED, catalog=tb.catalog)
        fleet = Fleet(tb.hypervisor, shard_size=12, chaos=engine, obs=obs,
                      checker_kwargs={"event_driven": True,
                                      "repair_policy": "repair"})
        checkers = {}
        for rnd in range(12):
            if rnd == 6:
                # empty one shard so its counters must come from the fold
                doomed = min(fleet.shards.values(), key=lambda s: s.size)
                for vm in doomed.member_names():
                    tb.hypervisor.destroy(vm)
            fleet.run_cycle()
            checkers.update((s.name, s.checker)
                            for s in fleet.shards.values())
        live = [s.checker for s in fleet.shards.values()]
        assert doomed.name not in fleet.shards
        assert doomed.checker.manifests.stats.hits > 0

        def total(attr):
            return sum(getattr(mc.stats, attr) for mc in checkers.values())

        def by_reason(get):
            out = {}
            for mc in checkers.values():
                for reason, count in get(mc).items():
                    out[reason] = out.get(reason, 0) + count
            return out

        m = obs.metrics
        assert m.counter("modchecker_manifest_hits_total").value() == \
            sum(mc.manifests.stats.hits for mc in checkers.values())
        for name, get in (
                ("modchecker_manifest_misses_total",
                 lambda mc: mc.manifests.stats.misses),
                ("modchecker_manifest_invalidations_total",
                 lambda mc: mc.manifests.stats.invalidations),
                ("modchecker_trap_fallbacks_total",
                 lambda mc: mc.trap_fallbacks)):
            expected = by_reason(get)
            assert expected or name.startswith("modchecker_trap")
            for reason, count in expected.items():
                assert m.counter(name).value(reason=reason) == count
        assert m.gauge("modchecker_manifest_entries").value() == \
            sum(len(mc.manifests) for mc in live)
        assert m.counter("modchecker_pair_replays_total").value() == \
            total("pair_replays")
        assert m.counter("modchecker_trap_validations_total").value() == \
            total("trap_validations") > 0
        assert m.counter("modchecker_trap_pages_checked_total").value() \
            == total("trap_pages_checked")
        attempts = sum(mc.repair.stats.attempts for mc in checkers.values())
        assert attempts > 0
        assert m.counter("modchecker_repair_attempts_total").value() == \
            attempts
        outcomes = m.counter("modchecker_repair_outcomes_total")
        for status in ("verified", "failed", "quarantined", "aborted"):
            assert outcomes.value(status=status) == sum(
                getattr(mc.repair.stats, status)
                for mc in checkers.values())


class TestValidation:
    def test_rejects_bad_parameters(self):
        tb = build_fleet_testbed(2, seed=SEED)
        with pytest.raises(ValueError):
            Fleet(tb.hypervisor, shard_size=0)
        with pytest.raises(ValueError):
            Fleet(tb.hypervisor, workers=0)
        with pytest.raises(ValueError):
            Fleet(tb.hypervisor, interval=0)
        with pytest.raises(ValueError):
            build_fleet_testbed(0)

    def test_empty_hypervisor_is_fine_until_checks(self):
        tb = build_fleet_testbed(1, seed=SEED)
        tb.hypervisor.destroy("Dom1")
        fleet = Fleet(tb.hypervisor)
        assert fleet.shards == {}
        report = fleet.run_cycle()       # no shards: a quiet round
        assert report.shards == 0
        assert report.alerts == ()
