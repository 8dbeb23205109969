"""The declared-stats fold: rules, float order, and per-VM ownership.

``repro.counters.fold`` replaced five hand-written counter sums (the
VMI session fold, ``ManifestStats.merge``, ``RepairStats.merge``, the
fleet's checker totals and its daemon totals). These tests pin it
against the rule it implements and against the old merge sequence.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cloud  # noqa: F401  (declares ChaosStats, FleetStats)
import repro.core.modchecker as modchecker_mod
import repro.core.repair  # noqa: F401  (declares RepairStats)
from repro.cloud import ChaosConfig, ChaosEngine, Fleet, build_fleet_testbed
from repro.core.modchecker import ModChecker
from repro.counters import DECLARED, fold
from repro.obs import make_observability

KEYS = st.sampled_from(["absent", "ttl", "admit", "evict", "reboot"])
FLOATS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
FIELD_STRATEGIES = {
    "int": st.integers(min_value=0, max_value=10**9),
    "float": FLOATS,
    "dict[str, int]": st.dictionaries(KEYS, st.integers(0, 10**6),
                                      max_size=4),
    "list[float]": st.lists(FLOATS, max_size=3),
}


def instances(cls):
    return st.builds(cls, **{f.name: FIELD_STRATEGIES[f.type]
                             for f in dataclasses.fields(cls)})


def field_wise_sum(parts):
    """The rule, spelled out: left-to-right ``+``, dicts per key,
    ``mttr_max`` the max."""
    out = {}
    for f in dataclasses.fields(parts[0]):
        values = [getattr(p, f.name) for p in parts]
        if f.name == "mttr_max":
            out[f.name] = max([0.0, *values])
        elif isinstance(values[0], dict):
            total: dict[str, int] = {}
            for value in values:
                for key, count in value.items():
                    total[key] = total.get(key, 0) + count
            out[f.name] = total
        else:
            total = type(values[0])()
            for value in values:
                total = total + value
            out[f.name] = total
    return out


def old_merge(mine, theirs):
    """``RepairStats.merge`` / ``ManifestStats.merge`` as they were."""
    for name in vars(theirs):
        a, b = getattr(mine, name), getattr(theirs, name)
        if isinstance(a, dict):
            for key, count in b.items():
                a[key] = a.get(key, 0) + count
        else:
            setattr(mine, name, max(a, b) if name == "mttr_max" else a + b)


def hexed(obj):
    """Every field, floats as ``float.hex`` (bit-exact comparison)."""
    def one(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, list):
            return [one(v) for v in value]
        return value
    return {k: one(v) for k, v in vars(obj).items()}


def test_every_counter_owner_is_declared():
    names = {cls.__name__ for cls in DECLARED}
    assert {"VMIStats", "ManifestStats", "TrapStats", "FaultStats",
            "ChaosStats", "RepairStats", "CheckerStats", "DaemonStats",
            "FleetStats"} <= names


@pytest.mark.parametrize("cls", DECLARED, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fold_is_the_declared_field_wise_sum(cls, data):
    parts = data.draw(st.lists(instances(cls), min_size=1, max_size=4))
    before = [copy.deepcopy(p) for p in parts]
    folded = fold(*parts)
    assert type(folded) is cls
    assert hexed(folded) == hexed(cls(**field_wise_sum(parts)))
    # the parts are untouched and share no mutable state with the fold
    assert [hexed(p) for p in parts] == [hexed(p) for p in before]
    for f in dataclasses.fields(cls):
        value = getattr(folded, f.name)
        if isinstance(value, (dict, list)):
            assert all(value is not getattr(p, f.name) for p in parts)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_retired_then_live_fold_matches_the_old_merge_sequence(cls, data):
    """A fleet folds retired shards as they retire, then adds the live
    ones in name order; the old code deep-copied the retired totals and
    merged each live shard in. Same floats, bit for bit."""
    retired = data.draw(st.lists(instances(cls), max_size=3))
    live = data.draw(st.lists(instances(cls), min_size=1, max_size=3))

    old_retired = cls()
    for part in retired:
        old_merge(old_retired, part)
    old_total = copy.deepcopy(old_retired)
    for part in live:
        old_merge(old_total, part)

    new_retired = None
    for part in retired:
        new_retired = fold(*(p for p in (new_retired, part)
                             if p is not None))
    new_total = fold(*(p for p in (new_retired, *live) if p is not None))
    assert hexed(new_total) == hexed(old_total)


def test_borrowing_fleet_has_one_publisher_per_vm(monkeypatch):
    """Every per-VM series has exactly one publishing checker, the
    VM's home shard's — also after a borrowed reference reboots and
    its borrower retires the session (the run used to crash)."""
    # checker objects, not ids: a retired shard's id may be reused
    publishers: dict[str, set[ModChecker]] = defaultdict(set)
    current: list[ModChecker] = []
    record_outcome = ModChecker._record_outcome
    record_vmi = modchecker_mod.record_vmi_instance

    def outcome(self, *args, **kwargs):
        current.append(self)
        try:
            return record_outcome(self, *args, **kwargs)
        finally:
            current.pop()

    def vmi(metrics, vm_name, *args, **kwargs):
        publishers[vm_name].add(current[-1])
        return record_vmi(metrics, vm_name, *args, **kwargs)

    monkeypatch.setattr(ModChecker, "_record_outcome", outcome)
    monkeypatch.setattr(modchecker_mod, "record_vmi_instance", vmi)
    tb = build_fleet_testbed(12, seed=42)
    obs = make_observability(tb.clock)
    engine = ChaosEngine(tb.hypervisor, ChaosConfig.from_churn_rate(0.4),
                         seed=42, catalog=tb.catalog)
    fleet = Fleet(tb.hypervisor, shard_size=1, chaos=engine, obs=obs,
                  checker_kwargs={"event_driven": True})
    fleet.run(5)
    assert fleet.stats.borrowed_refs_total > 0
    assert engine.stats.reboots > 0
    assert publishers
    shared = {vm: len(by) for vm, by in publishers.items() if len(by) > 1}
    assert shared == {}
