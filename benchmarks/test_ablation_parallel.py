"""A1 — parallel vs sequential introspection (paper §V-C-1's "modular
design ... can support parallel access of virtual machines' memory").

Measures the simulated wall-clock win of ``ModChecker(workers=N)`` on
an idle host, and shows the win evaporates once guests saturate the
physical CPUs — extra Dom0 threads then just add contention.
"""

from __future__ import annotations

import pytest

from repro.cloud import build_testbed
from repro.core import ModChecker
from repro.perf import HEAVY_LOAD, apply_workload

SEED = 42
MODULE = "http.sys"


def _simulated_elapsed(checker, tb):
    with tb.clock.span() as span:
        checker.check_on_vm(MODULE, "Dom1")
    return span.elapsed


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_parallel_speedup_idle(benchmark, threads):
    tb = build_testbed(12, seed=SEED)
    seq = ModChecker(tb.hypervisor, tb.profile)
    par = ModChecker(tb.hypervisor, tb.profile, workers=threads)

    seq_elapsed = _simulated_elapsed(seq, tb)
    par_elapsed = benchmark(lambda: _simulated_elapsed(par, tb))

    speedup = seq_elapsed / par_elapsed
    if threads == 1:
        assert speedup == pytest.approx(1.0, rel=1e-9)
    else:
        assert speedup > 1.2
        # makespan bound: can't beat perfect division of labour
        assert speedup <= threads + 0.5


def test_parallel_speedup_monotone_in_threads():
    tb = build_testbed(12, seed=SEED)
    elapsed = {}
    for threads in (1, 2, 4):
        par = ModChecker(tb.hypervisor, tb.profile, workers=threads)
        elapsed[threads] = _simulated_elapsed(par, tb)
    assert elapsed[1] > elapsed[2] > elapsed[4]


def test_parallelism_collapses_on_saturated_host():
    """When guests peg all 8 logical CPUs, adding Dom0 threads buys far
    less than on an idle host — contention eats the parallelism."""
    def speedup_at(load):
        tb = build_testbed(12, seed=SEED)
        if load:
            for name in tb.vm_names:
                apply_workload(tb.hypervisor.domain(name), HEAVY_LOAD)
        seq = ModChecker(tb.hypervisor, tb.profile)
        par = ModChecker(tb.hypervisor, tb.profile, workers=4)
        s = _simulated_elapsed(seq, tb)
        p = _simulated_elapsed(par, tb)
        return s / p

    idle_speedup = speedup_at(False)
    loaded_speedup = speedup_at(True)
    assert idle_speedup > loaded_speedup
