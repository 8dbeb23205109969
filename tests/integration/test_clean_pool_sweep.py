"""Whole-catalog sweeps over a clean pool: zero false positives.

The quiet half of the paper's claim — "minimal or no impact ... able to
detect any change" — requires that *unchanged* modules never alarm,
despite every VM holding them at different bases. This is the hardest
property for the RVA machinery, so it gets a dedicated sweep plus a
seed-randomised property test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModChecker
from repro.guest import build_catalog, GuestKernel
from repro.core.parser import ModuleParser
from repro.core.searcher import ModuleCopy
from repro.core.integrity import IntegrityChecker


class TestCleanSweep:
    def test_every_module_every_vm_clean(self, clean_testbed_session):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile)
        outcomes = mc.check_all_modules()
        assert set(outcomes) == set(tb.catalog)
        for name, outcome in outcomes.items():
            assert outcome.report.all_clean, name
            for pair in outcome.report.pairs:
                assert pair.matched, (name, pair.vm_a, pair.vm_b)

    def test_rva_stats_fully_resolved_everywhere(self, clean_testbed_session):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile)
        out = mc.check_pool("ntoskrnl.exe")
        for pair in out.report.pairs:
            for region, stats in pair.rva_stats.items():
                assert stats.unresolved == 0, (pair.vm_a, pair.vm_b, region)

    @pytest.mark.parametrize("mode", ["faithful", "robust"])
    def test_no_false_positives_any_mode(self, clean_testbed_session, mode):
        tb = clean_testbed_session
        mc = ModChecker(tb.hypervisor, tb.profile, rva_mode=mode)
        for module in ("hal.dll", "http.sys", "win32k.sys"):
            assert mc.check_pool(module).report.all_clean, (mode, module)


class TestSeedRandomisedProperty:
    @given(catalog_seed=st.integers(min_value=0, max_value=10_000),
           vm_seeds=st.tuples(st.integers(0, 10_000),
                              st.integers(0, 10_000)))
    @settings(max_examples=10, deadline=None)
    def test_random_clone_pairs_always_match(self, catalog_seed, vm_seeds):
        """For arbitrary catalog and VM seeds, two clean clones of
        dummy.sys always compare equal after RVA adjustment."""
        catalog = build_catalog(seed=catalog_seed)
        parsed = []
        for i, seed in enumerate(vm_seeds):
            kernel = GuestKernel(f"vm{i}", seed=seed)
            kernel.boot(catalog)
            mod = kernel.module("dummy.sys")
            copy = ModuleCopy(f"vm{i}", "dummy.sys", mod.base,
                              kernel.read_module_image("dummy.sys"),
                              mod.ldr_entry_va)
            parsed.append(ModuleParser().parse(copy))
        result = IntegrityChecker().compare_pair(*parsed)
        assert result.matched, result.mismatched_regions
