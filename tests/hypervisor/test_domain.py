"""Unit tests for Domain records."""

import pytest

from repro.guest import GuestKernel
from repro.hypervisor.domain import Domain, DomainKind, DomainState


def _guest_domain(**kwargs):
    kernel = GuestKernel("g", seed=1)
    kernel.boot({})
    defaults = dict(domid=1, name="g", kind=DomainKind.DOMU, kernel=kernel)
    defaults.update(kwargs)
    return Domain(**defaults)


class TestConstruction:
    def test_domu_requires_kernel(self):
        with pytest.raises(ValueError, match="guest kernel"):
            Domain(domid=1, name="g", kind=DomainKind.DOMU)

    def test_dom0_needs_no_kernel(self):
        d = Domain(domid=0, name="Dom0", kind=DomainKind.DOM0)
        assert not d.is_guest

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            _guest_domain(cpu_load=1.5)


class TestScheduling:
    def test_runnable_vcpus(self):
        d = _guest_domain(vcpus=2)
        d.set_load(cpu=0.5)
        assert d.runnable_vcpus == 1.0

    def test_paused_domain_not_runnable(self):
        d = _guest_domain()
        d.set_load(cpu=1.0)
        d.state = DomainState.PAUSED
        assert d.runnable_vcpus == 0.0

    def test_set_load_validates(self):
        d = _guest_domain()
        with pytest.raises(ValueError):
            d.set_load(cpu=-0.1)

    def test_direct_out_of_range_load_rejected(self):
        d = _guest_domain()
        d.cpu_load = 0.4
        with pytest.raises(ValueError, match="cpu_load"):
            d.cpu_load = 1.5
        assert d.cpu_load == 0.4

    def test_demand_writes_bump_version(self):
        d = _guest_domain()
        for name, value in (("state", DomainState.PAUSED),
                            ("cpu_load", 0.5), ("vcpus", 2)):
            before = Domain.demand_version
            setattr(d, name, value)
            assert Domain.demand_version == before + 1
        before = Domain.demand_version
        d.mem_load = 0.9
        assert Domain.demand_version == before

    def test_set_load_partial_update(self):
        d = _guest_domain()
        d.set_load(cpu=0.3)
        d.set_load(mem=0.7)
        assert d.cpu_load == 0.3 and d.mem_load == 0.7
