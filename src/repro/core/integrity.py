"""Integrity-Checker — hashing, RVA adjustment, majority voting.

Per the paper (§III-B3, §IV-C): MD5 each header region directly
(headers are base-independent — the loader never rewrites them in
memory), RVA-adjust each executable section pairwise and MD5 the
adjusted bytes, then vote: a VM's module is clean iff its hashes fully
match a majority of the other ``t-1`` VMs.

Structural divergence is also a signal: if the two copies expose
different region *sets* (e.g. an injected extra section header), the
symmetric difference is reported as mismatched, and region size
differences mismatch trivially via the hash.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from ..obs import NULL_OBS, Observability
from ..perf.costmodel import DEFAULT_COST_MODEL, CostModel
from .parser import ParsedModule
from .report import PairComparison, PoolReport, VMCheckReport, VMVerdict
from .rva import ADJUSTERS, RvaAdjustStats

__all__ = ["IntegrityChecker", "md5_hex", "SUPPORTED_HASHES"]

#: Digests the checker accepts. The paper uses MD5 (OpenSSL); MD5 is
#: collision-broken today, so deployments should prefer SHA-256 — the
#: cross-VM protocol is digest-agnostic.
SUPPORTED_HASHES = ("md5", "sha1", "sha256")


def md5_hex(data: bytes) -> str:
    """MD5 digest (hex) — the paper's OpenSSL MD5, via hashlib."""
    return hashlib.md5(data).hexdigest()


def _no_charge(_seconds: float) -> None:
    """Default charge hook: free checking (unit tests, offline use)."""


class IntegrityChecker:
    """Pairwise comparison + majority vote over parsed module copies."""

    def __init__(self, *, rva_mode: str = "robust",
                 hash_algorithm: str = "md5",
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 charge: Callable[[float], None] | None = None,
                 obs: Observability = NULL_OBS) -> None:
        if rva_mode not in ADJUSTERS:
            raise ValueError(
                f"unknown rva_mode {rva_mode!r}; pick from {sorted(ADJUSTERS)}")
        if hash_algorithm not in SUPPORTED_HASHES:
            raise ValueError(
                f"unknown hash {hash_algorithm!r}; "
                f"pick from {SUPPORTED_HASHES}")
        self.rva_mode = rva_mode
        self.hash_algorithm = hash_algorithm
        self._adjust = ADJUSTERS[rva_mode]
        self.costs = cost_model
        self._charge = charge or _no_charge
        self.obs = obs

    def digest(self, data: bytes) -> str:
        """Hash ``data`` with the configured algorithm."""
        return hashlib.new(self.hash_algorithm, data).hexdigest()

    # -- pair comparison ----------------------------------------------------------

    def compare_pair(self, mod_a: ParsedModule,
                     mod_b: ParsedModule) -> PairComparison:
        """Compare one module between two VMs, region by region."""
        mismatched: list[str] = []
        rva_stats: dict[str, RvaAdjustStats] = {}
        cost = self.costs.compare_per_pair

        regions_a = {r.name: r for r in mod_a.header_regions}
        regions_b = {r.name: r for r in mod_b.header_regions}
        for name in regions_a.keys() | regions_b.keys():
            ra, rb = regions_a.get(name), regions_b.get(name)
            if ra is None or rb is None:
                mismatched.append(name)      # structural divergence
                continue
            data_a, data_b = mod_a.region_bytes(ra), mod_b.region_bytes(rb)
            cost += (len(data_a) + len(data_b)) * self.costs.hash_per_byte
            if self.digest(data_a) != self.digest(data_b):
                mismatched.append(name)

        code_a = {r.name: r for r in mod_a.code_regions}
        code_b = {r.name: r for r in mod_b.code_regions}
        for name in code_a.keys() | code_b.keys():
            ra, rb = code_a.get(name), code_b.get(name)
            if ra is None or rb is None:
                mismatched.append(name)
                continue
            data_a, data_b = mod_a.region_bytes(ra), mod_b.region_bytes(rb)
            if len(data_a) != len(data_b):
                mismatched.append(name)
                continue
            adj_a, adj_b, stats = self._adjust(
                data_a, mod_a.base, data_b, mod_b.base,
                max_rva=max(len(mod_a.image), len(mod_b.image)))
            rva_stats[name] = stats
            cost += 2 * len(data_a) * (self.costs.rva_scan_per_byte
                                       + self.costs.hash_per_byte)
            if self.digest(adj_a) != self.digest(adj_b):
                mismatched.append(name)

        self._charge(cost)
        order = mod_a.region_names()
        mismatched.sort(key=lambda n: order.index(n) if n in order else 999)
        pair = PairComparison(mod_a.vm_name, mod_b.vm_name,
                              tuple(mismatched), rva_stats)
        events = self.obs.events
        if events.enabled:
            events.emit("pair.compared", module=mod_a.module_name,
                        vm_a=pair.vm_a, vm_b=pair.vm_b,
                        matched=pair.matched,
                        mismatched=list(pair.mismatched_regions))
        return pair

    # -- voting ----------------------------------------------------------------------

    def check_target(self, target: ParsedModule,
                     others: list[ParsedModule]) -> VMCheckReport:
        """Linear mode: the target VM's module vs each other VM (Figs. 7/8)."""
        pairs = tuple(self.compare_pair(target, other) for other in others)
        matches = sum(1 for p in pairs if p.matched)
        return VMCheckReport(
            module_name=target.module_name, target_vm=target.vm_name,
            pairs=pairs, matches=matches, comparisons=len(pairs))

    def check_pool_canonical(self, modules: list[ParsedModule]) -> PoolReport:
        """O(t) pool check via canonicalisation (vs O(t²) pairwise).

        The paper's checker compares every pair. But RVA adjustment of
        a *clean* copy always yields the same base-independent bytes,
        so one pass suffices: adjust every VM against a single
        reference, digest the adjusted regions, and cluster the digest
        vectors — the majority cluster is clean, everyone else is
        flagged. Equivalent verdicts to :meth:`check_pool` whenever a
        strict majority of copies is pristine (the regime the paper's
        vote needs anyway); the A6 ablation measures the speedup.

        Synthesised ``PairComparison`` records cover reference↔VM pairs
        only (that is all this mode computes).

        Base collisions: RVA adjustment is driven by byte *differences*,
        so a VM that happens to share the reference's load base would
        come back untouched — raw relocated bytes whose digests can
        never match the RVA-normalised majority (a guaranteed false
        positive once pools are large enough for slide collisions).
        Such VMs are adjusted against a *partner* instead: the first
        pool member whose base differs. A clean copy reaches the same
        canonical bytes either way; only when every copy shares one
        base is no adjustment possible, and then raw digests cluster
        correctly on their own.
        """
        if not modules:
            return PoolReport(module_name="", vm_names=[], pairs=[],
                              verdicts={})
        reference = modules[0]
        partner = next((m for m in modules[1:] if m.base != reference.base),
                       None)
        names = [m.vm_name for m in modules]

        def region_vector(mod: ParsedModule, adjusted: dict[str, bytes],
                          ) -> tuple:
            items = []
            for region in mod.header_regions:
                items.append((region.name,
                              self.digest(mod.region_bytes(region))))
            for region in mod.code_regions:
                data = adjusted.get(region.name,
                                    mod.region_bytes(region))
                items.append((region.name, self.digest(data)))
            return tuple(sorted(items))

        vectors: dict[str, tuple] = {}
        pairs: list[PairComparison] = []
        ref_adjusted: dict[str, bytes] = {}
        for mod in modules[1:]:
            counterpart = (reference if mod.base != reference.base
                           else partner)
            adjusted: dict[str, bytes] = {}
            cost = self.costs.compare_per_pair
            code_ref = ({r.name: r for r in counterpart.code_regions}
                        if counterpart is not None else {})
            for region in mod.code_regions:
                ref_region = code_ref.get(region.name)
                if ref_region is None:
                    continue
                data_ref = counterpart.region_bytes(ref_region)
                data_mod = mod.region_bytes(region)
                if len(data_ref) != len(data_mod):
                    continue
                adj_ref, adj_mod, _stats = self._adjust(
                    data_ref, counterpart.base, data_mod, mod.base,
                    max_rva=max(len(counterpart.image), len(mod.image)))
                adjusted[region.name] = adj_mod
                if counterpart is reference:
                    ref_adjusted.setdefault(region.name, adj_ref)
                cost += 2 * len(data_mod) * (self.costs.rva_scan_per_byte
                                             + self.costs.hash_per_byte)
            self._charge(cost)
            vectors[mod.vm_name] = region_vector(mod, adjusted)
        vectors[reference.vm_name] = region_vector(reference, ref_adjusted)

        # Cluster by digest vector; majority cluster is clean.
        clusters: dict[tuple, list[str]] = {}
        for vm, vector in vectors.items():
            clusters.setdefault(vector, []).append(vm)
        majority = max(clusters.values(), key=len)
        t = len(modules)
        clean = {vm: (vm in majority and len(majority) > t / 2)
                 for vm in names}

        verdicts: dict[str, VMVerdict] = {}
        for vm in names:
            same = len(clusters[vectors[vm]]) - 1
            regions: tuple[str, ...] = ()
            if not clean[vm] and majority:
                ref_vec = dict(vectors[majority[0]])
                own = dict(vectors[vm])
                diff = [k for k in (own.keys() | ref_vec.keys())
                        if own.get(k) != ref_vec.get(k)]
                regions = tuple(sorted(diff))
            verdicts[vm] = VMVerdict(vm_name=vm, matches=same,
                                     comparisons=t - 1, clean=clean[vm],
                                     mismatched_regions=regions)
        for mod in modules[1:]:
            a, b = vectors[reference.vm_name], vectors[mod.vm_name]
            mism = tuple(sorted(
                k for k in (dict(a).keys() | dict(b).keys())
                if dict(a).get(k) != dict(b).get(k)))
            pair = PairComparison(reference.vm_name, mod.vm_name, mism)
            pairs.append(pair)
            events = self.obs.events
            if events.enabled:
                events.emit("pair.compared",
                            module=reference.module_name,
                            vm_a=pair.vm_a, vm_b=pair.vm_b,
                            matched=pair.matched,
                            mismatched=list(pair.mismatched_regions))
        return PoolReport(module_name=reference.module_name,
                          vm_names=names, pairs=pairs, verdicts=verdicts)

    def check_pool(self, modules: list[ParsedModule]) -> PoolReport:
        """Full cross-check: every pair once, then per-VM majority votes."""
        pairs: list[PairComparison] = []
        for i, mod_a in enumerate(modules):
            for mod_b in modules[i + 1:]:
                pairs.append(self.compare_pair(mod_a, mod_b))
        return self.vote(modules, pairs)

    def vote(self, modules: list[ParsedModule],
             pairs: list[PairComparison]) -> PoolReport:
        """Majority-vote already-computed pair comparisons into a report.

        Split from :meth:`check_pool` so callers that schedule the
        pairwise comparisons themselves (``ModChecker``: pair replay,
        per-pair work items) can reuse the exact voting semantics.
        """
        names = [m.vm_name for m in modules]
        match_count = {name: 0 for name in names}
        for p in pairs:
            if p.matched:
                match_count[p.vm_a] += 1
                match_count[p.vm_b] += 1
        t = len(modules)
        clean = {name: match_count[name] > (t - 1) / 2 for name in names}

        verdicts: dict[str, VMVerdict] = {}
        for name in names:
            regions: list[str] = []
            for p in pairs:
                if p.involves(name) and clean.get(p.other(name), False):
                    for region in p.mismatched_regions:
                        if region not in regions:
                            regions.append(region)
            verdicts[name] = VMVerdict(
                vm_name=name, matches=match_count[name], comparisons=t - 1,
                clean=clean[name],
                mismatched_regions=tuple(regions) if not clean[name] else ())
        return PoolReport(module_name=modules[0].module_name if modules else "",
                          vm_names=names, pairs=pairs, verdicts=verdicts)
