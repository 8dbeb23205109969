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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..obs import NULL_OBS, Observability
from ..perf.costmodel import DEFAULT_COST_MODEL
from .parser import ParsedModule
from .report import PairComparison, PoolReport, VMCheckReport, VMVerdict
from .rva import ADJUSTERS, PoolPair, RvaAdjustStats, adjust_rva_pool

__all__ = ["IntegrityChecker", "CanonicalRecord", "md5_hex",
           "SUPPORTED_HASHES"]

#: Digests the checker accepts. The paper uses MD5 (OpenSSL); MD5 is
#: collision-broken today, so deployments should prefer SHA-256 — the
#: cross-VM protocol is digest-agnostic.
SUPPORTED_HASHES = ("md5", "sha1", "sha256")


def md5_hex(data: bytes) -> str:
    """MD5 digest (hex) — the paper's OpenSSL MD5, via hashlib."""
    return hashlib.md5(data).hexdigest()


def _no_charge(_seconds: float) -> None:
    """Default charge hook: free checking (unit tests, offline use)."""


def _keep_none(_region: str) -> bool:
    return False


def _mismatched(a: dict[str, str], b: dict[str, str]) -> tuple[str, ...]:
    """The regions whose digests differ between two maps, sorted."""
    return tuple(sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k)))


def _code_views(mod: ParsedModule, memo: dict[int, dict[str, memoryview]],
                ) -> dict[str, memoryview]:
    """``mod``'s code regions as name -> zero-copy view, once per copy."""
    found = memo.get(id(mod))
    if found is None:
        image = memoryview(mod.image)
        found = memo[id(mod)] = {r.name: image[r.start:r.end]
                                 for r in mod.code_regions}
    return found


class _Group:
    """The pairs of one (code region, length) group of a batch: the
    group's distinct copies, their bases, and per pair the two copies'
    indices, the RVA bound and who receives the outcome."""

    def __init__(self) -> None:
        self.index: dict[int, int] = {}
        self.copies: list[memoryview] = []
        self.bases: list[int] = []
        self.pairs: list[tuple[int, int]] = []
        self.limits: list[int] = []
        self.owners: list[tuple] = []

    def _row(self, mod: ParsedModule, data: memoryview) -> int:
        row = self.index.get(id(mod))
        if row is None:
            row = self.index[id(mod)] = len(self.copies)
            self.copies.append(data)
            self.bases.append(mod.base)
        return row

    def add(self, mod_a: ParsedModule, data_a: memoryview,
            mod_b: ParsedModule, data_b: memoryview, owner: tuple) -> None:
        self.pairs.append((self._row(mod_a, data_a), self._row(mod_b, data_b)))
        self.limits.append(max(len(mod_a.image), len(mod_b.image)))
        self.owners.append(owner)


class CanonicalRecord(NamedTuple):
    """One member's step of a canonical vote: digests, never bytes.

    ``vector`` is the member's sorted ``(region, digest)`` vector, its
    code regions RVA-adjusted against the counterpart; ``ref_digests``
    maps code regions the pair adjusted to the digest of the
    *counterpart's* adjusted bytes (those the step was asked to keep).
    """

    vector: tuple
    ref_digests: dict[str, str]


class IntegrityChecker:
    """Pairwise comparison + majority vote over parsed module copies."""

    def __init__(self, *, rva_mode: str = "robust",
                 hash_algorithm: str = "md5",
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
        self.costs = DEFAULT_COST_MODEL
        self._charge = charge or _no_charge
        self.obs = obs

    def digest(self, data: bytes) -> str:
        """Hash ``data`` with the configured algorithm."""
        return hashlib.new(self.hash_algorithm, data).hexdigest()

    # -- pair comparison ----------------------------------------------------------

    def compare_pair(self, mod_a: ParsedModule,
                     mod_b: ParsedModule) -> PairComparison:
        """Compare one module between two VMs, region by region.

        The one-job case of :meth:`compare_pairs`; charges the pair's
        cost and emits its ``pair.compared`` event.
        """
        return self._settle([(mod_a, mod_b)])[0]

    def compare_pairs(self, jobs: Sequence[tuple[ParsedModule, ParsedModule]],
                      ) -> list[tuple[PairComparison, float]]:
        """Compare every ``(mod_a, mod_b)`` job; pure (no charge, no event).

        Returns each job's comparison and the simulated Dom0 cost that
        :meth:`compare_pair` charges for it. Header regions are
        digested once per copy. Code regions of equal length are grouped
        by (region, length), and each group is RVA-adjusted in one
        :func:`~repro.core.rva.adjust_rva_pool` pass (``rva_mode=
        "faithful"``: per pair). Two adjusted copies that are byte-equal
        match without being digested; the others are digested and
        compared as before. Regions are visited in ``mod_a``'s order,
        then ``mod_b``'s extras, so costs sum in a fixed order.
        """
        per_byte = self.costs.rva_scan_per_byte + self.costs.hash_per_byte
        headers: dict[int, dict[str, tuple[str, int]]] = {}
        codes: dict[int, dict[str, memoryview]] = {}
        groups: dict[tuple[str, int], _Group] = {}
        pending: list[tuple] = []
        for mod_a, mod_b in jobs:
            head_a, head_b = (self._header_digests(m, headers)
                              for m in (mod_a, mod_b))
            cost = self.costs.compare_per_pair
            outcome: list = []              # [name, mismatched] in visit order
            for name in dict.fromkeys([*head_a, *head_b]):
                ha, hb = head_a.get(name), head_b.get(name)
                if ha is not None and hb is not None:
                    cost += (ha[1] + hb[1]) * self.costs.hash_per_byte
                outcome.append([name, ha is None or hb is None
                                or ha[0] != hb[0]])
            code_a, code_b = (_code_views(m, codes) for m in (mod_a, mod_b))
            rva_stats: dict[str, RvaAdjustStats] = {}
            for name in dict.fromkeys([*code_a, *code_b]):
                data_a, data_b = code_a.get(name), code_b.get(name)
                if data_a is None or data_b is None \
                        or len(data_a) != len(data_b):
                    outcome.append([name, True])
                    continue
                cost += 2 * len(data_a) * per_byte
                entry = [name, None]
                outcome.append(entry)
                rva_stats[name] = None      # filled in by the group
                group = groups.get((name, len(data_a)))
                if group is None:
                    group = groups[name, len(data_a)] = _Group()
                group.add(mod_a, data_a, mod_b, data_b,
                          (entry, rva_stats, name))
            pending.append((mod_a, mod_b, outcome, rva_stats, cost))
        for group in groups.values():
            self._adjust_group(group)
        results = []
        for mod_a, mod_b, outcome, rva_stats, cost in pending:
            order = mod_a.region_names()
            mismatched = [name for name, bad in outcome if bad]
            mismatched.sort(
                key=lambda n: order.index(n) if n in order else 999)
            results.append((PairComparison(
                mod_a.vm_name, mod_b.vm_name, tuple(mismatched), rva_stats),
                cost))
        return results

    def _header_digests(self, mod: ParsedModule,
                        memo: dict[int, dict[str, tuple[str, int]]],
                        ) -> dict[str, tuple[str, int]]:
        """``mod``'s header regions as name -> (digest, length), once
        per copy (``memo`` lives for one :meth:`compare_pairs` call)."""
        found = memo.get(id(mod))
        if found is None:
            found = memo[id(mod)] = {}
            image = memoryview(mod.image)
            for region in mod.header_regions:
                data = image[region.start:region.end]
                found[region.name] = (self.digest(data), len(data))
        return found

    def _adjust_group(self, group: "_Group") -> None:
        """RVA-adjust one (region, length) group and settle its pairs."""
        rows = np.stack([np.frombuffer(c, np.uint8) for c in group.copies])
        if self.rva_mode == "robust":
            outcomes = adjust_rva_pool(rows, group.bases, group.pairs,
                                       group.limits)
        else:
            outcomes = []
            for (i, j), limit in zip(group.pairs, group.limits):
                adj_a, adj_b, stats = self._adjust(
                    rows[i].tobytes(), group.bases[i], rows[j].tobytes(),
                    group.bases[j], max_rva=limit)
                outcomes.append(PoolPair(
                    stats, None if adj_a == adj_b else (adj_a, adj_b)))
        for (entry, rva_stats, name), (stats, adjusted) in zip(
                group.owners, outcomes):
            rva_stats[name] = stats
            entry[1] = adjusted is not None and (
                self.digest(adjusted[0]) != self.digest(adjusted[1]))

    def emit_pair(self, module_name: str, pair: PairComparison) -> None:
        """Emit one ``pair.compared`` audit event (when events are on)."""
        events = self.obs.events
        if events.enabled:
            events.emit("pair.compared", module=module_name,
                        vm_a=pair.vm_a, vm_b=pair.vm_b,
                        matched=pair.matched,
                        mismatched=list(pair.mismatched_regions))

    # -- voting ----------------------------------------------------------------------

    def check_target(self, target: ParsedModule,
                     others: list[ParsedModule]) -> VMCheckReport:
        """Linear mode: the target VM's module vs each other VM (Figs. 7/8)."""
        pairs = tuple(self._settle([(target, other) for other in others]))
        matches = sum(1 for p in pairs if p.matched)
        return VMCheckReport(
            module_name=target.module_name, target_vm=target.vm_name,
            pairs=pairs, matches=matches, comparisons=len(pairs))

    def _settle(self, jobs: list[tuple[ParsedModule, ParsedModule]],
                ) -> list[PairComparison]:
        """:meth:`compare_pairs`, then each job's charge and event in
        order, exactly as a :meth:`compare_pair` loop makes them."""
        pairs = []
        for (mod_a, _), (pair, cost) in zip(jobs, self.compare_pairs(jobs)):
            self._charge(cost)
            self.emit_pair(mod_a.module_name, pair)
            pairs.append(pair)
        return pairs

    def _region_vector(self, mod: ParsedModule,
                       adjusted: dict[str, str]) -> tuple:
        """``mod``'s sorted ``(region, digest)`` vector: header regions
        raw, code regions from ``adjusted`` where the pair adjusted them."""
        items = [(region.name, self.digest(mod.region_bytes(region)))
                 for region in mod.header_regions]
        for region in mod.code_regions:
            digest = adjusted.get(region.name)
            if digest is None:
                digest = self.digest(mod.region_bytes(region))
            items.append((region.name, digest))
        return tuple(sorted(items))

    def canonical_member(self, mod: ParsedModule,
                         counterpart: ParsedModule | None,
                         want_ref: Callable[[str], bool] | None = None,
                         ) -> CanonicalRecord:
        """One member's step of :meth:`check_pool_canonical`.

        RVA-adjusts each of ``mod``'s code regions against the same
        region of ``counterpart`` (None: nothing to adjust against),
        charges the pair's cost once, and returns digests only. The
        counterpart's adjusted digest is kept for each region where
        ``want_ref(region)`` holds, or for every region when
        ``want_ref`` is None (first occurrence wins). The record and the
        charge are a pure function of both copies' bytes and bases,
        which is what lets ``ModChecker`` replay them while both content
        keys hold.
        """
        adjusted: dict[str, str] = {}
        ref_digests: dict[str, str] = {}
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
            adjusted[region.name] = self.digest(adj_mod)
            if region.name not in ref_digests and (
                    want_ref is None or want_ref(region.name)):
                ref_digests[region.name] = self.digest(adj_ref)
            cost += 2 * len(data_mod) * (self.costs.rva_scan_per_byte
                                         + self.costs.hash_per_byte)
        self._charge(cost)
        return CanonicalRecord(self._region_vector(mod, adjusted),
                               ref_digests)

    def check_pool_canonical(
            self, modules: list[ParsedModule], *,
            member_step: Callable[..., CanonicalRecord] | None = None,
    ) -> PoolReport:
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

        Each member is one :meth:`canonical_member` step; a caller that
        can replay steps passes its own ``member_step`` with the same
        signature.
        """
        if not modules:
            return PoolReport(module_name="", vm_names=[], pairs=[],
                              verdicts={})
        step = member_step or self.canonical_member
        reference = modules[0]
        partner = next((m for m in modules[1:] if m.base != reference.base),
                       None)
        names = [m.vm_name for m in modules]

        vectors: dict[str, tuple] = {}
        pairs: list[PairComparison] = []
        ref_digests: dict[str, str] = {}

        def ref_missing(region: str) -> bool:
            return region not in ref_digests

        for mod in modules[1:]:
            if mod.base != reference.base:
                record = step(mod, reference, ref_missing)
                for region, digest in record.ref_digests.items():
                    ref_digests.setdefault(region, digest)
            else:
                record = step(mod, partner, _keep_none)
            vectors[mod.vm_name] = record.vector
        vectors[reference.vm_name] = self._region_vector(reference,
                                                         ref_digests)

        # Cluster by digest vector; majority cluster is clean.
        clusters: dict[tuple, list[str]] = {}
        for vm, vector in vectors.items():
            clusters.setdefault(vector, []).append(vm)
        majority = max(clusters.values(), key=len)
        t = len(modules)
        clean = {vm: (vm in majority and len(majority) > t / 2)
                 for vm in names}

        verdicts: dict[str, VMVerdict] = {}
        majority_map = dict(vectors[majority[0]])
        for vm in names:
            regions = (() if clean[vm]
                       else _mismatched(dict(vectors[vm]), majority_map))
            verdicts[vm] = VMVerdict(
                vm_name=vm, matches=len(clusters[vectors[vm]]) - 1,
                comparisons=t - 1, clean=clean[vm],
                mismatched_regions=regions)
        ref_vector = vectors[reference.vm_name]
        ref_map = dict(ref_vector)
        for mod in modules[1:]:
            vector = vectors[mod.vm_name]
            mism = (() if vector == ref_vector
                    else _mismatched(ref_map, dict(vector)))
            pair = PairComparison(reference.vm_name, mod.vm_name, mism)
            pairs.append(pair)
            self.emit_pair(reference.module_name, pair)
        return PoolReport(module_name=reference.module_name,
                          vm_names=names, pairs=pairs, verdicts=verdicts)

    def check_pool(self, modules: list[ParsedModule]) -> PoolReport:
        """Full cross-check: every pair once, then per-VM majority votes."""
        pairs = self._settle([(mod_a, mod_b)
                              for i, mod_a in enumerate(modules)
                              for mod_b in modules[i + 1:]])
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

        # a flagged VM's regions: those its pairs with clean VMs
        # mismatched, in pair order (one pass indexes the pairs by VM)
        against_clean: dict[str, list[PairComparison]] = {
            name: [] for name in names if not clean[name]}
        for p in pairs:
            if p.vm_a in against_clean and clean.get(p.vm_b, False):
                against_clean[p.vm_a].append(p)
            if p.vm_b in against_clean and clean.get(p.vm_a, False):
                against_clean[p.vm_b].append(p)
        verdicts: dict[str, VMVerdict] = {}
        for name in names:
            regions = dict.fromkeys(region
                                    for p in against_clean.get(name, ())
                                    for region in p.mismatched_regions)
            verdicts[name] = VMVerdict(
                vm_name=name, matches=match_count[name], comparisons=t - 1,
                clean=clean[name], mismatched_regions=tuple(regions))
        return PoolReport(module_name=modules[0].module_name if modules else "",
                          vm_names=names, pairs=pairs, verdicts=verdicts)
