"""Byte-diff hunks between two module copies, relocation-aware.

The integrity checker only says *that* a region's hash mismatched; an
incident responder needs *which bytes* differed and *why*. Two clean
copies of the same module loaded at different bases legitimately differ
at every 32-bit slot the loader rebased, so a naive byte diff of a code
section is all noise. This module reuses the acceptance rule of the RVA
reverser (:mod:`repro.core.rva`, the paper's Algorithm 2) to classify
every difference window:

* **relocation** — a 4-byte slot where both sides decode to the *same,
  plausible* RVA (``absolute - base`` agrees); the decoded RVA is kept
  in the hunk, restoring the paper's Fig. 4 story byte by byte;
* **tamper** — a difference no candidate address slot can explain: the
  attacker's actual edit, reported with offset, length and the
  before/after bytes;
* **structural** — the region exists on only one side, or the two
  copies disagree on its size (e.g. an injected section).

The hunks come from :func:`repro.core.rva.scan_slots`, the same kernel
behind :func:`repro.core.rva.adjust_rva_robust`, so a clean pair at
different bases yields *zero* tamper hunks — the invariant the
clean-pool acceptance test pins down — and the per-region
:class:`~repro.core.rva.RvaAdjustStats` agree with what the checker saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.parser import ParsedModule
from ..core.rva import RvaAdjustStats, scan_slots

__all__ = ["HUNK_BYTE_CAP", "DiffHunk", "RegionDiff", "diff_region_pair",
           "diff_modules"]

#: Per-hunk cap on captured before/after bytes, keeping bundles bounded
#: even when an attacker rewrites a whole section.
HUNK_BYTE_CAP = 64


@dataclass(frozen=True)
class DiffHunk:
    """One contiguous difference between two copies of a region.

    ``offset`` is relative to the region start; ``suspect_bytes`` /
    ``reference_bytes`` carry at most :data:`HUNK_BYTE_CAP` bytes each
    (``truncated`` marks a capped capture, ``length`` is always the
    true extent). ``rva`` is the decoded relative virtual address for
    relocation-explained hunks.
    """

    region: str
    offset: int
    length: int
    kind: str                    # "relocation" | "tamper" | "structural"
    suspect_bytes: bytes
    reference_bytes: bytes
    rva: int | None = None
    truncated: bool = False

    @property
    def explained(self) -> bool:
        """True when relocation fully accounts for this difference."""
        return self.kind == "relocation"


@dataclass
class RegionDiff:
    """All hunks of one region, plus the reverser's outcome counters."""

    region: str
    hunks: list[DiffHunk] = field(default_factory=list)
    rva_stats: RvaAdjustStats | None = None
    #: unexplained hunks dropped beyond the per-region cap
    dropped_hunks: int = 0
    #: relocation hunks dropped beyond the cap (informational: the
    #: slot total survives in ``rva_stats.replaced``)
    dropped_relocations: int = 0

    @property
    def unexplained(self) -> list[DiffHunk]:
        return [h for h in self.hunks if h.kind != "relocation"]

    @property
    def clean(self) -> bool:
        """True when every difference is relocation-explained."""
        return not self.unexplained and self.dropped_hunks == 0


def _capped(data: bytes) -> tuple[bytes, bool]:
    if len(data) > HUNK_BYTE_CAP:
        return data[:HUNK_BYTE_CAP], True
    return data, False


def _make_hunk(region: str, offset: int, suspect: bytes, reference: bytes,
               kind: str, rva: int | None = None) -> DiffHunk:
    s, s_trunc = _capped(suspect)
    r, r_trunc = _capped(reference)
    return DiffHunk(region=region, offset=offset,
                    length=max(len(suspect), len(reference)), kind=kind,
                    suspect_bytes=s, reference_bytes=r, rva=rva,
                    truncated=s_trunc or r_trunc)


class _HunkSink:
    """Collects hunks up to per-kind caps, counting the overflow.

    Relocation and unexplained hunks are capped *separately*: a heavily
    relocated section (hundreds of legitimate slots) must never crowd
    the tamper evidence out of the bundle.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.hunks: list[DiffHunk] = []
        self._relocs = 0
        self._others = 0
        self.dropped = 0
        self.dropped_relocations = 0

    def add(self, hunk: DiffHunk) -> None:
        if hunk.kind == "relocation":
            if self._relocs < self.limit:
                self._relocs += 1
                self.hunks.append(hunk)
            else:
                self.dropped_relocations += 1
        elif self._others < self.limit:
            self._others += 1
            self.hunks.append(hunk)
        else:
            self.dropped += 1


def _diff_raw(region: str, data_s: bytes, data_r: bytes,
              sink: _HunkSink) -> None:
    """Grouped plain byte diff — every difference is tamper."""
    j, n = 0, len(data_s)
    while j < n:
        if data_s[j] == data_r[j]:
            j += 1
            continue
        k = j
        while k < n and data_s[k] != data_r[k]:
            k += 1
        sink.add(_make_hunk(region, j, data_s[j:k], data_r[j:k],
                            "tamper"))
        j = k


def _diff_relocatable(region: str, data_s: bytes, base_s: int,
                      data_r: bytes, base_r: int, limit: int,
                      sink: _HunkSink) -> RvaAdjustStats:
    """Robust-reverser scan producing classified hunks + its counters.

    One relocation hunk per accepted slot; one tamper hunk per maximal
    run of consecutive unresolved window positions, in scan order.
    """
    scan = scan_slots(data_s, base_s, data_r, base_r, limit)
    stats = RvaAdjustStats(windows=int(scan.window.size))
    run_start = run_end = -1             # current unresolved run

    def flush_tamper(start: int, end: int) -> None:
        if start >= 0:
            sink.add(_make_hunk(region, start, data_s[start:end],
                                data_r[start:end], "tamper"))

    for j, start, rva in zip(scan.window.tolist(), scan.start.tolist(),
                             scan.rva.tolist()):
        if start < 0 and j == run_end:
            run_end = j + 1
            continue
        flush_tamper(run_start, run_end)
        if start < 0:
            run_start, run_end = j, j + 1
            continue
        run_start = run_end = -1
        stats.replaced += 1
        sink.add(_make_hunk(region, start, data_s[start:start + 4],
                            data_r[start:start + 4], "relocation",
                            rva=rva))
    flush_tamper(run_start, run_end)
    stats.unresolved = stats.windows - stats.replaced
    return stats


def diff_region_pair(region: str, data_s: bytes, base_s: int,
                     data_r: bytes, base_r: int, *,
                     relocatable: bool = True,
                     max_rva: int | None = None,
                     max_hunks: int = 64) -> RegionDiff:
    """Diff one region's two copies into classified hunks.

    ``relocatable`` is True for code sections (the loader rebases
    them); header regions are base-independent, so every difference
    there is tamper by definition. Copies of unequal size get a
    structural hunk for the tail plus a normal diff of the overlap.
    """
    sink = _HunkSink(max_hunks)
    stats: RvaAdjustStats | None = None
    overlap = min(len(data_s), len(data_r))
    if relocatable and base_s != base_r and overlap >= 4:
        limit = max_rva if max_rva is not None else max(overlap * 16,
                                                        1 << 20)
        stats = _diff_relocatable(region, data_s[:overlap], base_s,
                                  data_r[:overlap], base_r, limit, sink)
    else:
        _diff_raw(region, data_s[:overlap], data_r[:overlap], sink)
    if len(data_s) != len(data_r):
        sink.add(_make_hunk(region, overlap, data_s[overlap:],
                            data_r[overlap:], "structural"))
    return RegionDiff(region=region, hunks=sink.hunks, rva_stats=stats,
                      dropped_hunks=sink.dropped,
                      dropped_relocations=sink.dropped_relocations)


def diff_modules(suspect: ParsedModule, reference: ParsedModule, *,
                 max_hunks_per_region: int = 64) -> list[RegionDiff]:
    """Region-by-region forensic diff of a suspect vs a reference copy.

    Walks the union of both copies' regions in the suspect's layout
    order: header regions diff raw (base-independent), code regions
    through the relocation reverser. A region present on only one side
    becomes a single structural hunk — the E4 injected-section
    signature. Regions whose copies are identical are omitted.
    """
    max_rva = max(len(suspect.image), len(reference.image))

    def side(mod: ParsedModule) -> dict[str, tuple[bytes, bool]]:
        table: dict[str, tuple[bytes, bool]] = {}
        for r in mod.header_regions:
            table[r.name] = (mod.region_bytes(r), False)
        for r in mod.code_regions:
            table[r.name] = (mod.region_bytes(r), True)
        return table

    table_s, table_r = side(suspect), side(reference)
    order = list(dict.fromkeys(suspect.region_names()
                               + reference.region_names()))
    diffs: list[RegionDiff] = []
    for name in order:
        in_s, in_r = table_s.get(name), table_r.get(name)
        if in_s is None or in_r is None:
            data = (in_s or in_r)[0]
            hunk = _make_hunk(name, 0, data if in_s else b"",
                              data if in_r else b"", "structural")
            diffs.append(RegionDiff(region=name, hunks=[hunk]))
            continue
        (data_s, relocatable), (data_r, _) = in_s, in_r
        region_diff = diff_region_pair(
            name, data_s, suspect.base, data_r, reference.base,
            relocatable=relocatable, max_rva=max_rva,
            max_hunks=max_hunks_per_region)
        if (region_diff.hunks or region_diff.dropped_hunks
                or region_diff.dropped_relocations):
            diffs.append(region_diff)
    return diffs
