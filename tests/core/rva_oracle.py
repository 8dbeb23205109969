"""Per-byte reference implementations of Algorithm 2's robust rule.

These are the straightforward scalar loops that :func:`repro.core.rva.
scan_slots` replaces: one visit per byte, candidate windows tried in
place on buffers that earlier accepted slots have already rewritten.
They are kept verbatim as a differential oracle — the kernel, the
robust adjuster and the forensic diff must reproduce them byte for
byte, counter for counter and hunk for hunk.

:func:`oracle_adjust_rva_pool` and :func:`oracle_compare_pair` lift the
per-byte loop to the pairwise vote: one pair at a time, every region
digested, the way the integrity checker compared pairs before its pool
batch.
"""

from __future__ import annotations

import struct

from repro.core.parser import ParsedModule
from repro.core.report import PairComparison
from repro.core.rva import RvaAdjustStats
from repro.forensics.diff import _HunkSink, _make_hunk
from repro.perf.costmodel import DEFAULT_COST_MODEL

__all__ = ["oracle_adjust_rva_robust", "oracle_diff_relocatable",
           "oracle_adjust_rva_pool", "oracle_compare_pair"]

_U32 = struct.Struct("<I")


def _read_u32(buf: bytearray, off: int) -> int:
    return _U32.unpack_from(buf, off)[0]


def _write_u32(buf: bytearray, off: int, value: int) -> None:
    _U32.pack_into(buf, off, value & 0xFFFFFFFF)


def _try_window(out1: bytearray, out2: bytearray, j: int, base1: int,
                base2: int, limit: int) -> int | None:
    """Find a candidate slot start covering difference position ``j``.

    Returns the accepted start offset, or None. Candidates are tried
    from the earliest position whose 4-byte slot still covers ``j``.
    """
    n = len(out1)
    for start in range(max(0, j - 3), min(j, n - 4) + 1):
        abs1 = _read_u32(out1, start)
        abs2 = _read_u32(out2, start)
        rva1 = (abs1 - base1) & 0xFFFFFFFF
        rva2 = (abs2 - base2) & 0xFFFFFFFF
        if rva1 == rva2 and rva1 < limit:
            _write_u32(out1, start, rva1)
            _write_u32(out2, start, rva2)
            return start
    return None


def oracle_adjust_rva_robust(data1: bytes, base1: int, data2: bytes,
                             base2: int, *, max_rva: int | None = None,
                             ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """Candidate-window search; no base-byte-pattern assumption."""
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    out1, out2 = bytearray(data1), bytearray(data2)
    stats = RvaAdjustStats()
    if base1 == base2:
        return bytes(out1), bytes(out2), stats
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    n = len(out1)
    j = 0
    while j < n:
        if out1[j] == out2[j]:
            j += 1
            continue
        stats.windows += 1
        start = _try_window(out1, out2, j, base1, base2, limit)
        if start is None:
            stats.unresolved += 1
            j += 1
        else:
            stats.replaced += 1
            j = start + 4
    return bytes(out1), bytes(out2), stats


def _try_slot(out_s: bytearray, out_r: bytearray, j: int, base_s: int,
              base_r: int, limit: int) -> tuple[int, int] | None:
    """Robust-rule candidate search around difference position ``j``.

    Returns ``(slot_start, rva)`` and rewrites both buffers to the RVA
    (exactly like the robust adjuster, so later scans see adjusted
    content), or ``None`` when no candidate explains the difference.
    """
    n = len(out_s)
    for start in range(max(0, j - 3), min(j, n - 4) + 1):
        abs_s = _U32.unpack_from(out_s, start)[0]
        abs_r = _U32.unpack_from(out_r, start)[0]
        rva_s = (abs_s - base_s) & 0xFFFFFFFF
        rva_r = (abs_r - base_r) & 0xFFFFFFFF
        if rva_s == rva_r and rva_s < limit:
            _U32.pack_into(out_s, start, rva_s)
            _U32.pack_into(out_r, start, rva_r)
            return start, rva_s
    return None


def oracle_diff_relocatable(region: str, data_s: bytes, base_s: int,
                            data_r: bytes, base_r: int, limit: int,
                            sink: _HunkSink) -> RvaAdjustStats:
    """Robust-reverser scan producing classified hunks + its counters."""
    out_s, out_r = bytearray(data_s), bytearray(data_r)
    stats = RvaAdjustStats()
    tamper_start: int | None = None

    def flush_tamper(end: int) -> None:
        nonlocal tamper_start
        if tamper_start is not None:
            sink.add(_make_hunk(region, tamper_start,
                                data_s[tamper_start:end],
                                data_r[tamper_start:end], "tamper"))
            tamper_start = None

    j, n = 0, len(out_s)
    while j < n:
        if out_s[j] == out_r[j]:
            flush_tamper(j)
            j += 1
            continue
        stats.windows += 1
        found = _try_slot(out_s, out_r, j, base_s, base_r, limit)
        if found is None:
            stats.unresolved += 1
            if tamper_start is None:
                tamper_start = j
            j += 1
            continue
        flush_tamper(j)
        start, rva = found
        stats.replaced += 1
        sink.add(_make_hunk(region, start, data_s[start:start + 4],
                            data_r[start:start + 4], "relocation",
                            rva=rva))
        j = start + 4
    flush_tamper(n)
    return stats


def oracle_adjust_rva_pool(rows, bases, pairs, limits,
                           ) -> list[tuple[bytes, bytes, RvaAdjustStats]]:
    """The per-byte adjuster on every pair of a pool of equal-length
    copies (``rows[i]``, ``bases[i]``), pair by pair."""
    return [oracle_adjust_rva_robust(bytes(rows[i]), bases[i],
                                     bytes(rows[j]), bases[j],
                                     max_rva=limit)
            for (i, j), limit in zip(pairs, limits)]


def oracle_compare_pair(mod_a: ParsedModule, mod_b: ParsedModule, digest,
                        costs=DEFAULT_COST_MODEL,
                        ) -> tuple[PairComparison, float,
                                   dict[str, tuple[bytes, bytes]]]:
    """One pair compared region by region with the per-byte adjuster.

    Regions are visited in ``mod_a``'s order, then ``mod_b``'s extras;
    every compared region is digested on both sides. Returns the
    comparison, the pair's simulated cost (summed in visit order) and
    each adjusted code region's two copies.
    """
    mismatched: list[str] = []
    rva_stats: dict[str, RvaAdjustStats] = {}
    adjusted: dict[str, tuple[bytes, bytes]] = {}
    cost = costs.compare_per_pair
    for kind in ("header_regions", "code_regions"):
        regions_a = {r.name: r for r in getattr(mod_a, kind)}
        regions_b = {r.name: r for r in getattr(mod_b, kind)}
        for name in dict.fromkeys([*regions_a, *regions_b]):
            ra, rb = regions_a.get(name), regions_b.get(name)
            if ra is None or rb is None:
                mismatched.append(name)
                continue
            data_a, data_b = mod_a.region_bytes(ra), mod_b.region_bytes(rb)
            if kind == "header_regions":
                cost += (len(data_a) + len(data_b)) * costs.hash_per_byte
            elif len(data_a) != len(data_b):
                mismatched.append(name)
                continue
            else:
                data_a, data_b, rva_stats[name] = oracle_adjust_rva_robust(
                    data_a, mod_a.base, data_b, mod_b.base,
                    max_rva=max(len(mod_a.image), len(mod_b.image)))
                adjusted[name] = (data_a, data_b)
                cost += 2 * len(data_a) * (costs.rva_scan_per_byte
                                           + costs.hash_per_byte)
            if digest(data_a) != digest(data_b):
                mismatched.append(name)
    order = mod_a.region_names()
    mismatched.sort(key=lambda n: order.index(n) if n in order else 999)
    return (PairComparison(mod_a.vm_name, mod_b.vm_name, tuple(mismatched),
                           rva_stats), cost, adjusted)
