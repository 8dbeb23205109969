"""Relocation-aware byte-diff tests: classification, caps, structure."""

from __future__ import annotations

import struct

from repro.core.parser import ParsedModule
from repro.core.rva import adjust_rva_robust
from repro.forensics.diff import (HUNK_BYTE_CAP, diff_modules,
                                  diff_region_pair)
from repro.pe.parser import Region

BASE_S, BASE_R = 0x0010_0000, 0x0020_0000


def _code(base: int, rvas: list[int], size: int = 64) -> bytes:
    """NOP sled with absolute pointers to ``base + rva`` planted in it."""
    buf = bytearray(b"\x90" * size)
    for i, rva in enumerate(rvas):
        struct.pack_into("<I", buf, 8 + 8 * i, base + rva)
    return bytes(buf)


class TestCleanPairs:
    def test_identical_copies_produce_no_hunks(self):
        data = _code(BASE_S, [0x40, 0x80])
        d = diff_region_pair(".text", data, BASE_S, data, BASE_S)
        assert d.hunks == [] and d.clean

    def test_relocated_copies_fully_explained(self):
        rvas = [0x40, 0x80, 0x100]
        d = diff_region_pair(".text", _code(BASE_S, rvas), BASE_S,
                             _code(BASE_R, rvas), BASE_R)
        assert d.clean
        assert [h.kind for h in d.hunks] == ["relocation"] * 3
        assert [h.rva for h in d.hunks] == rvas
        assert [h.offset for h in d.hunks] == [8, 16, 24]

    def test_stats_agree_with_robust_adjuster(self):
        rvas = [0x40, 0x80]
        data_s, data_r = _code(BASE_S, rvas), _code(BASE_R, rvas)
        d = diff_region_pair(".text", data_s, BASE_S, data_r, BASE_R)
        _, _, stats = adjust_rva_robust(data_s, BASE_S, data_r, BASE_R)
        assert d.rva_stats == stats


class TestTamper:
    def test_tamper_hunk_reports_exact_offset_and_bytes(self):
        rvas = [0x40]
        suspect = bytearray(_code(BASE_S, rvas))
        suspect[3:6] = b"\x83\xe9\x01"       # SUB ECX,1 over NOPs
        d = diff_region_pair(".text", bytes(suspect), BASE_S,
                             _code(BASE_R, rvas), BASE_R)
        assert not d.clean
        tamper = d.unexplained
        assert len(tamper) == 1
        h = tamper[0]
        assert (h.offset, h.length) == (3, 3)
        assert h.suspect_bytes == b"\x83\xe9\x01"
        assert h.reference_bytes == b"\x90\x90\x90"
        # the legitimate pointer is still relocation-explained
        assert [r.rva for r in d.hunks if r.kind == "relocation"] == rvas

    def test_header_regions_diff_raw(self):
        # base-independent region: any difference is tamper, even a
        # plausible-looking pointer slot
        a = bytearray(32)
        b = bytearray(32)
        struct.pack_into("<I", a, 8, BASE_S + 0x40)
        struct.pack_into("<I", b, 8, BASE_R + 0x40)
        d = diff_region_pair("IMAGE_NT_HEADER", bytes(a), BASE_S,
                             bytes(b), BASE_R, relocatable=False)
        assert [h.kind for h in d.hunks] == ["tamper"]

    def test_adjacent_tamper_bytes_group_into_one_hunk(self):
        data_r = b"\x90" * 16
        data_s = b"\x90\x90\xde\xad\xbe\xef" + b"\x90" * 10
        d = diff_region_pair(".text", data_s, BASE_S, data_r, BASE_S)
        assert len(d.hunks) == 1
        assert (d.hunks[0].offset, d.hunks[0].length) == (2, 4)


class TestStructural:
    def test_length_mismatch_adds_structural_tail(self):
        data_r = b"\x90" * 16
        data_s = data_r + b"\xcc" * 4
        d = diff_region_pair(".text", data_s, BASE_S, data_r, BASE_S)
        kinds = [h.kind for h in d.hunks]
        assert kinds == ["structural"]
        assert d.hunks[0].offset == 16
        assert d.hunks[0].suspect_bytes == b"\xcc" * 4
        assert d.hunks[0].reference_bytes == b""
        assert not d.clean


class TestCaps:
    def test_hunk_bytes_capped_but_length_exact(self):
        n = HUNK_BYTE_CAP * 3
        data_s = b"\xcc" * n
        data_r = b"\x90" * n
        d = diff_region_pair(".data", data_s, BASE_S, data_r, BASE_S,
                             relocatable=False)
        h = d.hunks[0]
        assert h.length == n
        assert len(h.suspect_bytes) == HUNK_BYTE_CAP
        assert h.truncated

    def test_relocations_never_crowd_out_tamper(self):
        # More relocation slots than the cap, then one tamper byte at
        # the very end: the tamper hunk must still be captured.
        rvas = [0x40 + 4 * i for i in range(10)]
        size = 8 + 8 * len(rvas) + 8
        suspect = bytearray(_code(BASE_S, rvas, size=size))
        suspect[-1] = 0xCC
        d = diff_region_pair(".text", bytes(suspect), BASE_S,
                             _code(BASE_R, rvas, size=size), BASE_R,
                             max_hunks=4)
        assert len(d.unexplained) == 1
        assert d.unexplained[0].offset == size - 1
        assert d.dropped_relocations == len(rvas) - 4
        assert d.dropped_hunks == 0


def _parsed(vm: str, base: int, *, rvas=(0x40,), tamper_at=None,
            extra_region=False) -> ParsedModule:
    header = bytes(range(32))
    code = bytearray(_code(base, list(rvas)))
    if tamper_at is not None:
        code[tamper_at] ^= 0xFF
    image = header + bytes(code) + (b"\xee" * 16 if extra_region else b"")
    header_regions = [Region("IMAGE_DOS_HEADER", 0, 32)]
    code_regions = [Region(".text", 32, 32 + len(code))]
    if extra_region:
        code_regions.append(Region(".evil", 32 + len(code), len(image)))
    return ParsedModule(vm_name=vm, module_name="hal.dll", base=base,
                        image=image, header_regions=header_regions,
                        code_regions=code_regions)


class TestDiffModules:
    def test_clean_relocated_modules_all_explained(self):
        diffs = diff_modules(_parsed("Dom1", BASE_S),
                             _parsed("Dom2", BASE_R))
        assert all(d.clean for d in diffs)
        assert [d.region for d in diffs] == [".text"]

    def test_tampered_code_flagged_with_region_name(self):
        diffs = diff_modules(_parsed("Dom1", BASE_S, tamper_at=2),
                             _parsed("Dom2", BASE_R))
        bad = [d for d in diffs if not d.clean]
        assert [d.region for d in bad] == [".text"]
        assert bad[0].unexplained[0].offset == 2

    def test_region_on_one_side_is_structural(self):
        diffs = diff_modules(_parsed("Dom1", BASE_S, extra_region=True),
                             _parsed("Dom2", BASE_R))
        evil = next(d for d in diffs if d.region == ".evil")
        assert [h.kind for h in evil.hunks] == ["structural"]
        assert evil.hunks[0].suspect_bytes.startswith(b"\xee")
        assert evil.hunks[0].reference_bytes == b""

    def test_identical_regions_omitted(self):
        diffs = diff_modules(_parsed("Dom1", BASE_S),
                             _parsed("Dom2", BASE_S))
        assert diffs == []
