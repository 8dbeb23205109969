"""The x86 PDE/PTE format is decoded in one module: ``repro.mem.paging``.

Every other component walks guest page tables through
:func:`~repro.mem.paging.walk`, :func:`~repro.mem.paging.walk_batch`,
:func:`~repro.mem.paging.mapped_pages` or
:func:`~repro.mem.paging.page_table_frame`. This scan fails if the
entry bits or the page-directory index split appear anywhere else in
the package, so a second decoder cannot grow back unnoticed.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
OWNER = PACKAGE / "mem" / "paging.py"
FORMAT = re.compile(r"\bPDE_LARGE\b|\bPTE_PRESENT\b|>>\s*22\)\s*&\s*0x3FF",
                    re.IGNORECASE)


def test_only_paging_decodes_page_table_entries():
    hits = [f"{path.relative_to(PACKAGE)}:{n}: {line.strip()}"
            for path in sorted(PACKAGE.rglob("*.py")) if path != OWNER
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if FORMAT.search(line)]
    assert hits == []


def test_the_scan_sees_the_owner():
    assert OWNER.is_file() and FORMAT.search(OWNER.read_text())
