#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names each module exports
via ``__all__``, and emits a markdown reference built from the live
docstrings — so the reference cannot drift from the code. Run::

    python tools/gen_api_docs.py          # writes docs/API.md
    python tools/gen_api_docs.py --check  # exit 1 if API.md is stale
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.pe", "repro.mem", "repro.guest", "repro.hypervisor",
    "repro.vmi", "repro.attacks", "repro.core", "repro.perf",
    "repro.cloud", "repro.analysis", "repro.obs", "repro.forensics",
]

MODULES = [
    "repro.errors", "repro.rng", "repro.cli",
    "repro.pe.structures", "repro.pe.builder", "repro.pe.parser",
    "repro.pe.relocations", "repro.pe.exports", "repro.pe.imports",
    "repro.pe.codegen", "repro.pe.disasm", "repro.pe.checksum",
    "repro.mem.physical", "repro.mem.paging", "repro.mem.address_space",
    "repro.mem.regions",
    "repro.guest.unicode_string", "repro.guest.ldr", "repro.guest.loader",
    "repro.guest.kernel", "repro.guest.catalog", "repro.guest.filesystem",
    "repro.hypervisor.clock", "repro.hypervisor.domain",
    "repro.hypervisor.scheduler", "repro.hypervisor.xen",
    "repro.hypervisor.faults", "repro.hypervisor.traps",
    "repro.vmi.core", "repro.vmi.symbols", "repro.vmi.cache",
    "repro.vmi.dump", "repro.vmi.retry",
    "repro.attacks.base", "repro.attacks.opcode",
    "repro.attacks.inline_hook", "repro.attacks.stub",
    "repro.attacks.dll_inject", "repro.attacks.headers",
    "repro.attacks.memory", "repro.attacks.registry",
    "repro.core.searcher", "repro.core.parser", "repro.core.rva",
    "repro.core.integrity", "repro.core.modchecker", "repro.core.report",
    "repro.core.carver", "repro.core.crossview",
    "repro.core.versioning", "repro.core.daemon", "repro.core.health",
    "repro.core.baselines",
    "repro.perf.costmodel", "repro.perf.workload", "repro.perf.monitor",
    "repro.perf.timing",
    "repro.cloud.testbed", "repro.cloud.scenarios", "repro.cloud.chaos",
    "repro.cloud.fleet",
    "repro.analysis.stats", "repro.analysis.tables", "repro.analysis.export",
    "repro.obs.trace", "repro.obs.metrics", "repro.obs.bridge",
    "repro.obs.events", "repro.obs.sinks", "repro.obs.profiler",
    "repro.obs.slo",
    "repro.forensics.diff", "repro.forensics.evidence",
    "repro.forensics.bundle",
]


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _describe(module, name: str) -> list[str]:
    obj = getattr(module, name, None)
    if obj is None:
        return []
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"#### `{name}`\n")
        lines.append(_first_paragraph(obj.__doc__) + "\n")
        methods = [
            (m, fn) for m, fn in inspect.getmembers(obj)
            if not m.startswith("_")
            and (inspect.isfunction(fn) or inspect.ismethod(fn))
            and fn.__qualname__.startswith(obj.__name__ + ".")]
        for m, fn in methods:
            lines.append(f"- `{m}{_signature(fn)}` — "
                         f"{_first_paragraph(fn.__doc__)}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"#### `{name}{_signature(obj)}`\n")
        lines.append(_first_paragraph(obj.__doc__) + "\n")
    else:
        doc = _first_paragraph(getattr(obj, "__doc__", None)) \
            if not isinstance(obj, (int, str, bytes, tuple, dict, float)) \
            else f"constant = `{obj!r}`" if not isinstance(obj, dict) \
            else "constant mapping"
        lines.append(f"#### `{name}`\n")
        lines.append((doc or "constant") + "\n")
    return lines


def generate() -> str:
    out: list[str] = [
        "# API reference",
        "",
        "_Generated from docstrings by `tools/gen_api_docs.py`;"
        " do not edit by hand._",
        "",
    ]
    for mod_name in MODULES:
        module = importlib.import_module(mod_name)
        exported = list(getattr(module, "__all__", []))
        if not exported:
            continue
        out.append(f"## `{mod_name}`")
        out.append("")
        out.append(_first_paragraph(module.__doc__))
        out.append("")
        for name in exported:
            out.extend(_describe(module, name))
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    content = generate()
    if "--check" in argv:
        if not target.exists() or target.read_text() != content:
            print(f"{target} is stale; regenerate with "
                  f"python tools/gen_api_docs.py")
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content)
    print(f"wrote {target} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
