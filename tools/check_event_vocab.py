#!/usr/bin/env python
"""Lint the closed observability vocabularies.

Three vocabularies are *closed*: audit-event names
(``repro.obs.events.EVENT_NAMES``, used by ``emit(...)``), span names
(``repro.obs.trace.SPAN_NAMES``, used by ``span(...)``) and page-op
names (``repro.obs.trace.OP_NAMES``, used by ``charge(...)``). The
runtime enforces each at its call layer; this linter enforces them
statically (so a typo'd name fails CI even on a code path no test
exercises) and on captured JSONL logs (so an archived artifact can be
trusted without re-running anything).

Usage::

    python tools/check_event_vocab.py                 # lint src/ sites
    python tools/check_event_vocab.py log.jsonl ...   # also lint logs

Exit status 0 iff every literal ``emit``/``span``/``charge`` site and
every log record is in vocabulary, the source uses every vocabulary
name somewhere (a dead name means the docs overstate what the pipeline
can produce), and the vocabulary tables in the ``repro.obs.events`` /
``repro.obs.trace`` module docstrings document every name (so a new
family — e.g. the ``slo.*`` events — cannot land undocumented).

Metric families are linted the same way. Declared families (the
:class:`repro.counters.Series` on every stats class) must carry valid
names, one kind and one help text per family, and no series declared
twice; hand-published families are the literal
``.counter(``/``.gauge(``/``.histogram(`` sites under ``src/``. The
metric tables of ``docs/OBSERVABILITY.md`` must list exactly those
families, with their kinds, checked both ways.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.cloud  # noqa: E402,F401  (imports every declaring module)
import repro.core.repair  # noqa: E402,F401
from repro.counters import DECLARED  # noqa: E402
from repro.obs.events import EVENT_NAMES  # noqa: E402
from repro.obs.metrics import _NAME_RE  # noqa: E402
from repro.obs.trace import OP_NAMES, SPAN_NAMES  # noqa: E402

METRIC_DOC = ROOT / "docs" / "OBSERVABILITY.md"
_FAMILY_SITE_RE = re.compile(
    r"""\.(counter|gauge|histogram)\(\s*(['"])([^'"]+)\2""")
_TABLE_ROW_RE = re.compile(r"^\| `(modchecker_\w+)` \| (\w+) \|",
                           re.MULTILINE)

#: (call, vocabulary, what) triples; each matches ``.call("name"`` /
#: ``.call('name'`` with a literal first argument, across line breaks.
VOCABULARIES = (
    ("emit", frozenset(EVENT_NAMES), "event"),
    ("span", frozenset(SPAN_NAMES), "span"),
    ("charge", frozenset(OP_NAMES), "page-op"),
)


def _site_re(call: str) -> re.Pattern:
    return re.compile(r"\." + call + r"""\(\s*(['"])([^'"]+)\1""")


def lint_sources(src: Path) -> tuple[list[str], dict[str, set[str]]]:
    """Return (violations, {call: names actually used}) for a tree."""
    problems: list[str] = []
    used: dict[str, set[str]] = {call: set() for call, _, _ in
                                 VOCABULARIES}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        shown = path.relative_to(ROOT) \
            if path.is_relative_to(ROOT) else path
        for call, vocabulary, what in VOCABULARIES:
            for match in _site_re(call).finditer(text):
                name = match.group(2)
                used[call].add(name)
                if name not in vocabulary:
                    lineno = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"{shown}:{lineno}: "
                        f"{call} of out-of-vocabulary {what} {name!r}")
    return problems, used


def lint_docstring_tables() -> list[str]:
    """Every vocabulary name must appear in its module's docstring.

    The tables there are the reference downstream docs link to; a name
    in a vocabulary but not in its table is a silent doc gap.
    """
    import repro.obs.events as events_mod
    import repro.obs.trace as trace_mod
    problems = []
    for names, mod, label in (
            (EVENT_NAMES, events_mod, "repro.obs.events"),
            (SPAN_NAMES, trace_mod, "repro.obs.trace"),
            (OP_NAMES, trace_mod, "repro.obs.trace")):
        doc = mod.__doc__ or ""
        # OP_NAMES documents itself on the tuple, not the module doc
        if names is OP_NAMES:
            import inspect
            doc += inspect.getsource(trace_mod)
        problems.extend(
            f"vocabulary name {name!r} missing from the "
            f"{label} docstring table"
            for name in names if f"``{name}``" not in doc)
    return problems


def lint_declarations(classes=None) -> tuple[list[str], dict[str, str]]:
    """(violations, {family: kind}) over the declared stats classes."""
    problems: list[str] = []
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    seen: dict[tuple, int] = {}
    for cls in DECLARED if classes is None else classes:
        for series in cls.METRICS:
            name = series.name
            where = f"{cls.__name__}: {name}"
            key = (name, tuple(sorted(series.labels.items())), series.by)
            if seen.setdefault(key, id(series)) != id(series):
                problems.append(f"{where} {dict(key[1]) or series.by or ''}"
                                f" declared twice")
            if not _NAME_RE.match(name):
                problems.append(f"{where} is not a valid metric name")
            if series.kind not in ("counter", "gauge"):
                problems.append(f"{where} has unknown kind {series.kind!r}")
            if kinds.setdefault(name, series.kind) != series.kind:
                problems.append(f"{where} declared as both "
                                f"{kinds[name]} and {series.kind}")
            if helps.setdefault(name, series.help) != series.help:
                problems.append(f"{where} declared with two help texts")
    return problems, kinds


def lint_metric_sites(src: Path, declared: dict[str, str]
                      ) -> tuple[list[str], dict[str, str]]:
    """(violations, {family: kind}) over hand-published literal sites."""
    problems: list[str] = []
    kinds: dict[str, str] = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for match in _FAMILY_SITE_RE.finditer(text):
            kind, name = match.group(1), match.group(3)
            lineno = text.count("\n", 0, match.start()) + 1
            where = f"{path.name}:{lineno}: {name}"
            if not _NAME_RE.match(name):
                problems.append(f"{where} is not a valid metric name")
            if name in declared:
                problems.append(f"{where} is declared on a stats class; "
                                f"publish it with record_stats")
            if kinds.setdefault(name, kind) != kind:
                problems.append(f"{where} published as both "
                                f"{kinds[name]} and {kind}")
    return problems, kinds


def lint_metric_table(families: dict[str, str],
                      doc: Path = METRIC_DOC) -> list[str]:
    """The doc's metric tables list exactly ``families`` (name, kind)."""
    rows = dict(_TABLE_ROW_RE.findall(doc.read_text()))
    problems = [f"metric {name!r} ({kind}) missing from {doc.name}"
                for name, kind in sorted(families.items())
                if name not in rows]
    problems += [f"{doc.name} lists {name!r}, which nothing publishes"
                 for name in sorted(set(rows) - set(families))]
    problems += [f"{doc.name} lists {name!r} as {rows[name]}, "
                 f"the code publishes a {kind}"
                 for name, kind in sorted(families.items())
                 if name in rows and rows[name] != kind]
    return problems


def lint_metrics(src: Path) -> tuple[list[str], dict[str, str]]:
    """(violations, {family: kind}): declarations, sites and the doc."""
    problems, declared = lint_declarations()
    site_problems, hand = lint_metric_sites(src, declared)
    families = {**declared, **hand}
    return (problems + site_problems + lint_metric_table(families),
            families)


def lint_jsonl(path: Path) -> list[str]:
    """Validate every record of a JSONL audit log."""
    problems: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{lineno}: not JSON ({exc.msg})")
            continue
        name = doc.get("event")
        if name not in EVENT_NAMES:
            problems.append(
                f"{path}:{lineno}: out-of-vocabulary event {name!r}")
        for key in ("t", "seq"):
            if key not in doc:
                problems.append(f"{path}:{lineno}: missing {key!r}")
    return problems


def main(argv: list[str]) -> int:
    problems, used = lint_sources(ROOT / "src")
    for call, vocabulary, what in VOCABULARIES:
        for dead in sorted(vocabulary - used[call]):
            problems.append(
                f"{what} vocabulary name {dead!r} has no literal "
                f"{call} site anywhere under src/")
    problems.extend(lint_docstring_tables())
    metric_problems, families = lint_metrics(ROOT / "src")
    problems.extend(metric_problems)
    logs = 0
    for arg in argv:
        path = Path(arg)
        if not path.exists():
            problems.append(f"{path}: no such audit log")
            continue
        logs += 1
        problems.extend(lint_jsonl(path))
    for problem in problems:
        print(problem)
    if not problems:
        sites = ", ".join(
            f"{len(used[call])} {call}" for call, _, _ in VOCABULARIES)
        total = sum(len(v) for _, v, _ in VOCABULARIES)
        print(f"vocabularies OK: {sites} site name(s), "
              f"{total} vocabulary name(s), {len(families)} metric "
              f"families, {logs} log(s) checked")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
