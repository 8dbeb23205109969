"""Tests for tools/check_event_vocab.py on the tree and synthetic logs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" \
    / "check_event_vocab.py"
spec = importlib.util.spec_from_file_location("event_vocab", _TOOL)
vocab_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(vocab_lint)


class TestSourceTree:
    def test_repo_sources_are_in_vocabulary(self):
        problems, used = vocab_lint.lint_sources(
            Path(__file__).resolve().parent.parent / "src")
        assert problems == []
        # closed both ways: nothing outside a vocabulary is used, and
        # every vocabulary name has a live literal call site
        assert used["emit"] == set(vocab_lint.EVENT_NAMES)
        assert used["span"] == set(vocab_lint.SPAN_NAMES)
        assert used["charge"] == set(vocab_lint.OP_NAMES)

    def test_rogue_emit_site_is_caught(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text('log.emit("check.start")\n'
                         'log.emit("totally.madeup", vm="Dom1")\n')
        problems, used = vocab_lint.lint_sources(tmp_path)
        assert len(problems) == 1
        assert "totally.madeup" in problems[0]
        assert "rogue.py:2" in problems[0]
        assert "check.start" in used["emit"]

    def test_rogue_span_and_charge_sites_are_caught(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text('with tracer.span(\n'
                         '        "bogus.stage", vm="Dom1"):\n'
                         '    tracer.charge("page_fax", 0.1)\n'
                         'tracer.charge("page_copy", 0.1)\n')
        problems, used = vocab_lint.lint_sources(tmp_path)
        assert len(problems) == 2
        assert any("bogus.stage" in p and "rogue.py:1" in p
                   for p in problems)
        assert any("page_fax" in p for p in problems)
        assert "page_copy" in used["charge"]

    def test_docstring_tables_are_complete(self):
        assert vocab_lint.lint_docstring_tables() == []


class TestMetricFamilies:
    def test_repo_metrics_are_declared_published_and_documented(self):
        problems, families = vocab_lint.lint_metrics(
            Path(__file__).resolve().parent.parent / "src")
        assert problems == []
        assert families["modchecker_vmi_pages_mapped_total"] == "counter"
        assert families["modchecker_repair_mttr_seconds"] == "gauge"
        assert families["modchecker_cache_hit_ratio"] == "gauge"

    def test_bad_declarations_are_caught(self):
        from repro.counters import Series

        class Rogue:
            METRICS = (
                Series("modchecker_x_total", "x", "a"),
                Series("modchecker_x_total", "x", "b"),
                Series("modchecker_x_total", "x", "c", kind="gauge"),
                Series("modchecker_y_total", "y", "d", {"k": "v"}),
                Series("modchecker_y_total", "y2", "e", {"k": "w"}),
                Series("bad-name", "z", "f"),
            )
        problems, kinds = vocab_lint.lint_declarations([Rogue])
        text = "\n".join(problems)
        assert "modchecker_x_total" in text and "declared twice" in text
        assert "both counter and gauge" in text
        assert "two help texts" in text
        assert "bad-name is not a valid metric name" in text
        # one Series object reused by a subclass is not a duplicate
        class Child:
            METRICS = Rogue.METRICS[:1]
        assert vocab_lint.lint_declarations([Rogue, Child])[0] == problems

    def test_hand_published_sites_are_collected(self, tmp_path):
        (tmp_path / "rogue.py").write_text(
            'm.counter(\n    "modchecker_a_total", "a").inc()\n'
            'm.gauge("modchecker_a_total", "a").set(1)\n'
            'm.gauge("modchecker_vmi_retries_total", "b").set(1)\n')
        problems, kinds = vocab_lint.lint_metric_sites(
            tmp_path, {"modchecker_vmi_retries_total": "counter"})
        assert kinds == {"modchecker_a_total": "counter",
                         "modchecker_vmi_retries_total": "gauge"}
        assert any("rogue.py:3" in p and "both counter and gauge" in p
                   for p in problems)
        assert any("record_stats" in p for p in problems)

    def test_doc_table_is_checked_both_ways(self, tmp_path):
        doc = tmp_path / "OBS.md"
        doc.write_text("| metric | type | labels |\n|---|---|---|\n"
                       "| `modchecker_a_total` | counter | — |\n"
                       "| `modchecker_b` | counter | — |\n"
                       "| `modchecker_gone_total` | counter | — |\n")
        problems = vocab_lint.lint_metric_table(
            {"modchecker_a_total": "counter", "modchecker_b": "gauge",
             "modchecker_new_total": "counter"}, doc)
        assert len(problems) == 3
        assert any("modchecker_new_total" in p and "missing" in p
                   for p in problems)
        assert any("modchecker_gone_total" in p and "nothing publishes" in p
                   for p in problems)
        assert any("modchecker_b" in p and "gauge" in p for p in problems)


class TestJsonlLogs:
    def _write(self, tmp_path, docs):
        path = tmp_path / "audit.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        return path

    def test_valid_log_passes(self, tmp_path):
        path = self._write(tmp_path, [
            {"t": 0.0, "seq": 0, "event": "daemon.cycle"},
            {"t": 1.0, "seq": 1, "event": "check.start",
             "check_id": "chk-000001", "attrs": {"module": "hal.dll"}},
        ])
        assert vocab_lint.lint_jsonl(path) == []

    def test_out_of_vocabulary_record_fails(self, tmp_path):
        path = self._write(tmp_path, [
            {"t": 0.0, "seq": 0, "event": "not.a.thing"},
        ])
        problems = vocab_lint.lint_jsonl(path)
        assert len(problems) == 1 and "not.a.thing" in problems[0]

    def test_missing_required_keys_and_bad_json_fail(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"event": "daemon.cycle"}\nnot json\n')
        problems = vocab_lint.lint_jsonl(path)
        assert any("missing 't'" in p for p in problems)
        assert any("missing 'seq'" in p for p in problems)
        assert any("not JSON" in p for p in problems)

    def test_main_exit_codes(self, tmp_path, capsys):
        good = self._write(tmp_path, [
            {"t": 0.0, "seq": 0, "event": "alert.raised"}])
        assert vocab_lint.main([str(good)]) == 0
        assert "1 log(s) checked" in capsys.readouterr().out
        assert vocab_lint.main([str(tmp_path / "missing.jsonl")]) == 1
        assert "no such audit log" in capsys.readouterr().out
