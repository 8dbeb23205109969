"""Tests for the scenario staging helpers."""

import pytest

from repro.cloud.scenarios import (stage_attack, stage_experiment,
                                   stage_hidden_module)


class TestStageExperiment:
    @pytest.mark.parametrize("exp_id", ["E1", "E2", "E3", "E4"])
    def test_stages_and_detects(self, exp_id):
        scenario = stage_experiment(exp_id, n_vms=5)
        report = scenario.run_pool_check().report
        assert report.flagged() == [scenario.victim]
        assert set(report.mismatched_regions(scenario.victim)) == \
            set(scenario.expected_regions)

    def test_checker_kwargs_forwarded(self):
        scenario = stage_experiment("E1", n_vms=4,
                                    hash_algorithm="sha256",
                                    rva_mode="robust")
        assert scenario.checker.checker.hash_algorithm == "sha256"
        assert scenario.checker.checker.rva_mode == "robust"
        assert not scenario.run_pool_check().report.all_clean

    def test_custom_victim(self):
        scenario = stage_experiment("E3", n_vms=5, victim="Dom5")
        assert scenario.run_pool_check().report.flagged() == ["Dom5"]


class TestStageAttack:
    def test_extension_attack(self):
        scenario = stage_attack("timestamp-forgery", "http.sys", n_vms=4)
        report = scenario.run_pool_check().report
        assert report.flagged() == ["Dom3"]
        assert report.mismatched_regions("Dom3") == ("IMAGE_NT_HEADER",)

    def test_unknown_attack(self):
        with pytest.raises(KeyError):
            stage_attack("quantum", "hal.dll")


class TestStageHiddenModule:
    def test_hidden_and_tampered(self):
        scenario = stage_hidden_module()
        hidden = scenario.checker.detect_hidden_modules(scenario.victim)
        assert len(hidden) == 1
        carved, name = hidden[0]
        assert name == scenario.module
        report = scenario.checker.check_carved_module(carved, name)
        assert not report.clean

    def test_hidden_but_clean(self):
        scenario = stage_hidden_module(patch_text=False)
        (carved, name), = scenario.checker.detect_hidden_modules(
            scenario.victim)
        report = scenario.checker.check_carved_module(carved, name)
        assert report.clean
