"""Unit tests for the cost model."""

from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel


class TestCostModel:
    def test_page_map_dominates(self):
        """The paper's observation: foreign mapping is the expensive
        primitive, so Module-Searcher dominates runtime."""
        c = DEFAULT_COST_MODEL
        assert c.page_map > c.translate_walk > c.small_read

    def test_local_processing_cheaper_than_mapping_per_page(self):
        c = DEFAULT_COST_MODEL
        per_page_local = 4096 * (c.parse_per_byte + c.hash_per_byte
                                 + c.rva_scan_per_byte)
        assert per_page_local < c.page_map

    def test_frozen(self):
        import dataclasses
        import pytest
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().page_map = 0.0

    def test_custom_model(self):
        c = CostModel(page_map=1.0)
        assert c.range_read_cost(walked=0, mapped=1) > 1.0
