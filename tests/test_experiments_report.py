"""Unit tests for experiment result serialisation and markdown reporting."""

import json

import pytest

from repro.analysis.render import experiment_results_markdown
from repro.experiments.harness import ExperimentResult
from repro.experiments.report import (
    result_from_dict,
    result_to_dict,
    save_markdown_report,
    save_results_json,
)
from repro.utils.tables import Table


@pytest.fixture
def sample_result():
    table = Table(["n", "space"], title="demo table")
    table.add_row(128, 1024)
    table.add_row(256, 1500)
    return ExperimentResult(
        experiment_id="E1",
        title="demo experiment",
        table=table,
        findings={"exponent": 0.5, "ok": True, "note": "fine", "inf_value": float("inf")},
    )


class TestRoundTrip:
    def test_dict_round_trip(self, sample_result):
        payload = result_to_dict(sample_result)
        rebuilt = result_from_dict(payload)
        assert rebuilt.experiment_id == "E1"
        assert rebuilt.table.rows == sample_result.table.rows
        assert rebuilt.findings["exponent"] == 0.5

    def test_dict_is_json_serialisable(self, sample_result):
        payload = result_to_dict(sample_result)
        text = json.dumps(payload)
        assert "demo experiment" in text

    def test_infinite_findings_become_strings(self, sample_result):
        payload = result_to_dict(sample_result)
        assert payload["findings"]["inf_value"] == "inf"

    def test_json_file_round_trip(self, sample_result, tmp_path):
        path = save_results_json([sample_result], tmp_path / "results.json")
        loaded = [result_from_dict(entry) for entry in json.loads(path.read_text())]
        assert len(loaded) == 1
        assert loaded[0].title == "demo experiment"


class TestMarkdown:
    def test_render_contains_table_and_findings(self, sample_result):
        text = experiment_results_markdown([sample_result], title="Report")
        assert "# Report" in text
        assert "## E1 — demo experiment" in text
        assert "`exponent` = 0.5" in text
        assert "demo table" in text

    def test_save_markdown(self, sample_result, tmp_path):
        path = save_markdown_report([sample_result], tmp_path / "report.md")
        assert path.read_text().startswith("## E1")
