"""Renderer tests: report structure, golden markdown, self-contained HTML."""

from pathlib import Path

import pytest

from repro.analysis.loader import MissingCell, StoreAnalysis
from repro.analysis.records import AnalysisRecord
from repro.analysis.render import (
    MISSING_MARKER,
    CodeBlock,
    Heading,
    Paragraph,
    ReportDocument,
    TableBlock,
    build_report,
    experiment_results_markdown,
    render_html,
    render_markdown,
    write_report,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_report.md"


def make_workload_record(algorithm, order, solution_size, peak, passes, key=None, **kwargs):
    defaults = dict(
        runner="WL",
        experiment_id="WL",
        title=f"dsc workload, {algorithm}, {order} arrival",
        workload="dsc",
        order=order,
        universe_size=96,
        num_sets=24,
        opt_bound=3,
        feasible=True,
        final_space_words=peak // 2,
        dominant_category="stored_incidences",
    )
    defaults.update(kwargs)
    return AnalysisRecord(
        key=key or f"ADV[algorithm={algorithm},order={order},workload=dsc]",
        fingerprint=(algorithm + order).ljust(16, "0"),
        algorithm=algorithm,
        solution_size=solution_size,
        peak_space_words=peak,
        passes=passes,
        **defaults,
    )


def fixture_analysis():
    """A deterministic synthetic analysis: 3 workload cells + 1 paper cell."""
    records = [
        make_workload_record("algorithm1", "adversarial", 3, 300, 2),
        make_workload_record("algorithm1", "random", 4, 320, 2),
        make_workload_record(
            "saha_getoor", "adversarial", 6, 110, 1, feasible=False
        ),
        AnalysisRecord(
            key="E12",
            runner="E12",
            experiment_id="E12",
            title="information-theory facts",
            fingerprint="e12fingerprint00",
            findings={"all_facts_hold": True},
            table={"headers": ["quantity", "value"], "rows": [["facts", 12]]},
        ),
    ]
    missing = [
        MissingCell(
            key="ADV[algorithm=emek_rosen,order=random,workload=dsc]",
            scenario="ADV[algorithm=emek_rosen,order=random,workload=dsc]",
            fingerprint="c0ffee" * 10 + "beef",
        )
    ]
    return StoreAnalysis(
        root=Path("/fixture/store"),
        records=records,
        missing=missing,
        grids=("ADV",),
    )


class TestBuildReport:
    def test_document_sections(self):
        doc = build_report(fixture_analysis())
        headings = [b.text for b in doc.blocks if isinstance(b, Heading)]
        assert "Space–approximation tradeoff" in headings
        assert "Passes vs space" in headings
        assert "Workload detail" in headings
        assert "Missing cells" in headings
        assert "Other experiment results" in headings

    def test_figures_are_text_without_mpl(self):
        doc = build_report(fixture_analysis())
        assert len(doc.figures) == 2
        assert all(f.kind == "text" for f in doc.figures)

    def test_empty_store_builds_with_explicit_note(self):
        doc = build_report(StoreAnalysis(root=Path("/nowhere")))
        markdown = render_markdown(doc)
        assert "no readable result cells" in markdown
        assert "Missing cells" in markdown

    def test_missing_cells_render_markers(self):
        markdown = render_markdown(build_report(fixture_analysis()))
        assert MISSING_MARKER in markdown
        assert "emek_rosen" in markdown

    def test_infeasible_cell_shows_outcome_not_ratio(self):
        markdown = render_markdown(build_report(fixture_analysis()))
        assert "infeasible" in markdown


class TestGoldenMarkdown:
    def test_matches_golden_file(self):
        doc = build_report(
            fixture_analysis(),
            title="Golden fixture report",
            )
        rendered = render_markdown(doc)
        assert rendered == GOLDEN_PATH.read_text(), (
            "report markdown drifted from tests/data/golden_report.md; "
            "if the change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/regen_golden_report.py`"
        )


class TestRenderMarkdown:
    def test_title_and_heading_levels(self):
        doc = ReportDocument(
            title="demo",
            blocks=[Heading(2, "Sec"), Paragraph("text"), CodeBlock("x = 1")],
        )
        markdown = render_markdown(doc)
        assert markdown.startswith("# demo\n")
        assert "## Sec" in markdown
        assert "```\nx = 1\n```" in markdown

    def test_table_cells_normalised(self):
        doc = ReportDocument(
            title="t",
            blocks=[TableBlock(headers=["a"], rows=[[None], [True], [1.23456]])],
        )
        markdown = render_markdown(doc)
        assert "| – |" in markdown
        assert "| yes |" in markdown
        assert "| 1.23 |" in markdown


class TestRenderHtml:
    def test_self_contained_page(self):
        doc = build_report(fixture_analysis())
        html = render_html(doc)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<pre>" in html  # text figures embedded inline
        assert "src=" not in html.replace('src="data:', "")  # no external refs

    def test_missing_marker_is_highlighted(self):
        html = render_html(build_report(fixture_analysis()))
        assert 'class="missing"' in html

    def test_html_escapes_content(self):
        doc = ReportDocument(title="a<b", blocks=[Paragraph("x & <y>")])
        html = render_html(doc)
        assert "a&lt;b" in html
        assert "x &amp; &lt;y&gt;" in html


class TestWriteReport:
    def test_writes_html_and_markdown(self, tmp_path):
        doc = build_report(fixture_analysis())
        written = write_report(
            doc,
            html_dir=tmp_path / "html",
            markdown_path=tmp_path / "md" / "report.md",
        )
        assert written["html"].name == "index.html"
        assert written["html"].read_text().startswith("<!DOCTYPE html>")
        assert "Missing cells" in written["markdown"].read_text()

    def test_nothing_requested_writes_nothing(self, tmp_path):
        assert write_report(build_report(fixture_analysis())) == {}


class TestExperimentResultsMarkdown:
    def test_legacy_shape_preserved(self):
        from repro.experiments.harness import ExperimentResult
        from repro.utils.tables import Table

        table = Table(["n"], title="demo")
        table.add_row(4)
        result = ExperimentResult(
            experiment_id="E1", title="demo exp", table=table, findings={"k": 1}
        )
        text = experiment_results_markdown([result], title="Rep")
        assert "# Rep" in text
        assert "## E1 — demo exp" in text
        assert "* `k` = 1" in text
