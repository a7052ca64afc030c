"""Integration tests for the ``repro report`` CLI subcommand."""

import json

import pytest

from repro.cli import build_parser, main


def run_grid_into(store_dir, cells=("adversarial", "random")):
    """Fill a store with two saha_getoor WL cells via the real run path."""
    names = [
        f"ADV[algorithm=saha_getoor,order={order},workload=random]" for order in cells
    ]
    assert main(["run", *names, "--quiet", "--store", str(store_dir)]) == 0


class TestParser:
    def test_report_arguments(self):
        args = build_parser().parse_args(
            [
                "report", "/tmp/store", "--grid", "ADV", "--grid", "WL",
                "--html", "out", "--markdown", "r.md", "--quiet",
            ]
        )
        assert args.command == "report"
        assert args.store == "/tmp/store"
        assert args.grid == ["ADV", "WL"]
        assert args.html == "out"
        assert args.markdown == "r.md"
        assert args.quiet is True

    def test_grid_defaults_to_autodetect(self):
        args = build_parser().parse_args(["report", "s"])
        assert args.grid is None


class TestReportCommand:
    def test_end_to_end_html_and_markdown(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_grid_into(store)
        capsys.readouterr()
        html_dir = tmp_path / "report"
        md_path = tmp_path / "report.md"
        code = main(
            [
                "report", str(store),
                "--html", str(html_dir), "--markdown", str(md_path), "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "report: 2 cell(s)" in out
        html = (html_dir / "index.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "saha_getoor" in html
        markdown = md_path.read_text()
        assert "Space–approximation tradeoff" in markdown
        assert "saha_getoor" in markdown

    def test_report_prints_markdown_by_default(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_grid_into(store, cells=("adversarial",))
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "# Streaming set cover — tradeoff report" in out
        assert "Missing cells" in out

    def test_partial_grid_reports_missing_markers(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_grid_into(store, cells=("adversarial",))
        capsys.readouterr()
        assert main(["report", str(store), "--grid", "ADV"]) == 0
        out = capsys.readouterr().out
        assert "47 missing" in out
        assert "∅ missing" in out

    def test_empty_store_renders_instead_of_raising(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "empty"), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "report: 0 cell(s), 0 missing" in out

    def test_empty_store_with_grid_lists_every_cell_missing(self, tmp_path, capsys):
        assert (
            main(["report", str(tmp_path / "empty"), "--grid", "adversarial", "--quiet"])
            == 0
        )
        assert "48 missing" in capsys.readouterr().out

    def test_corrupt_entry_counted_not_fatal(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_grid_into(store, cells=("adversarial",))
        shard = store / "zz"
        shard.mkdir()
        (shard / "bad.json").write_text("{broken")
        capsys.readouterr()
        assert main(["report", str(store), "--quiet"]) == 0
        assert "1 unreadable" in capsys.readouterr().out

    def test_unknown_grid_exits_with_message(self, tmp_path):
        message = "unknown scenario, experiment id, tag or grid 'nope'"
        with pytest.raises(SystemExit, match=message):
            main(["report", str(tmp_path), "--grid", "nope"])

    def test_seed_override_matches_seeded_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        name = "ADV[algorithm=saha_getoor,order=random,workload=random]"
        assert main(["run", name, "--seed", "5", "--quiet", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", str(store), "--grid", name, "--seed", "5", "--quiet"]) == 0
        assert "0 missing" in capsys.readouterr().out
        assert main(["report", str(store), "--grid", name, "--quiet"]) == 0
        assert "1 missing" in capsys.readouterr().out

    def test_report_is_deterministic_across_invocations(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_grid_into(store)
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(store)]) == 0
        assert capsys.readouterr().out == first
