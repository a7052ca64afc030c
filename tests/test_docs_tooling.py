"""Tests for the docs-site tooling: API generator and tutorial smoke runner."""

import importlib.util
import sys
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).parent.parent / "docs"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DOCS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen_api():
    return _load("gen_api")


@pytest.fixture(scope="module")
def smoke_tutorial():
    return _load("smoke_tutorial")


class TestGenApi:
    def test_walks_every_package(self, gen_api):
        names = gen_api.iter_module_names()
        assert "repro" in names
        assert "repro.analysis.render" in names
        assert "repro.kernels.base" in names
        assert names == sorted(names)

    def test_pages_group_by_top_level_child(self, gen_api):
        pages = gen_api.group_by_page(
            ["repro", "repro.cli", "repro.analysis", "repro.analysis.render"]
        )
        assert pages["repro"] == ["repro"]
        assert pages["repro.cli"] == ["repro.cli"]
        assert pages["repro.analysis"] == ["repro.analysis", "repro.analysis.render"]

    def test_module_section_contains_docstring_and_api(self, gen_api):
        section = gen_api.render_module_section("repro.analysis.tradeoff")
        assert section.startswith("## `repro.analysis.tradeoff`")
        assert "m·n^{1/α}" in section
        assert "theoretical_curve" in section

    def test_module_needing_a_missing_extra_is_read_from_source(self, gen_api, monkeypatch):
        def missing(dependency):
            def import_module(name):
                raise ModuleNotFoundError(f"No module named {dependency!r}", name=dependency)

            return import_module

        monkeypatch.setattr(gen_api.importlib, "import_module", missing("numpy"))
        section = gen_api.render_module_section("repro.kernels.numpy_backend")
        assert section.startswith("## `repro.kernels.numpy_backend`")
        assert "NumPy packed-bitmap kernel" in section
        assert "- **`class NumpyKernel(universe_size: int, masks: Sequence[int]" in section
        assert "- **`def pack_row(mask: int, universe_size: int)`** — One mask" in section
        monkeypatch.setattr(gen_api.importlib, "import_module", missing("yaml"))
        with pytest.raises(ModuleNotFoundError):
            gen_api.render_module_section("repro.kernels.numpy_backend")

    def test_generated_tree_matches_nav_entrypoints(self, gen_api, tmp_path):
        written = gen_api.main(api_dir=tmp_path)
        names = {path.name for path in written}
        # the mkdocs nav enters through api/index.md; every package page it
        # links to must exist
        assert "index.md" in names
        index = (tmp_path / "index.md").read_text()
        for line in index.splitlines():
            if line.startswith("- ["):
                target = line.split("](")[1].split(")")[0]
                assert (tmp_path / target).exists(), f"dangling link: {target}"

    def test_analysis_page_documents_all_six_modules(self, gen_api, tmp_path):
        gen_api.main(api_dir=tmp_path)
        page = (tmp_path / "repro.analysis.md").read_text()
        for module in ("figures", "loader", "records", "render", "tradeoff"):
            assert f"## `repro.analysis.{module}`" in page

    def test_signatures_are_bounded(self, gen_api, tmp_path):
        gen_api.main(api_dir=tmp_path)
        page = (tmp_path / "repro.analysis.md").read_text()
        for line in page.splitlines():
            assert len(line) < 1200


class TestSmokeTutorial:
    def test_extracts_only_bash_blocks(self, smoke_tutorial):
        markdown = (
            "```bash\npython -m this\n# comment skipped\n```\n"
            "```console\nnot extracted\n```\n"
            "```bash\necho two\n```\n"
        )
        assert smoke_tutorial.extract_commands(markdown) == [
            "python -m this",
            "echo two",
        ]

    def test_tutorial_has_runnable_commands(self, smoke_tutorial):
        commands = smoke_tutorial.extract_commands(
            (DOCS_DIR / "tutorial.md").read_text()
        )
        assert len(commands) >= 5
        assert any("repro.cli run adversarial" in cmd for cmd in commands)
        assert any("repro.cli report" in cmd for cmd in commands)

    def test_run_commands_stops_on_failure(self, smoke_tutorial, tmp_path):
        code = smoke_tutorial.run_commands(
            ["python -c 'import sys; sys.exit(3)'", "echo never-reached"],
            cwd=tmp_path,
        )
        assert code == 3

    def test_run_commands_ok(self, smoke_tutorial, tmp_path):
        assert smoke_tutorial.run_commands(["python -c 'print(1)'"], cwd=tmp_path) == 0

    def test_main_errors_on_tutorial_without_commands(self, smoke_tutorial, tmp_path):
        empty = tmp_path / "t.md"
        empty.write_text("no fences here")
        assert smoke_tutorial.main(["--tutorial", str(empty)]) == 1
