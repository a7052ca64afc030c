"""Regenerate tests/data/golden_report.md from the renderer fixture.

Run after an *intentional* report-format change::

    PYTHONPATH=src python tests/regen_golden_report.py

then review the golden diff like any other code change.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).parent))

from test_analysis_render import GOLDEN_PATH, fixture_analysis  # noqa: E402

from repro.analysis.render import build_report, render_markdown  # noqa: E402


def main() -> None:
    doc = build_report(
        fixture_analysis(),
        title="Golden fixture report",
        use_mpl=False,
    )
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render_markdown(doc))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
