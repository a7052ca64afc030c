"""Figure-layer tests: sparklines, bars, and the text-fallback artifacts."""

import pytest

from repro.analysis.figures import (
    FigureArtifact,
    hbar,
    passes_vs_space_figure,
    space_vs_approximation_figure,
    sparkline,
)
from repro.analysis.tradeoff import Envelope, TradeoffPoint


def make_point(label="greedy", ratio=(1.0, 1.5, 2.0), space=(90.0, 100.0, 120.0), passes=(2.0, 2.0, 2.0)):
    return TradeoffPoint(
        group=(("algorithm", label),),
        count=4,
        ratio=Envelope(*ratio) if ratio else None,
        space=Envelope(*space) if space else None,
        passes=Envelope(*passes) if passes else None,
    )


class TestSparkline:
    def test_monotone_ramp(self):
        assert sparkline([1, 2, 3, 8]) == "▁▂▃█"

    def test_constant_series_is_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_series(self):
        assert sparkline([]) == ""


class TestHbar:
    def test_half_full(self):
        assert hbar(3, 6, width=4) == "██░░"

    def test_clamps_to_width(self):
        assert hbar(100, 10, width=4) == "████"

    def test_zero_max_is_empty(self):
        assert hbar(1, 0, width=3) == "░░░"

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            hbar(1, 1, width=0)


class TestSpaceVsApproximationFigure:
    def test_text_fallback_artifact(self):
        artifact = space_vs_approximation_figure([make_point()], use_mpl=False)
        assert isinstance(artifact, FigureArtifact)
        assert artifact.kind == "text"
        assert artifact.path is None
        assert "greedy" in artifact.text
        assert "ratio" in artifact.text

    def test_rows_sorted_by_median_space(self):
        big = make_point(label="big", space=(500.0, 600.0, 700.0))
        small = make_point(label="small", space=(10.0, 20.0, 30.0))
        artifact = space_vs_approximation_figure([big, small], use_mpl=False)
        assert artifact.text.index("small") < artifact.text.index("big")

    def test_no_usable_points_still_renders(self):
        artifact = space_vs_approximation_figure([], use_mpl=False)
        assert artifact.kind == "text"
        assert "no cells" in artifact.text

    def test_points_without_ratio_are_skipped(self):
        artifact = space_vs_approximation_figure(
            [make_point(ratio=None)], use_mpl=False
        )
        assert "no cells" in artifact.text

    def test_forcing_mpl_without_install_raises(self):
        from repro.analysis import figures

        if figures.HAVE_MATPLOTLIB:
            pytest.skip("matplotlib installed; forcing cannot fail")
        with pytest.raises(RuntimeError):
            space_vs_approximation_figure([make_point()], outdir=".", use_mpl=True)

    def test_no_outdir_means_text_even_with_mpl(self):
        artifact = space_vs_approximation_figure([make_point()], outdir=None)
        assert artifact.kind == "text"


class TestPassesVsSpaceFigure:
    def test_text_fallback_with_theory_overlay(self):
        artifact = passes_vs_space_figure(
            [make_point()], theory=[(1, 640.0), (2, 80.0)], use_mpl=False
        )
        assert artifact.kind == "text"
        assert "theory" in artifact.text
        assert "640" in artifact.text

    def test_without_theory(self):
        artifact = passes_vs_space_figure([make_point()], use_mpl=False)
        assert "theory" not in artifact.text
        assert "greedy" in artifact.text

    def test_empty_points_message(self):
        artifact = passes_vs_space_figure([], use_mpl=False)
        assert "no cells" in artifact.text
