"""Figure generation: matplotlib when available, text charts always.

Every figure function returns a :class:`FigureArtifact` that is either a PNG
written under an output directory (matplotlib installed — the ``repro[viz]``
extra — *and* the caller asked for files) or a deterministic Unicode text
chart.  The renderer embeds either kind, so reports are identical in
structure with and without matplotlib; only the figure fidelity changes.
Pass ``use_mpl=False`` to force the text path (that is also how the fallback
stays covered by tests on machines that do have matplotlib).

Example — a sparkline and a bar are plain strings::

    >>> sparkline([1, 2, 3, 8])
    '▁▂▃█'
    >>> hbar(3, 6, width=4)
    '██░░'
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.tradeoff import TradeoffPoint

PathLike = Union[str, Path]

#: Whether the optional plotting dependency is importable at all.
HAVE_MATPLOTLIB = importlib.util.find_spec("matplotlib") is not None

SPARK_LEVELS = "▁▂▃▄▅▆▇█"
BAR_FULL, BAR_EMPTY = "█", "░"


@dataclass(frozen=True)
class FigureArtifact:
    """One rendered figure: a PNG on disk or a text chart, plus metadata."""

    slug: str
    title: str
    kind: str  # "png" | "text"
    path: Optional[Path] = None
    text: Optional[str] = None
    caption: str = ""

    @property
    def is_png(self) -> bool:
        return self.kind == "png"


def sparkline(values: Sequence[float]) -> str:
    """Render values as a block-character sparkline (empty input → '')."""
    data = [float(value) for value in values]
    if not data:
        return ""
    lo, hi = min(data), max(data)
    if hi <= lo:
        return SPARK_LEVELS[0] * len(data)
    span = hi - lo
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[min(top, int((value - lo) / span * top + 0.5))] for value in data
    )


def hbar(value: float, maximum: float, width: int = 20) -> str:
    """A fixed-width horizontal bar, filled proportionally to ``value``."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if maximum <= 0:
        return BAR_EMPTY * width
    filled = min(width, max(0, round(value / maximum * width)))
    return BAR_FULL * filled + BAR_EMPTY * (width - filled)


def _use_matplotlib(outdir: Optional[PathLike], use_mpl: Optional[bool]) -> bool:
    if use_mpl is False or outdir is None:
        return False
    if use_mpl is True and not HAVE_MATPLOTLIB:
        raise RuntimeError(
            "matplotlib requested but not installed; pip install -e .[viz]"
        )
    return HAVE_MATPLOTLIB


def _pyplot():  # pragma: no cover - exercised only with matplotlib installed
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    return plt


def _save(fig, outdir: PathLike, slug: str) -> Path:  # pragma: no cover - mpl only
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{slug}.png"
    fig.savefig(path, dpi=144, bbox_inches="tight")
    return path


def _errorbar_args(envelope) -> Tuple[List[float], List[List[float]]]:
    return [envelope.mid], [[envelope.mid - envelope.lo], [envelope.hi - envelope.mid]]


def space_vs_approximation_figure(
    points: Sequence[TradeoffPoint],
    outdir: Optional[PathLike] = None,
    use_mpl: Optional[bool] = None,
    slug: str = "space_vs_approximation",
) -> FigureArtifact:
    """The headline figure: peak space against approximation ratio per group.

    Each point is a group (typically one algorithm) at its median position
    with min–max envelope whiskers on both axes — the empirical face of the
    paper's space–approximation tradeoff.
    """
    title = "Peak space vs approximation ratio"
    caption = (
        "Median position per group; whiskers span the min–max envelope "
        "across workloads, arrival orders, and seeds."
    )
    usable = [p for p in points if p.ratio is not None and p.space is not None]
    if _use_matplotlib(outdir, use_mpl):  # pragma: no cover - mpl only
        plt = _pyplot()
        fig, ax = plt.subplots(figsize=(6.4, 4.2))
        for point in usable:
            x, xerr = _errorbar_args(point.ratio)
            y, yerr = _errorbar_args(point.space)
            ax.errorbar(
                x, y, xerr=xerr, yerr=yerr, marker="o", capsize=3,
                label=point.short_label,
            )
        ax.set_xlabel("approximation ratio (solution / opt bound)")
        ax.set_ylabel("peak space (words)")
        if usable and min(p.space.lo for p in usable) > 0:
            ax.set_yscale("log")
        ax.set_title(title)
        if usable:
            ax.legend(fontsize=8)
        path = _save(fig, outdir, slug)
        plt.close(fig)
        return FigureArtifact(slug=slug, title=title, kind="png", path=path, caption=caption)

    if not usable:
        return FigureArtifact(
            slug=slug, title=title, kind="text",
            text="(no cells with both a ratio and a space measurement)",
            caption=caption,
        )
    label_width = max(len(p.short_label) for p in usable)
    max_space = max(p.space.hi for p in usable)
    lines = [f"{'group'.ljust(label_width)} | ratio lo/mid/hi | peak words lo/mid/hi | space"]
    for point in sorted(usable, key=lambda p: p.space.mid):
        lines.append(
            f"{point.short_label.ljust(label_width)} | "
            f"{point.ratio.format():>15} | "
            f"{point.space.format():>20} | "
            f"{hbar(point.space.mid, max_space)}"
        )
    return FigureArtifact(
        slug=slug, title=title, kind="text", text="\n".join(lines), caption=caption
    )


def passes_vs_space_figure(
    points: Sequence[TradeoffPoint],
    theory: Sequence[Tuple[float, float]] = (),
    outdir: Optional[PathLike] = None,
    use_mpl: Optional[bool] = None,
    slug: str = "passes_vs_space",
) -> FigureArtifact:
    """Pass count against peak space, with the Θ̃(m·n^{1/α}) reference line."""
    title = "Passes vs peak space"
    caption = (
        "Each group at its median pass count and space envelope; the dashed "
        "reference is the paper's m·n^(1/α) bound at the grid's typical "
        "instance shape."
    )
    usable = [p for p in points if p.passes is not None and p.space is not None]
    if _use_matplotlib(outdir, use_mpl):  # pragma: no cover - mpl only
        plt = _pyplot()
        fig, ax = plt.subplots(figsize=(6.4, 4.2))
        for point in usable:
            y, yerr = _errorbar_args(point.space)
            ax.errorbar(
                [point.passes.mid], y, yerr=yerr, marker="s", capsize=3,
                label=point.short_label,
            )
        if theory:
            ax.plot(
                [alpha for alpha, _ in theory],
                [space for _, space in theory],
                linestyle="--", color="black", label="m·n^(1/α)",
            )
        ax.set_xlabel("passes (α)")
        ax.set_ylabel("peak space (words)")
        if usable and min(p.space.lo for p in usable) > 0:
            ax.set_yscale("log")
        ax.set_title(title)
        if usable or theory:
            ax.legend(fontsize=8)
        path = _save(fig, outdir, slug)
        plt.close(fig)
        return FigureArtifact(slug=slug, title=title, kind="png", path=path, caption=caption)

    lines: List[str] = []
    if usable:
        label_width = max(len(p.short_label) for p in usable)
        max_space = max(p.space.hi for p in usable)
        lines.append(f"{'group'.ljust(label_width)} | passes | peak words lo/mid/hi | space")
        for point in sorted(usable, key=lambda p: (p.passes.mid, p.space.mid)):
            lines.append(
                f"{point.short_label.ljust(label_width)} | "
                f"{point.passes.format():>6} | "
                f"{point.space.format():>20} | "
                f"{hbar(point.space.mid, max_space)}"
            )
    else:
        lines.append("(no cells with both a pass count and a space measurement)")
    if theory:
        samples = [space for _, space in theory]
        alphas = ", ".join(format(alpha, "g") for alpha, _ in theory)
        lines.append("")
        lines.append(f"theory m*n^(1/alpha) for alpha={alphas}: {sparkline(samples)}")
        lines.append(
            "            " + "  ".join(format(space, ".4g") for space in samples)
        )
    return FigureArtifact(
        slug=slug, title=title, kind="text", text="\n".join(lines), caption=caption
    )
