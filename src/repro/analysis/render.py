"""Report assembly and rendering: one document, two output formats.

:func:`build_report` turns a loaded :class:`~repro.analysis.loader.StoreAnalysis`
into a :class:`ReportDocument` — a flat list of heading / paragraph /
table / figure / code blocks.  Two renderers walk that list:
:func:`render_markdown` emits GitHub-flavoured markdown, :func:`render_html`
emits one self-contained HTML page (PNG figures are inlined as base64 data
URIs, text figures as ``<pre>`` panels), so the HTML file needs nothing
next to it.  Missing grid cells render as an
explicit marked table — an empty or partially-resumed store produces a
report that says what is absent instead of raising.

Example — a minimal document renders in both formats::

    >>> doc = ReportDocument(title="demo", blocks=[
    ...     Heading(2, "Section"), Paragraph("hello")])
    >>> print(render_markdown(doc), end="")
    # demo
    <BLANKLINE>
    ## Section
    <BLANKLINE>
    hello
    >>> "<h2>Section</h2>" in render_html(doc)
    True
"""

from __future__ import annotations

import base64
import html as html_lib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.figures import (
    FigureArtifact,
    passes_vs_space_figure,
    space_vs_approximation_figure,
)
from repro.analysis.loader import StoreAnalysis
from repro.analysis.records import (
    AnalysisRecord,
    OUTCOMES,
    outcome_counts,
)
from repro.analysis.tradeoff import (
    aggregate,
    space_approximation_points,
    theoretical_curve,
    typical_instance_shape,
)

PathLike = Union[str, Path]

#: Marker the report prints for a grid cell the store does not hold.
MISSING_MARKER = "∅ missing"


# --------------------------------------------------------------------------
# Block model
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Heading:
    level: int
    text: str


@dataclass(frozen=True)
class Paragraph:
    text: str


@dataclass(frozen=True)
class TableBlock:
    headers: Sequence[str]
    rows: Sequence[Sequence[Any]]
    caption: str = ""


@dataclass(frozen=True)
class CodeBlock:
    text: str


@dataclass(frozen=True)
class FigureBlock:
    artifact: FigureArtifact


Block = Union[Heading, Paragraph, TableBlock, CodeBlock, FigureBlock]


@dataclass
class ReportDocument:
    """An ordered list of renderable blocks plus document metadata."""

    title: str
    blocks: List[Block] = field(default_factory=list)

    @property
    def figures(self) -> List[FigureArtifact]:
        return [
            block.artifact for block in self.blocks if isinstance(block, FigureBlock)
        ]


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------
def _cell(value: Any) -> str:
    if value is None:
        return "–"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".3g")
    return str(value)


def _summary_paragraph(analysis: StoreAnalysis) -> Paragraph:
    bits = [
        f"{len(analysis.records)} result cell(s) loaded from `{analysis.root}`"
    ]
    if analysis.grids:
        bits.append(f"grid coverage checked against: {', '.join(analysis.grids)}")
    if analysis.missing:
        bits.append(f"**{len(analysis.missing)} cell(s) missing**")
    if analysis.unreadable:
        bits.append(f"{len(analysis.unreadable)} unreadable file(s) skipped")
    return Paragraph("; ".join(bits) + ".")


def _algorithm_summary_table(records: Sequence[AnalysisRecord]) -> TableBlock:
    headers = ["algorithm", "cells", *OUTCOMES, "approx ratio", "peak words", "passes"]
    members_by_algorithm: Dict[Any, List[AnalysisRecord]] = {}
    for record in records:
        if record.algorithm is not None:
            members_by_algorithm.setdefault(record.algorithm, []).append(record)
    rows: List[List[Any]] = []
    for point in aggregate(records, by=("algorithm",)):
        counts = outcome_counts(members_by_algorithm[point.group[0][1]])
        rows.append(
            [
                point.short_label,
                point.count,
                *[counts[outcome] for outcome in OUTCOMES],
                point.ratio.format() if point.ratio else "–",
                point.space.format() if point.space else "–",
                point.passes.format() if point.passes else "–",
            ]
        )
    return TableBlock(
        headers=headers,
        rows=rows,
        caption="Per-algorithm envelopes (min / median / max across cells).",
    )


def _workload_detail_blocks(records: Sequence[AnalysisRecord]) -> List[Block]:
    blocks: List[Block] = []
    algorithms = sorted({r.algorithm for r in records if r.algorithm})
    headers = [
        "workload", "order", "outcome", "solution", "opt bound", "ratio",
        "passes", "peak words", "final words", "dominant", "budget",
    ]
    for algorithm in algorithms:
        members = sorted(
            (r for r in records if r.algorithm == algorithm),
            key=lambda r: (r.workload or "", r.order or "", r.key),
        )
        rows = [
            [
                record.workload,
                record.order,
                record.outcome,
                record.solution_size,
                (
                    f"{record.opt_bound} (planted)"
                    if record.opt_is_planted
                    else record.opt_bound
                ),
                record.approx_ratio,
                record.passes,
                record.peak_space_words,
                record.final_space_words,
                record.dominant_category,
                record.space_budget,
            ]
            for record in members
        ]
        blocks.append(Heading(3, f"`{algorithm}`"))
        blocks.append(TableBlock(headers=headers, rows=rows))
    return blocks


def _missing_cells_blocks(analysis: StoreAnalysis) -> List[Block]:
    blocks: List[Block] = [Heading(2, "Missing cells")]
    if not analysis.records and not analysis.missing:
        blocks.append(
            Paragraph(
                "The store holds **no readable result cells** and no grid was "
                "named or detected — run `repro run <scenario> --store "
                f"{analysis.root}` first, or pass `--grid` to list what a "
                "grid would expect."
            )
        )
        return blocks
    if not analysis.missing:
        blocks.append(
            Paragraph("None — every expected grid cell is present in the store.")
        )
        return blocks
    blocks.append(
        Paragraph(
            f"{len(analysis.missing)} expected cell(s) are not in the store "
            "(interrupted or not-yet-run sweep). Re-running `repro run` with "
            "the same store resumes exactly these."
        )
    )
    blocks.append(
        TableBlock(
            headers=["cell", "fingerprint", "status"],
            rows=[
                [cell.key, cell.fingerprint[:16] + "…", MISSING_MARKER]
                for cell in analysis.missing
            ],
        )
    )
    return blocks


def _sum_prefixed(counters: Dict[str, Any], prefix: str) -> Optional[int]:
    """Sum every counter under ``prefix``; ``None`` when none exist."""
    total = 0
    seen = False
    for name, value in counters.items():
        if name.startswith(prefix):
            total += int(value)
            seen = True
    return total if seen else None


def _top_span(span_summary: Dict[str, Any]) -> Optional[str]:
    """The span name with the largest total time, formatted ``name (1.2s)``."""
    if not span_summary:
        return None
    name, info = max(
        span_summary.items(), key=lambda item: item[1].get("total_s", 0.0)
    )
    return f"`{name}` ({info.get('total_s', 0.0):.3g}s)"


def _telemetry_blocks(analysis: StoreAnalysis) -> List[Block]:
    """The ``## Telemetry`` section: store activity plus per-cell timing.

    Renders nothing when the store has neither persisted stats nor any
    entry carrying a ``telemetry`` block (a run without ``--trace``), so
    reports over uncaptured stores are unchanged.
    """
    captured = [r for r in analysis.records if r.telemetry]
    if not captured and analysis.store_stats is None:
        return []
    blocks: List[Block] = [Heading(2, "Telemetry")]

    if analysis.store_stats is not None:
        stats = analysis.store_stats
        blocks.append(
            TableBlock(
                headers=["hits", "misses", "puts", "skips", "quarantined"],
                rows=[[
                    stats["hits"],
                    stats["misses"],
                    stats["puts"],
                    stats["skips"],
                    stats.get("quarantined", 0),
                ]],
                caption=(
                    "Cumulative result-store activity persisted in "
                    "`store_stats.json` and the per-writer stats journal "
                    "(all runs against this store); `quarantined` counts "
                    "corrupt entries moved aside and recomputed."
                ),
            )
        )

    if not captured:
        blocks.append(
            Paragraph(
                "No stored cell carries a telemetry block — run with "
                "`--trace DIR` to capture per-cell timing and counters."
            )
        )
        return blocks

    rows: List[List[Any]] = []
    for record in captured:
        block = record.telemetry or {}
        counters: Dict[str, Any] = dict(block.get("counters") or {})
        rows.append(
            [
                record.key,
                block.get("elapsed_s"),
                _sum_prefixed(counters, "kernel.calls."),
                _sum_prefixed(counters, "kernel.words."),
                counters.get("rng.draws"),
                counters.get("stream.passes"),
                _top_span(dict(block.get("span_summary") or {})),
            ]
        )
    blocks.append(
        TableBlock(
            headers=[
                "cell", "elapsed (s)", "kernel calls", "kernel words",
                "rng draws", "stream passes", "top span",
            ],
            rows=rows,
            caption=(
                f"{len(captured)} cell(s) carry telemetry from their "
                "computing run (kernel words = 64-bit words touched by "
                "kernel primitives)."
            ),
        )
    )

    from repro.telemetry import merge_telemetry_blocks

    merged = merge_telemetry_blocks(r.telemetry for r in captured)
    if merged and merged.get("counters"):
        blocks.append(
            TableBlock(
                headers=["counter", "total"],
                rows=[
                    [f"`{name}`", merged["counters"][name]]
                    for name in sorted(merged["counters"])
                ],
                caption=(
                    f"Counters aggregated across {merged['entries']} captured "
                    f"cell(s), {merged.get('elapsed_s', 0.0):.3g}s total "
                    "compute time."
                ),
            )
        )
    return blocks


def _experiment_blocks(records: Sequence[AnalysisRecord]) -> List[Block]:
    blocks: List[Block] = []
    for record in records:
        blocks.append(Heading(3, f"{record.key} — {record.title}"))
        table = record.table
        if table.get("headers"):
            blocks.append(
                TableBlock(headers=table["headers"], rows=table.get("rows", ()))
            )
        if record.findings:
            rows = [[key, _cell(record.findings[key])] for key in sorted(record.findings)]
            blocks.append(TableBlock(headers=["finding", "value"], rows=rows))
    return blocks


def build_report(
    analysis: StoreAnalysis,
    title: str = "Streaming set cover — tradeoff report",
    figures_dir: Optional[PathLike] = None,
) -> ReportDocument:
    """Assemble the full report document from loaded store analysis.

    ``figures_dir`` forwards to the figure layer: PNGs land there when it is
    given and matplotlib is available, otherwise every figure is a
    deterministic text chart embedded in the document itself.
    """
    doc = ReportDocument(title=title)
    doc.blocks.append(_summary_paragraph(analysis))

    workload = analysis.workload_records
    points = space_approximation_points(workload)
    doc.blocks.append(Heading(2, "Space–approximation tradeoff"))
    if workload:
        doc.blocks.append(_algorithm_summary_table(workload))
    else:
        doc.blocks.append(
            Paragraph("No workload cells in the store — tradeoff curves need "
                      "`WL`-runner results (`repro run adversarial --store …`).")
        )
    doc.blocks.append(
        FigureBlock(
            space_vs_approximation_figure(points, outdir=figures_dir)
        )
    )

    shape = typical_instance_shape(workload)
    theory = theoretical_curve(*shape) if shape else ()
    doc.blocks.append(Heading(2, "Passes vs space"))
    if shape:
        doc.blocks.append(
            Paragraph(
                f"Reference bound evaluated at the grid's typical shape "
                f"n={shape[0]}, m={shape[1]}: the paper proves "
                f"Θ̃(m·n^(1/α)) space for α-pass O(α)-approximation."
            )
        )
    doc.blocks.append(
        FigureBlock(
            passes_vs_space_figure(
                aggregate(workload, by=("algorithm",)),
                theory=theory,
                outdir=figures_dir,
            )
        )
    )

    if workload:
        doc.blocks.append(Heading(2, "Workload detail"))
        doc.blocks.extend(_workload_detail_blocks(workload))

    doc.blocks.extend(_missing_cells_blocks(analysis))
    doc.blocks.extend(_telemetry_blocks(analysis))

    experiments = analysis.experiment_records
    if experiments:
        doc.blocks.append(Heading(2, "Other experiment results"))
        doc.blocks.extend(_experiment_blocks(experiments))
    return doc


# --------------------------------------------------------------------------
# Markdown renderer
# --------------------------------------------------------------------------
def _markdown_table(block: TableBlock) -> str:
    headers = [str(h) for h in block.headers]
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in block.rows:
        lines.append("| " + " | ".join(_cell(value) for value in row) + " |")
    if block.caption:
        lines.append("")
        lines.append(f"*{block.caption}*")
    return "\n".join(lines)


def _markdown_figure(block: FigureBlock, relative_to: Optional[Path]) -> str:
    artifact = block.artifact
    if artifact.is_png and artifact.path is not None:
        target = artifact.path
        if relative_to is not None:
            try:
                target = target.relative_to(relative_to)
            except ValueError:
                pass
        lines = [f"![{artifact.title}]({target.as_posix()})"]
    else:
        lines = [f"**{artifact.title}**", "", "```", artifact.text or "", "```"]
    if artifact.caption:
        lines.extend(["", f"*{artifact.caption}*"])
    return "\n".join(lines)


def render_markdown(
    doc: ReportDocument, relative_to: Optional[PathLike] = None
) -> str:
    """Render the document as markdown (figure paths relative to ``relative_to``)."""
    base = Path(relative_to) if relative_to is not None else None
    parts: List[str] = [f"# {doc.title}"]
    for block in doc.blocks:
        if isinstance(block, Heading):
            parts.append("#" * block.level + f" {block.text}")
        elif isinstance(block, Paragraph):
            parts.append(block.text)
        elif isinstance(block, TableBlock):
            parts.append(_markdown_table(block))
        elif isinstance(block, CodeBlock):
            parts.append(f"```\n{block.text}\n```")
        elif isinstance(block, FigureBlock):
            parts.append(_markdown_figure(block, base))
    return "\n\n".join(parts).rstrip() + "\n"


# --------------------------------------------------------------------------
# HTML renderer
# --------------------------------------------------------------------------
_HTML_STYLE = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       max-width: 60rem; margin: 2rem auto; padding: 0 1rem; color: #1a202c; }
h1, h2, h3 { line-height: 1.25; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.9rem; }
th, td { border: 1px solid #cbd5e0; padding: 0.3rem 0.6rem; text-align: left; }
th { background: #edf2f7; }
pre { background: #f7fafc; border: 1px solid #e2e8f0; padding: 0.75rem;
      overflow-x: auto; font-size: 0.85rem; line-height: 1.3; }
img { max-width: 100%; }
.caption { color: #4a5568; font-style: italic; font-size: 0.85rem; }
.missing { color: #c53030; font-weight: 600; }
"""


def _html_escape(value: Any) -> str:
    return html_lib.escape(_cell(value) if not isinstance(value, str) else value)


def _html_table(block: TableBlock) -> str:
    head = "".join(f"<th>{_html_escape(h)}</th>" for h in block.headers)
    body_rows = []
    for row in block.rows:
        cells = []
        for value in row:
            rendered = _html_escape(value)
            if rendered == MISSING_MARKER:
                rendered = f'<span class="missing">{rendered}</span>'
            cells.append(f"<td>{rendered}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")
    parts = [f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(body_rows)}</tbody></table>"]
    if block.caption:
        parts.append(f'<p class="caption">{_html_escape(block.caption)}</p>')
    return "\n".join(parts)


def _html_figure(block: FigureBlock) -> str:
    artifact = block.artifact
    if artifact.is_png and artifact.path is not None:
        data = base64.b64encode(artifact.path.read_bytes()).decode("ascii")
        body = (
            f'<img alt="{_html_escape(artifact.title)}" '
            f'src="data:image/png;base64,{data}">'
        )
    else:
        body = f"<pre>{_html_escape(artifact.text or '')}</pre>"
    parts = [f"<h4>{_html_escape(artifact.title)}</h4>", body]
    if artifact.caption:
        parts.append(f'<p class="caption">{_html_escape(artifact.caption)}</p>')
    return "\n".join(parts)


def render_html(doc: ReportDocument) -> str:
    """Render the document as one self-contained HTML page (figures embedded)."""
    parts: List[str] = [f"<h1>{_html_escape(doc.title)}</h1>"]
    for block in doc.blocks:
        if isinstance(block, Heading):
            parts.append(f"<h{block.level}>{_html_escape(block.text)}</h{block.level}>")
        elif isinstance(block, Paragraph):
            text = _html_escape(block.text)
            parts.append(f"<p>{text}</p>")
        elif isinstance(block, TableBlock):
            parts.append(_html_table(block))
        elif isinstance(block, CodeBlock):
            parts.append(f"<pre>{_html_escape(block.text)}</pre>")
        elif isinstance(block, FigureBlock):
            parts.append(_html_figure(block))
    body = "\n".join(parts)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{_html_escape(doc.title)}</title>\n"
        f"<style>{_HTML_STYLE}</style>\n</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def write_report(
    doc: ReportDocument,
    html_dir: Optional[PathLike] = None,
    markdown_path: Optional[PathLike] = None,
) -> Dict[str, Path]:
    """Persist the rendered report; returns ``{"html": ..., "markdown": ...}``."""
    written: Dict[str, Path] = {}
    if html_dir is not None:
        html_dir = Path(html_dir)
        html_dir.mkdir(parents=True, exist_ok=True)
        index = html_dir / "index.html"
        index.write_text(render_html(doc), encoding="utf-8")
        written["html"] = index
    if markdown_path is not None:
        markdown_path = Path(markdown_path)
        markdown_path.parent.mkdir(parents=True, exist_ok=True)
        markdown_path.write_text(
            render_markdown(doc, relative_to=markdown_path.parent), encoding="utf-8"
        )
        written["markdown"] = markdown_path
    return written


# --------------------------------------------------------------------------
# Experiment-result markdown (what experiments/report.py writes)
# --------------------------------------------------------------------------
def experiment_results_markdown(results, title: Optional[str] = None) -> str:
    """Markdown for a list of :class:`ExperimentResult` (legacy report shape).

    This is the renderer behind
    :func:`repro.experiments.report.save_markdown_report`; the section
    format (``## <id> — <title>``, fenced ASCII table, findings bullets) is
    stable because downstream notebooks parse it.
    """
    lines: List[str] = []
    if title:
        lines.append(f"# {title}")
        lines.append("")
    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.table.render())
        lines.append("```")
        if result.findings:
            lines.append("")
            lines.append("Findings:")
            for key in sorted(result.findings):
                lines.append(f"* `{key}` = {result.findings[key]}")
        lines.append("")
    return "\n".join(lines)
