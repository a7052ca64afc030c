"""Tradeoff analysis and report generation over stored experiment results.

The consumption layer of the pipeline: everything the runtime produces — a
content-addressed result store filled by ``repro run … --store DIR`` — turns
into the paper-style analysis here.  The subsystem is a straight pipeline:

* :mod:`repro.analysis.loader` — walk a store directory into tidy
  :class:`~repro.analysis.records.AnalysisRecord` rows plus explicit
  missing-cell accounting for partially-run grids;
* :mod:`repro.analysis.tradeoff` — min/median/max envelopes, per-group
  tradeoff points, and the paper's ``m·n^{1/α}`` reference curve;
* :mod:`repro.analysis.figures` — matplotlib figures when the ``repro[viz]``
  extra is installed, deterministic Unicode text charts otherwise;
* :mod:`repro.analysis.render` — a block-structured report document rendered
  to markdown and one self-contained HTML page.

The CLI front end is ``repro report <store-dir> [--grid ADV] [--html out/]``.

Example — the whole pipeline on an empty store still renders::

    >>> import tempfile
    >>> doc = build_report(load_store(tempfile.mkdtemp()))
    >>> "Missing cells" in render_markdown(doc)
    True
"""

from repro.analysis.figures import (
    HAVE_MATPLOTLIB,
    FigureArtifact,
    hbar,
    passes_vs_space_figure,
    space_vs_approximation_figure,
    sparkline,
)
from repro.analysis.loader import (
    MissingCell,
    StoreAnalysis,
    detect_grids,
    load_store,
)
from repro.analysis.records import (
    AnalysisRecord,
    OUTCOMES,
    experiment_records,
    outcome_counts,
    record_from_entry,
    workload_records,
)
from repro.analysis.render import (
    MISSING_MARKER,
    ReportDocument,
    build_report,
    experiment_results_markdown,
    render_html,
    render_markdown,
    write_report,
)
from repro.analysis.tradeoff import (
    Envelope,
    TradeoffPoint,
    aggregate,
    space_approximation_points,
    theoretical_curve,
    typical_instance_shape,
)

__all__ = [
    "AnalysisRecord",
    "Envelope",
    "FigureArtifact",
    "HAVE_MATPLOTLIB",
    "MISSING_MARKER",
    "MissingCell",
    "OUTCOMES",
    "ReportDocument",
    "StoreAnalysis",
    "TradeoffPoint",
    "aggregate",
    "build_report",
    "detect_grids",
    "experiment_records",
    "experiment_results_markdown",
    "hbar",
    "load_store",
    "outcome_counts",
    "passes_vs_space_figure",
    "record_from_entry",
    "render_html",
    "render_markdown",
    "space_approximation_points",
    "space_vs_approximation_figure",
    "sparkline",
    "theoretical_curve",
    "typical_instance_shape",
    "workload_records",
    "write_report",
]
