"""Serialisation and reporting of experiment results.

The CLI (:mod:`repro.cli`) and downstream notebooks need experiment results
in machine-readable form; this module converts :class:`ExperimentResult`
objects to/from plain dictionaries, writes JSON files, and renders a combined
markdown report (one ``## <id> — <title>`` section per experiment).

Markdown rendering is :func:`repro.analysis.render.experiment_results_markdown`
— the tradeoff-analysis subsystem owns all report generation; this module
keeps only the (de)serialisation primitives the runtime store is built on
and the file writers.  For full paper-style tradeoff reports over a
result-store directory, use ``repro report`` /
:func:`repro.analysis.render.build_report` instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.experiments.harness import ExperimentResult
from repro.utils.tables import Table

PathLike = Union[str, Path]


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Convert an ExperimentResult into JSON-serialisable plain data."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "table": {
            "title": result.table.title,
            "headers": list(result.table.headers),
            "rows": [list(row) for row in result.table.rows],
        },
        "findings": _jsonable(result.findings),
    }


def result_from_dict(payload: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    table_payload = payload["table"]
    table = Table(table_payload["headers"], title=table_payload.get("title"))
    for row in table_payload["rows"]:
        table.add_row(*row)
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        table=table,
        findings=dict(payload.get("findings", {})),
    )


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of finding values into JSON-compatible data."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        if value != value or value in (float("inf"), float("-inf")):  # NaN / inf
            return str(value)
        return value
    return str(value)


def save_results_json(
    results: Iterable[ExperimentResult], path: PathLike
) -> Path:
    """Write a list of results to a JSON file and return the path."""
    path = Path(path)
    payload = [result_to_dict(result) for result in results]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_markdown_report(
    results: Iterable[ExperimentResult], path: PathLike, title: Optional[str] = None
) -> Path:
    """Write the markdown report to disk and return the path."""
    from repro.analysis.render import experiment_results_markdown

    path = Path(path)
    path.write_text(experiment_results_markdown(list(results), title=title))
    return path
