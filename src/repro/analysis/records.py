"""Tidy row records: one store entry flattened into analysable fields.

The result store keeps whatever the experiment runner returned — a table
payload plus free-form findings.  Analysis wants *tidy data*: one flat record
per cell with the tradeoff-relevant fields (workload axes, pass count, space
used vs budget, solution quality) pulled into typed attributes, so the
tradeoff math and the report renderer never re-parse runner-specific payload
shapes.  :func:`record_from_entry` performs that flattening for any store
entry; ``WL`` workload cells get the full schema, other runners (the E1–E12
paper experiments) keep their table/findings accessible via
:attr:`AnalysisRecord.table` and :attr:`AnalysisRecord.findings`.

Example — flatten a stored workload cell and read its outcome::

    >>> entry = {
    ...     "fingerprint": "ab" * 32,
    ...     "key": "ADV[algorithm=greedy,order=random,workload=dsc]",
    ...     "task": {"runner": "WL", "seed": 7, "params": [["workload", "dsc"]]},
    ...     "result": {
    ...         "experiment_id": "WL", "title": "demo",
    ...         "table": {"headers": ["n", "m"], "rows": [[96, 24]], "title": None},
    ...         "findings": {"workload": "dsc", "algorithm": "greedy",
    ...                      "order": "random", "solution_size": 6, "opt_guess": 3,
    ...                      "feasible": True, "passes": 2, "peak_space_words": 40},
    ...     },
    ... }
    >>> record = record_from_entry(entry)
    >>> (record.algorithm, record.passes, record.approx_ratio, record.outcome)
    ('greedy', 2, 2.0, 'ok')
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Outcome labels, in report-display order.
OUTCOME_OK = "ok"
OUTCOME_INFEASIBLE = "infeasible"
OUTCOME_BUDGET_EXCEEDED = "budget_exceeded"
OUTCOME_UNCOVERABLE = "uncoverable"
OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_INFEASIBLE,
    OUTCOME_BUDGET_EXCEEDED,
    OUTCOME_UNCOVERABLE,
)


@dataclass(frozen=True)
class AnalysisRecord:
    """One flattened result cell: task identity plus tradeoff metrics.

    Workload-axis attributes (``workload``, ``algorithm``, ``order``) and the
    metric attributes are ``None`` whenever the underlying runner did not
    report them — records from the paper experiments E1–E12 carry only
    identity, ``table``, and ``findings``.
    """

    key: str
    runner: str
    experiment_id: str
    title: str
    fingerprint: str
    seed: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    # -- workload axes ----------------------------------------------------
    workload: Optional[str] = None
    algorithm: Optional[str] = None
    order: Optional[str] = None
    universe_size: Optional[int] = None
    num_sets: Optional[int] = None
    # -- solution quality -------------------------------------------------
    solution_size: Optional[int] = None
    opt_bound: Optional[int] = None
    opt_is_planted: bool = False
    feasible: Optional[bool] = None
    passes: Optional[int] = None
    # -- space accounting (the SpaceReport fields, per row) ----------------
    peak_space_words: Optional[int] = None
    final_space_words: Optional[int] = None
    stored_incidences_peak: Optional[int] = None
    dominant_category: Optional[str] = None
    space_budget: Optional[int] = None
    budget_exceeded: bool = False
    instance_uncoverable: bool = False
    # -- raw payload ------------------------------------------------------
    findings: Mapping[str, Any] = field(default_factory=dict)
    table: Mapping[str, Any] = field(default_factory=dict)
    #: The computing run's summarized telemetry block (counters / gauges /
    #: span summary), when the entry was written with capture on.
    telemetry: Optional[Mapping[str, Any]] = None

    @property
    def is_workload(self) -> bool:
        """Whether this record carries the workload-sweep schema."""
        return self.workload is not None and self.algorithm is not None

    @property
    def approx_ratio(self) -> Optional[float]:
        """``solution_size / opt_bound`` when both are known, else ``None``.

        A solution that is *known infeasible* has no meaningful ratio (it can
        undercut opt precisely because it covers too little), so it reports
        ``None`` rather than polluting the tradeoff envelopes.
        """
        if self.solution_size is None or not self.opt_bound:
            return None
        if self.feasible is False:
            return None
        return self.solution_size / self.opt_bound

    @property
    def outcome(self) -> str:
        """Row outcome: ``ok`` / ``infeasible`` / ``budget_exceeded`` / ``uncoverable``."""
        if self.budget_exceeded:
            return OUTCOME_BUDGET_EXCEEDED
        if self.instance_uncoverable:
            return OUTCOME_UNCOVERABLE
        if self.feasible is False:
            return OUTCOME_INFEASIBLE
        return OUTCOME_OK


def _as_optional_int(value: Any) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return int(value)


def _table_cell(table: Mapping[str, Any], column: str) -> Any:
    """First-row value of a named table column, or ``None``."""
    headers: Sequence[Any] = table.get("headers") or ()
    rows: Sequence[Sequence[Any]] = table.get("rows") or ()
    if column not in headers or not rows:
        return None
    return rows[0][list(headers).index(column)]


def record_from_entry(entry: Mapping[str, Any]) -> AnalysisRecord:
    """Flatten one store entry (the parsed JSON dict) into a record.

    Tolerant by construction: every metric falls back to ``None`` when the
    stored findings do not carry it, and fields that newer writers add
    (``dominant_category``, ``final_space_words``) are recovered from the
    stored table for entries written before they existed.
    """
    task: Mapping[str, Any] = entry.get("task") or {}
    result: Mapping[str, Any] = entry.get("result") or {}
    findings: Mapping[str, Any] = result.get("findings") or {}
    table: Mapping[str, Any] = result.get("table") or {}

    planted = _as_optional_int(findings.get("planted_opt"))
    opt_bound = planted if planted else _as_optional_int(findings.get("opt_guess"))

    def metric(name: str) -> Optional[int]:
        value = _as_optional_int(findings.get(name))
        return value if value is not None else _as_optional_int(_table_cell(table, name))

    dominant = findings.get("dominant_category")
    if dominant is None:
        dominant = _table_cell(table, "dominant_category")
    if dominant == "-":
        dominant = None

    feasible = findings.get("feasible")
    if not isinstance(feasible, bool):
        feasible = None

    return AnalysisRecord(
        key=str(entry.get("key", "")),
        runner=str(task.get("runner", "")),
        experiment_id=str(result.get("experiment_id", "")),
        title=str(result.get("title", "")),
        fingerprint=str(entry.get("fingerprint", "")),
        seed=_as_optional_int(task.get("seed")),
        params=tuple(
            (str(name), _thaw(value)) for name, value in (task.get("params") or ())
        ),
        workload=findings.get("workload"),
        algorithm=findings.get("algorithm"),
        order=findings.get("order"),
        universe_size=metric("n"),
        num_sets=metric("m"),
        solution_size=_as_optional_int(findings.get("solution_size")),
        opt_bound=opt_bound,
        opt_is_planted=bool(planted),
        feasible=feasible,
        passes=_as_optional_int(findings.get("passes")),
        peak_space_words=metric("peak_space_words"),
        final_space_words=metric("final_space_words"),
        stored_incidences_peak=_as_optional_int(findings.get("stored_incidences_peak")),
        dominant_category=dominant,
        space_budget=_as_optional_int(findings.get("space_budget")),
        budget_exceeded=bool(findings.get("budget_exceeded", False)),
        instance_uncoverable=bool(findings.get("instance_uncoverable", False)),
        findings=dict(findings),
        table=dict(table),
        telemetry=entry.get("telemetry"),
    )


def _thaw(value: Any) -> Any:
    """JSON lists stored for frozen param tuples come back as tuples."""
    if isinstance(value, list):
        return tuple(_thaw(item) for item in value)
    return value


def workload_records(records: Sequence[AnalysisRecord]) -> List[AnalysisRecord]:
    """The subset of records carrying the workload-sweep schema."""
    return [record for record in records if record.is_workload]


def experiment_records(records: Sequence[AnalysisRecord]) -> List[AnalysisRecord]:
    """The subset of records that are *not* workload cells (E1–E12 etc.)."""
    return [record for record in records if not record.is_workload]


def outcome_counts(records: Sequence[AnalysisRecord]) -> Dict[str, int]:
    """How many records landed in each outcome bucket (all buckets present)."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record.outcome] = counts.get(record.outcome, 0) + 1
    return counts
