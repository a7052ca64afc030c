"""Walk a result-store directory into records plus missing-cell accounting.

:func:`load_store` reads every entry a
:class:`~repro.runtime.store.ResultStore` directory holds (the same sharded
``<2-hex>/<fingerprint>.json`` layout ``repro run --store`` writes), flattens
each into an :class:`~repro.analysis.records.AnalysisRecord`, and — when a
scenario grid is named or detected — expands the grid through the scenario
registry to find the cells the store does *not* hold yet.  Missing cells are
first-class data (the report renders them as explicit markers), so a
partially-resumed or empty store analyses cleanly instead of raising.

A grid is named as ``repro run`` names what it runs
(:func:`~repro.runtime.scenarios.resolve_scenarios`): ``all``, a scenario
name, a tag (``adversarial``) or a grid prefix (``ADV``, matching every
``ADV[...]`` expansion).  With no explicit grid, grids whose cells appear in
the store are detected from the stored task keys, so ``repro report`` on a
half-finished ``repro run adversarial --store`` shows exactly the cells that
still need computing.

Example — an empty store loads to zero records and zero grids::

    >>> import tempfile
    >>> analysis = load_store(tempfile.mkdtemp())
    >>> (len(analysis.records), analysis.missing, analysis.grids)
    (0, [], ())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.records import (
    AnalysisRecord,
    experiment_records,
    record_from_entry,
    workload_records,
)
from repro.runtime.scenarios import SCENARIO_REGISTRY, natural_sort_key, resolve_scenarios
from repro.runtime.store import (
    STORE_FORMAT_VERSION,
    entry_fault,
    read_store_stats,
    task_fingerprint,
)
from repro.runtime.tasks import tasks_from_scenario

PathLike = Union[str, Path]


@dataclass(frozen=True)
class MissingCell:
    """One grid cell the store does not hold (yet)."""

    key: str
    scenario: str
    fingerprint: str


@dataclass
class StoreAnalysis:
    """Everything the report needs: records, gaps, and read diagnostics."""

    root: Path
    records: List[AnalysisRecord] = field(default_factory=list)
    missing: List[MissingCell] = field(default_factory=list)
    unreadable: List[Path] = field(default_factory=list)
    grids: Tuple[str, ...] = ()
    #: Cells the checked grids expect in total (present + missing), counted
    #: at load time against the same seed override the gap check used.
    expected_cells: int = 0
    #: Persisted hit/miss/put/skip totals from ``store_stats.json`` at the
    #: store root, or ``None`` when no run has flushed stats there yet.
    store_stats: Optional[Dict[str, int]] = None

    @property
    def workload_records(self) -> List[AnalysisRecord]:
        return workload_records(self.records)

    @property
    def experiment_records(self) -> List[AnalysisRecord]:
        return experiment_records(self.records)


def detect_grids(records: Sequence[AnalysisRecord]) -> Tuple[str, ...]:
    """Grid names whose expanded cells appear among the stored task keys.

    A stored key ``"ADV[...]"`` nominates grid ``ADV`` when the registry
    holds scenarios under that prefix; plain scenario keys nominate nothing
    (a single scenario has no notion of a missing sibling).
    """
    names = set()
    for record in records:
        key = record.key
        bracket = key.find("[")
        if bracket <= 0 or not key.endswith("]"):
            continue
        prefix = key[:bracket]
        if any(existing.startswith(f"{prefix}[") for existing in SCENARIO_REGISTRY):
            names.add(prefix)
    return tuple(sorted(names))


def _read_entry(path: Path) -> Optional[dict]:
    """Parse one store file; ``None`` for corrupt or foreign-format entries.

    Corruption is judged by :func:`~repro.runtime.store.entry_fault`, the
    rule ``repro run`` quarantines by, so the report never shows an entry a
    run would recompute.  Reading never moves a file.
    """
    try:
        entry = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if entry_fault(entry, path.stem) is not None:
        return None
    if entry.get("format") != STORE_FORMAT_VERSION or "result" not in entry:
        return None
    return entry


def load_store(
    store_dir: PathLike,
    grids: Optional[Sequence[str]] = None,
    seed_override: Optional[int] = None,
) -> StoreAnalysis:
    """Load every readable entry under ``store_dir`` and account for gaps.

    ``grids`` names the scenario grids whose coverage should be checked
    (``None`` auto-detects from the stored keys; pass ``()`` to skip the
    check entirely).  ``seed_override`` mirrors ``repro run --seed``: cells
    are expected at the fingerprints a run with that seed override would
    write.  Never raises on store *content* — unreadable files are collected
    in :attr:`StoreAnalysis.unreadable`, absent cells in
    :attr:`StoreAnalysis.missing`; only an unknown ``grids`` name raises
    (:class:`KeyError`), since that is a caller error rather than store
    state.
    """
    root = Path(store_dir)
    records: List[AnalysisRecord] = []
    unreadable: List[Path] = []
    for path in sorted(root.glob("*/*.json")):
        entry = _read_entry(path)
        if entry is None:
            unreadable.append(path)
            continue
        records.append(record_from_entry(entry))
    records.sort(key=lambda record: natural_sort_key(record.key))

    grid_names = tuple(grids) if grids is not None else detect_grids(records)
    expected: Dict[str, Tuple[str, str]] = {}
    for grid in grid_names:
        for scenario in resolve_scenarios(grid):
            for task in tasks_from_scenario(scenario, seed_override=seed_override):
                expected[task_fingerprint(task)] = (task.key, scenario.name)
    held = {record.fingerprint for record in records}
    missing = [
        MissingCell(key=key, scenario=scenario, fingerprint=fingerprint)
        for fingerprint, (key, scenario) in sorted(
            expected.items(), key=lambda item: natural_sort_key(item[1][0])
        )
        if fingerprint not in held
    ]
    return StoreAnalysis(
        root=root,
        records=records,
        missing=missing,
        unreadable=unreadable,
        grids=grid_names,
        expected_cells=len(expected),
        store_stats=read_store_stats(root),
    )
