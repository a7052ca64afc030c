"""Content-addressed, crash-safe on-disk result store for experiment runs.

Every :class:`~repro.runtime.tasks.RuntimeTask` has a *fingerprint*: the
SHA-256 of the canonical JSON of ``(format version, runner, params, seed)``.
The store keeps one JSON file per fingerprint (sharded into two-hex-digit
subdirectories), so re-running a scenario grid skips every task whose inputs
are unchanged — resume semantics for long benchmark sweeps come for free.

Invalidation is structural: changing any input changes the fingerprint, and
bumping :data:`STORE_FORMAT_VERSION` (when the stored payload shape changes)
orphans every old entry.

Durability discipline (``repro.resilience``):

* **Atomic writes** — entries and stats go through tmp-file + ``os.replace``,
  so a crashed or torn writer never leaves a truncated file at a final path;
* **Checksums** — each entry carries the SHA-256 of its own canonical JSON;
  a corrupt entry (truncated, bit-flipped, mismatched) reads as a miss, is
  moved to the ``quarantine/`` directory (counted, never fatal), and is
  recomputed by the caller like any other miss;
* **Journaled stats** — hit/miss/put/skip/quarantine totals persist through
  per-writer journal files (each writer atomically rewrites only its own
  file), so concurrent runs against one store never lose counts to a
  read-modify-write race; :func:`read_store_stats` folds the legacy
  ``store_stats.json`` base together with every journal.

Example — miss, put, hit::

    >>> import tempfile
    >>> from repro.runtime.tasks import RuntimeTask
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> task = RuntimeTask(key="demo", runner="WL", seed=1)
    >>> store.get(task) is None
    True
    >>> _ = store.put(task, {"answer": 42})
    >>> store.get(task)
    {'answer': 42}
    >>> (store.hits, store.misses, store.puts, store.skips, store.quarantined)
    (1, 1, 1, 0, 0)
    >>> _ = store.flush_stats()
    >>> read_store_stats(store.root)
    {'hits': 1, 'misses': 1, 'puts': 1, 'skips': 0, 'quarantined': 0}
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exceptions import ReproError
from repro.resilience.durability import (
    StatsJournal,
    atomic_write_json,
    entry_checksum,
    sum_journals,
)
from repro.resilience.faults import faults_enabled, inject
from repro.resilience.policy import policy_from_env
from repro.runtime.tasks import RuntimeTask
from repro.telemetry.metrics import add as _count
from repro.telemetry.spans import event

PathLike = Union[str, Path]

#: Bump when the stored payload layout changes incompatibly.  The optional
#: ``telemetry`` and ``checksum`` fields added alongside ``result`` are
#: additive (old readers ignore them, old entries simply lack them), so they
#: do not bump the format.
STORE_FORMAT_VERSION = 1

#: Filename of the legacy persisted totals at the store root.  New activity
#: is journaled per writer (see ``stats_journal/``); this file still counts
#: as the base so stores written by older versions keep their history.
STORE_STATS_FILENAME = "store_stats.json"

#: Directory corrupt entries are moved into (never deleted: quarantined bytes
#: are evidence).  The ``.quarantined`` suffix keeps them out of entry globs.
QUARANTINE_DIRNAME = "quarantine"

#: The counter names persisted in stats journals, in canonical order.
_STAT_KEYS = ("hits", "misses", "puts", "skips", "quarantined")


def read_store_stats(root: PathLike) -> Optional[Dict[str, int]]:
    """Aggregate persisted store stats at ``root``, or ``None`` if absent.

    Sums the legacy ``store_stats.json`` base (when present) with every
    per-writer journal file.  The result always carries all keys (missing
    ones read as 0); unreadable files are skipped, and ``None`` is returned
    only when neither a base file nor any journal exists.
    """
    root = Path(root)
    base: Optional[Dict[str, int]] = None
    try:
        raw = json.loads((root / STORE_STATS_FILENAME).read_text())
        if isinstance(raw, dict):
            base = {key: int(raw.get(key, 0)) for key in _STAT_KEYS}
    except (OSError, json.JSONDecodeError):
        base = None
    totals = sum_journals(root, keys=_STAT_KEYS, base=base)
    if base is None and totals == {key: 0 for key in _STAT_KEYS}:
        from repro.resilience.durability import iter_journal_files

        if not list(iter_journal_files(root)):
            return None
    return totals


def task_fingerprint(task: RuntimeTask) -> str:
    """SHA-256 fingerprint of a task's inputs (hex, 64 chars)."""
    payload = dict(task.fingerprint_payload(), format=STORE_FORMAT_VERSION)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def entry_fault(entry: Any, fingerprint: str) -> Optional[str]:
    """Why a parsed entry cannot stand at ``fingerprint``'s path, or ``None``.

    The one corruption rule every reader applies: the entry must be a JSON
    object, its ``checksum`` (when it carries one) must match its content,
    and its ``fingerprint`` must name the path it was read from.  Returns
    the reason (``malformed``, ``checksum`` or ``fingerprint``).  A format
    mismatch is not corruption and is left to the caller.
    """
    if not isinstance(entry, dict):
        return "malformed"
    checksum = entry.get("checksum")
    if checksum is not None and checksum != entry_checksum(entry):
        return "checksum"
    if entry.get("fingerprint") != fingerprint:
        return "fingerprint"
    return None


class StoreWriteError(ReproError):
    """Raised when an entry could not be durably written within the retry budget."""


class ResultStore:
    """A directory of finished task results, keyed by input fingerprint."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.skips = 0
        self.quarantined = 0
        self._journal = StatsJournal(self.root, keys=_STAT_KEYS)

    def path_for(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives (may not exist)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (exists only after a quarantine)."""
        return self.root / QUARANTINE_DIRNAME

    def get(self, task: RuntimeTask) -> Optional[Dict[str, Any]]:
        """Return the stored result payload for ``task``, or ``None`` on miss."""
        entry = self.fetch(task)
        if entry is None:
            return None
        return entry["result"]

    def fetch(self, task: RuntimeTask) -> Optional[Dict[str, Any]]:
        """Return the full stored entry for ``task`` (counting hit/miss).

        The entry carries ``result`` plus metadata — ``telemetry`` when the
        computing run captured it.  Use :meth:`get` for just the payload.
        """
        entry = self._valid_entry(task)
        if entry is None:
            self.misses += 1
            _count("store.misses")
            return None
        self.hits += 1
        _count("store.hits")
        return entry

    def _valid_entry(self, task: RuntimeTask) -> Optional[Dict[str, Any]]:
        """Load and validate the entry for ``task``.

        Corruption — unreadable JSON, a checksum mismatch, or a fingerprint
        that does not match the entry's path — quarantines the file and reads
        as a miss, so the caller recomputes; a format-version mismatch is
        plain invalidation (old-but-intact bytes), also a miss but left in
        place for :data:`STORE_FORMAT_VERSION` bumps to orphan cheaply.
        Only hit/miss counters are the caller's business; quarantines count
        themselves.
        """
        fingerprint = task_fingerprint(task)
        path = self.path_for(fingerprint)
        entry = self._load(path)
        if entry is None:
            if path.exists():
                self.quarantine(path, reason="unreadable")
            return None
        fault = entry_fault(entry, fingerprint)
        if fault is not None:
            self.quarantine(path, reason=fault)
            return None
        if entry.get("format") != STORE_FORMAT_VERSION:
            return None
        return entry

    def quarantine(self, path: Path, reason: str = "corrupt") -> Optional[Path]:
        """Move a corrupt entry file into ``quarantine/`` (never fatal).

        The quarantined name keeps the original filename plus the reason and
        a unique suffix, so repeated corruption of one fingerprint preserves
        every generation of bad bytes for post-mortems.  Returns the new
        path, or ``None`` when the file vanished first (a concurrent reader
        already moved it — their quarantine is as good as ours).
        """
        target_dir = self.quarantine_dir
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / f"{path.name}.{reason}.{uuid.uuid4().hex[:8]}.quarantined"
        try:
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        _count("store.quarantined")
        event("store.quarantine", entry=path.name, reason=reason)
        return target

    def put(
        self,
        task: RuntimeTask,
        result_payload: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist a computed result durably; returns the entry path.

        ``telemetry`` optionally attaches the computing run's summarized
        telemetry block *alongside* the result — it is never part of
        ``result``, of the fingerprint, or of the checksum's payload
        semantics, so captured and uncaptured runs store byte-identical
        result payloads.

        Writes are atomic (unique tmp file + ``os.replace``), so a crashed
        run never leaves a truncated entry at the final path and concurrent
        writers of one task each rename their own complete file.  Under
        active fault injection (``store.put`` torn-write faults) each write
        is also verified by reading the entry back; a torn entry is
        quarantined and rewritten within the ambient retry budget.
        """
        fingerprint = task_fingerprint(task)
        path = self.path_for(fingerprint)
        entry = {
            "format": STORE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "task": task.fingerprint_payload(),
            "key": task.key,
            "result": result_payload,
        }
        if telemetry is not None:
            entry["telemetry"] = telemetry
        entry["checksum"] = entry_checksum(entry)
        self.puts += 1
        _count("store.puts")
        if not faults_enabled():
            return atomic_write_json(path, entry)
        # Fault-injection path: simulate torn writes and verify each attempt
        # end to end.  Bounded by the ambient retry policy; rule defaults
        # (until=1) guarantee the first retry lands a clean write.
        max_attempts = max(2, policy_from_env().max_attempts)
        for attempt in range(max_attempts):
            kind = inject("store.put", key=fingerprint, attempt=attempt)
            if kind == "torn":
                # A torn write is a non-atomic writer dying mid-stream: the
                # final path ends up with a truncated prefix of the entry.
                text = json.dumps(entry, indent=2, sort_keys=True)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text[: max(1, len(text) // 2)])
            else:
                atomic_write_json(path, entry)
            if entry_fault(self._load(path), fingerprint) is None:
                return path
            self.quarantine(path, reason="torn-put")
            _count("store.put_retries")
        raise StoreWriteError(
            f"entry {fingerprint[:16]}… failed verification after "
            f"{max_attempts} write attempts"
        )

    def record_skip(self) -> None:
        """Count one task whose computation was skipped (served from cache)."""
        self.skips += 1
        _count("store.skips")

    def stats(self) -> Dict[str, int]:
        """This session's counter values as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "skips": self.skips,
            "quarantined": self.quarantined,
        }

    def flush_stats(self) -> Path:
        """Persist this session's counts through the writer's stats journal.

        Atomically rewrites only *this writer's* journal file with the
        session's cumulative totals — idempotent under repeated flushes and
        race-free under concurrent writers, because no two writers share a
        journal path.  :func:`read_store_stats` aggregates the journals with
        the legacy ``store_stats.json`` base.  Returns the journal path.
        """
        return self._journal.write(self.stats())

    def __contains__(self, task: RuntimeTask) -> bool:
        return self._valid_entry(task) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        return removed

    @staticmethod
    def _load(path: Path) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
