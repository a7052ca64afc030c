"""Durability primitives: checksums and journal-based counter persistence.

Two building blocks the crash-safe store and hardened executor share:

* **Canonical checksums** — :func:`canonical_checksum` hashes the canonical
  JSON of a payload (sorted keys, compact separators), giving an end-to-end
  integrity check that is stable across processes and dict orderings.  Store
  entries carry one per entry (:func:`entry_checksum` excludes the checksum
  field itself and the advisory ``telemetry`` block); task payloads carry one
  across the worker IPC boundary when fault injection is active.

* **Stats journals** — a journal directory of per-writer files replaces the
  read-modify-write cycle on ``store_stats.json`` that loses updates under
  concurrent writers.  Each writer owns exactly one journal file (named by
  pid + random suffix) and atomically rewrites *its own file* with its
  session totals; nobody ever edits another writer's file, so there is no
  write-write race by construction.  Readers sum the legacy base file plus
  every journal (:func:`sum_journals`).

Example — checksums are order-independent, journals sum per writer::

    >>> canonical_checksum({"b": 2, "a": 1}) == canonical_checksum({"a": 1, "b": 2})
    True
    >>> import tempfile; from pathlib import Path
    >>> root = Path(tempfile.mkdtemp())
    >>> journal = StatsJournal(root, keys=("puts", "hits"))
    >>> _ = journal.write({"puts": 3, "hits": 1})
    >>> other = StatsJournal(root, keys=("puts", "hits"))
    >>> _ = other.write({"puts": 2, "hits": 0})
    >>> sum_journals(root, keys=("puts", "hits"))
    {'puts': 5, 'hits': 1}
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Union

PathLike = Union[str, Path]

#: Directory (under a store root) holding one journal file per writer.  The
#: ``.journal`` suffix keeps journal files invisible to the store's
#: ``*/*.json`` entry globs.
JOURNAL_DIRNAME = "stats_journal"

#: Suffix of journal files (JSON content; the suffix hides them from globs).
JOURNAL_SUFFIX = ".journal"


def canonical_json(payload: Any) -> str:
    """The canonical JSON form every checksum in the stack hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_checksum(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: Entry fields excluded from the entry checksum: the checksum itself, and
#: the advisory ``telemetry`` block — capture on vs off must store entries
#: whose checksums (like their result payloads) are byte-identical.
_ENTRY_CHECKSUM_EXCLUDED = ("checksum", "telemetry")


def entry_checksum(entry: Mapping[str, Any]) -> str:
    """Checksum of a store entry's durable fields.

    Excludes the entry's own ``checksum`` field and the advisory
    ``telemetry`` sibling, so a telemetry-capturing run and a silent run
    write entries with identical checksums over identical result bytes.
    """
    return canonical_checksum(
        {k: v for k, v in entry.items() if k not in _ENTRY_CHECKSUM_EXCLUDED}
    )


def atomic_write_json(path: Path, payload: Any, indent: Optional[int] = 2) -> Path:
    """Write JSON durably: unique tmp file in the same directory, then rename.

    ``os.replace`` is atomic on POSIX, so a reader never observes a partial
    file and a crash mid-write leaves at most a stray ``*.tmp`` — never a
    truncated final file.  The tmp name embeds pid + random suffix so
    concurrent writers of the same path each rename their own complete file,
    and the next write of the path removes the strays whose writer process
    no longer exists (a live writer's tmp file is never touched).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    _remove_dead_writers_tmp(path)
    tmp_path = path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    tmp_path.write_text(json.dumps(payload, indent=indent, sort_keys=True))
    tmp_path.replace(path)
    return path


#: What :func:`atomic_write_json` appends to a target's name for its tmp file.
_TMP_SUFFIX = re.compile(r"\.(\d+)\.[0-9a-f]{8}\.tmp")


def _remove_dead_writers_tmp(path: Path) -> None:
    """Delete ``path``'s tmp files left by writers whose pid is gone."""
    for name in os.listdir(path.parent):
        if not name.startswith(path.name):
            continue
        match = _TMP_SUFFIX.fullmatch(name, len(path.name))
        if match is not None and not _pid_alive(int(match.group(1))):
            try:
                os.unlink(path.parent / name)
            except FileNotFoundError:
                pass  # another writer of the same path removed it first


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (on this host)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # it exists, and belongs to another user
    return True


class StatsJournal:
    """One writer's durable counter file inside a shared journal directory.

    Each instance owns a distinct file and only ever rewrites that file
    (atomically) with the writer's *cumulative* session totals — an
    overwrite-in-place ledger, not an append log, so repeated flushes are
    idempotent and crash-safe, and concurrent writers cannot clobber each
    other because they never share a path.
    """

    def __init__(self, root: PathLike, keys: Sequence[str]) -> None:
        self.root = Path(root)
        self.keys = tuple(keys)
        self.path = (
            self.root
            / JOURNAL_DIRNAME
            / f"{os.getpid()}-{uuid.uuid4().hex[:8]}{JOURNAL_SUFFIX}"
        )

    def write(self, totals: Mapping[str, int]) -> Path:
        """Atomically replace this writer's journal with ``totals``."""
        payload = {key: int(totals.get(key, 0)) for key in self.keys}
        return atomic_write_json(self.path, payload)


def iter_journal_files(root: PathLike) -> Iterable[Path]:
    """Every journal file under ``root``'s journal directory (sorted)."""
    directory = Path(root) / JOURNAL_DIRNAME
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"*{JOURNAL_SUFFIX}"))


def sum_journals(
    root: PathLike,
    keys: Sequence[str],
    base: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Aggregate view: ``base`` totals plus every journal file's counters.

    Unreadable journal files are skipped (a torn journal loses at most that
    writer's delta, never the whole ledger).  The result carries every key in
    ``keys`` with missing values read as 0.
    """
    totals = {key: int((base or {}).get(key, 0)) for key in keys}
    for path in iter_journal_files(root):
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(raw, dict):
            continue
        for key in keys:
            totals[key] += int(raw.get(key, 0))
    return totals


__all__ = [
    "JOURNAL_DIRNAME",
    "JOURNAL_SUFFIX",
    "StatsJournal",
    "atomic_write_json",
    "canonical_checksum",
    "canonical_json",
    "entry_checksum",
    "iter_journal_files",
    "sum_journals",
]
