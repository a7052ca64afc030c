"""Crash-safety tests for the result store: atomicity, quarantine, journals."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.resilience.durability import (
    StatsJournal,
    atomic_write_json,
    entry_checksum,
    iter_journal_files,
    sum_journals,
)
from repro.resilience.faults import FAULTS_ENV_VAR, fault_plan_active, parse_fault_spec
from repro.runtime import ResultStore, RuntimeTask, freeze_params
from repro.runtime.store import (
    STORE_STATS_FILENAME,
    StoreWriteError,
    read_store_stats,
    task_fingerprint,
)


def make_task(key="demo", t=2, seed=1):
    return RuntimeTask(key=key, runner="E12", params=freeze_params({"t": t}), seed=seed)


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)


class TestAtomicPut:
    def test_put_leaves_no_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_task(), {"answer": 42})
        leftovers = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file() and p.suffix not in (".json", ".journal")
        ]
        assert leftovers == []

    def test_put_then_get_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"answer": 42, "nested": {"rows": [1, 2, 3]}}
        store.put(make_task(), payload)
        assert store.get(make_task()) == payload

    def test_entry_carries_valid_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(make_task(), {"answer": 42})
        entry = json.loads(path.read_text())
        assert entry["checksum"] == entry_checksum(entry)

    def test_atomic_write_json_replaces_not_appends(self, tmp_path):
        target = tmp_path / "x.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}
        assert list(tmp_path.iterdir()) == [target]

    def test_next_put_removes_a_dead_writers_tmp_and_keeps_a_live_ones(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(task_fingerprint(make_task()))
        path.parent.mkdir(parents=True)
        writer = subprocess.Popen([sys.executable, "-c", "pass"])
        writer.wait()  # exited and reaped: its pid names no process now
        dead = path.parent / f"{path.name}.{writer.pid}.0123abcd.tmp"
        live = path.parent / f"{path.name}.{os.getppid()}.89abcdef.tmp"
        for stray in (dead, live):
            stray.write_text('{"torn')
        store.put(make_task(), {"answer": 42})
        assert not dead.exists()
        assert live.exists()
        assert store.get(make_task()) == {"answer": 42}


class TestCorruptEntryQuarantine:
    def test_truncated_entry_reads_as_miss_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        path = store.put(task, {"answer": 42})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        assert store.get(task) is None
        assert store.quarantined == 1
        assert not path.exists()
        quarantined = list(store.quarantine_dir.glob("*.quarantined"))
        assert len(quarantined) == 1
        assert "unreadable" in quarantined[0].name

    def test_bitflipped_entry_fails_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        path = store.put(task, {"answer": 42})
        entry = json.loads(path.read_text())
        entry["result"]["answer"] = 43  # flip a byte, keep valid JSON
        path.write_text(json.dumps(entry))

        assert store.get(task) is None
        assert any("checksum" in p.name for p in store.quarantine_dir.iterdir())

    def test_quarantined_entries_leave_entry_globs(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        path = store.put(task, {"answer": 42})
        path.write_text("not json")
        assert store.get(task) is None
        assert len(store) == 0  # the corrupt file no longer counts as an entry

    def test_miss_then_recompute_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        path = store.put(task, {"answer": 42})
        path.write_text("garbage")
        assert store.get(task) is None
        store.put(task, {"answer": 42})
        assert store.get(task) == {"answer": 42}

    def test_format_version_mismatch_is_plain_miss_not_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        path = store.put(task, {"answer": 42})
        entry = json.loads(path.read_text())
        entry["format"] = 0
        entry.pop("checksum")
        entry["checksum"] = entry_checksum(entry)
        path.write_text(json.dumps(entry))

        assert store.get(task) is None
        assert store.quarantined == 0
        assert path.exists()  # left in place: intact bytes, just orphaned


class TestTornWriteRecovery:
    def test_torn_put_retries_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        task = make_task()
        with fault_plan_active(parse_fault_spec("seed=1,store.put:torn:1:1")):
            path = store.put(task, {"answer": 42})
        # The final entry is whole and valid.
        entry = json.loads(path.read_text())
        assert entry["checksum"] == entry_checksum(entry)
        assert store.get(task) == {"answer": 42}
        # The torn generation is preserved as evidence.
        assert store.quarantined == 1
        assert any("torn-put" in p.name for p in store.quarantine_dir.iterdir())

    def test_persistent_torn_writes_exhaust_the_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        with fault_plan_active(parse_fault_spec("seed=1,store.put:torn:1:99")):
            with pytest.raises(StoreWriteError):
                store.put(make_task(), {"answer": 42})

    def test_faulted_put_verifies_read_back(self, tmp_path):
        # Zero-rate rule: the fault path runs (read-back verification) but
        # nothing fires — a single clean write, no quarantine.
        store = ResultStore(tmp_path)
        with fault_plan_active(parse_fault_spec("seed=1,store.put:torn:0")):
            store.put(make_task(), {"answer": 42})
        assert store.quarantined == 0
        assert store.get(make_task()) == {"answer": 42}


class TestJournaledStats:
    def test_two_writers_never_lose_counts(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)
        first.put(make_task("a", seed=1), {"x": 1})
        second.put(make_task("b", seed=2), {"x": 2})
        second.get(make_task("b", seed=2))
        # Interleaved flushes: each writer only ever rewrites its own journal.
        first.flush_stats()
        second.flush_stats()
        first.flush_stats()

        totals = read_store_stats(tmp_path)
        assert totals["puts"] == 2
        assert totals["hits"] == 1

    def test_flush_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_task(), {"x": 1})
        store.flush_stats()
        store.flush_stats()
        assert read_store_stats(tmp_path)["puts"] == 1

    def test_legacy_base_file_still_counts(self, tmp_path):
        (tmp_path / STORE_STATS_FILENAME).write_text(
            json.dumps({"hits": 5, "misses": 2, "puts": 7, "skips": 0})
        )
        store = ResultStore(tmp_path)
        store.put(make_task(), {"x": 1})
        store.flush_stats()
        totals = read_store_stats(tmp_path)
        assert totals["puts"] == 8
        assert totals["hits"] == 5
        assert totals["quarantined"] == 0

    def test_no_stats_reads_as_none(self, tmp_path):
        assert read_store_stats(tmp_path) is None
        # Creating a store (but never flushing) still reads as None.
        ResultStore(tmp_path / "sub")
        assert read_store_stats(tmp_path / "sub") is None

    def test_unreadable_journal_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_task(), {"x": 1})
        journal_path = store.flush_stats()
        (journal_path.parent / "zz-bad.journal").write_text("not json")
        assert read_store_stats(tmp_path)["puts"] == 1

    def test_journal_files_are_per_writer(self, tmp_path):
        keys = ("hits", "misses")
        a = StatsJournal(tmp_path, keys=keys)
        b = StatsJournal(tmp_path, keys=keys)
        a.write({"hits": 1, "misses": 0})
        b.write({"hits": 2, "misses": 3})
        assert len(list(iter_journal_files(tmp_path))) == 2
        assert sum_journals(tmp_path, keys=keys) == {"hits": 3, "misses": 3}


class TestFingerprintSafety:
    def test_entry_under_wrong_fingerprint_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        victim, imposter = make_task("a", seed=1), make_task("b", seed=2)
        imposter_path = store.put(imposter, {"x": 2})
        # Copy the imposter's (internally consistent) entry to the victim's
        # path: its fingerprint field no longer matches its location.
        victim_path = store.path_for(task_fingerprint(victim))
        victim_path.parent.mkdir(parents=True, exist_ok=True)
        victim_path.write_text(imposter_path.read_text())

        assert store.get(victim) is None
        assert any("fingerprint" in p.name for p in store.quarantine_dir.iterdir())
