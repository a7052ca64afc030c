"""Unit tests for the content-addressed result store."""

import json

from repro.runtime.scenarios import freeze_params
from repro.runtime.store import STORE_FORMAT_VERSION, ResultStore, task_fingerprint
from repro.runtime.tasks import RuntimeTask, execute_task
from repro.setcover.instance import SetSystem
from repro.setcover.source import HeapSource
from repro.workloads.random_instances import random_instance


def heap_descriptor(system):
    return HeapSource.from_packed(system.to_packed()).descriptor()


def tiny_task(seed=5, key="E12"):
    return RuntimeTask(key=key, runner="E12", params=freeze_params({"t": 2}), seed=seed)


class TestFingerprint:
    def test_stable(self):
        assert task_fingerprint(tiny_task()) == task_fingerprint(tiny_task())

    def test_input_sensitive(self):
        base = task_fingerprint(tiny_task(seed=5))
        assert task_fingerprint(tiny_task(seed=6)) != base
        other_params = RuntimeTask(
            key="E12", runner="E12", params=freeze_params({"t": 3}), seed=5
        )
        assert task_fingerprint(other_params) != base

    def test_key_excluded_from_identity(self):
        """The same computation under two scenario names shares a cache slot."""
        assert task_fingerprint(tiny_task(key="a")) == task_fingerprint(
            tiny_task(key="b")
        )


class TestStoreRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = tiny_task()
        assert store.get(task) is None
        assert store.misses == 1

        payload = execute_task(task)
        store.put(task, payload)
        assert task in store
        assert store.get(task) == payload
        assert store.hits == 1
        assert len(store) == 1

    def test_different_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_task(seed=5), execute_task(tiny_task(seed=5)))
        assert store.get(tiny_task(seed=6)) is None

    def test_entries_sharded_by_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        task = tiny_task()
        path = store.put(task, {"experiment_id": "E12"})
        fingerprint = task_fingerprint(task)
        assert path.parent.name == fingerprint[:2]
        assert path.name == f"{fingerprint}.json"

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_task(), {"experiment_id": "E12"})
        assert store.clear() == 1
        assert len(store) == 0


class TestInvalidation:
    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        task = tiny_task()
        path = store.put(task, {"experiment_id": "E12"})
        path.write_text("{not json")
        assert store.get(task) is None

    def test_fingerprint_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        task = tiny_task()
        path = store.put(task, {"experiment_id": "E12"})
        entry = json.loads(path.read_text())
        entry["fingerprint"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert store.get(task) is None

    def test_format_version_bump_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        task = tiny_task()
        path = store.put(task, {"experiment_id": "E12"})
        entry = json.loads(path.read_text())
        entry["format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(task) is None
        # __contains__ must agree with get() on invalid entries.
        assert task not in store

    def test_recompute_overwrites_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        task = tiny_task()
        path = store.put(task, execute_task(task))
        path.write_text("garbage")
        assert store.get(task) is None
        payload = execute_task(task)
        store.put(task, payload)
        assert store.get(task) == payload


class TestTaskFingerprints:
    def test_system_params_fingerprint_by_digest(self):
        system = random_instance(48, 20, density=0.15, seed=3).system
        task = RuntimeTask(key="k", runner="r", params=(("system", heap_descriptor(system)),))
        payload = task.fingerprint_payload()
        entry = payload["params"][0][1]
        assert entry == {
            "__set_system__": system.content_digest(),
            "universe_size": system.universe_size,
            "num_sets": system.num_sets,
        }
        # Same content, fresh object -> same fingerprint; different content
        # -> different fingerprint.
        clone = SetSystem.from_masks(system.universe_size, system.masks())
        same = RuntimeTask(key="k", runner="r", params=(("system", heap_descriptor(clone)),))
        assert same.fingerprint_payload() == payload
        mask0 = system.mask(0)
        free_bit = next(
            e for e in range(system.universe_size) if not (mask0 >> e) & 1
        )
        patched = system.with_patched_mask(0, 1 << free_bit)
        other = RuntimeTask(key="k", runner="r", params=(("system", heap_descriptor(patched)),))
        assert other.fingerprint_payload() != payload
