"""Loader tests: real store round-trips, missing cells, corrupt entries."""

import json

import pytest

from repro.analysis.loader import detect_grids, load_store
from repro.runtime import (
    ResultStore,
    TaskExecutor,
    get_scenario,
    task_fingerprint,
    tasks_from_scenario,
)


@pytest.fixture
def wl_store(tmp_path):
    """A real store holding two computed WL cells (one per arrival order)."""
    store = ResultStore(tmp_path / "store")
    tasks = []
    for order in ("adversarial", "random"):
        spec = get_scenario("ADV[algorithm=saha_getoor,order=%s,workload=random]" % order)
        tasks.extend(tasks_from_scenario(spec))
    TaskExecutor(store=store).run(tasks)
    return store


class TestLoadStoreRoundTrip:
    def test_records_match_computed_results(self, wl_store):
        analysis = load_store(wl_store.root, grids=())
        assert len(analysis.records) == 2
        record = analysis.records[0]
        assert record.runner == "WL"
        assert record.algorithm == "saha_getoor"
        assert record.workload == "random"
        assert record.universe_size == 96
        assert record.num_sets == 24
        assert record.passes == 1
        assert record.peak_space_words is not None and record.peak_space_words > 0
        assert record.final_space_words is not None
        assert record.dominant_category is not None

    def test_fingerprints_match_store_identity(self, wl_store):
        analysis = load_store(wl_store.root, grids=())
        spec = get_scenario("ADV[algorithm=saha_getoor,order=random,workload=random]")
        (task,) = tasks_from_scenario(spec)
        assert task_fingerprint(task) in {r.fingerprint for r in analysis.records}

    def test_records_sorted_by_key(self, wl_store):
        analysis = load_store(wl_store.root, grids=())
        keys = [record.key for record in analysis.records]
        assert keys == sorted(keys)

    def test_empty_store_loads_cleanly(self, tmp_path):
        analysis = load_store(tmp_path / "nowhere")
        assert analysis.records == []
        assert analysis.missing == []
        assert analysis.unreadable == []
        assert analysis.expected_cells == 0

    def test_unreadable_entries_are_collected_not_raised(self, wl_store):
        bad = wl_store.root / "zz"
        bad.mkdir()
        (bad / "junk.json").write_text("{not json")
        (bad / "foreign.json").write_text(json.dumps({"format": 999, "x": 1}))
        analysis = load_store(wl_store.root, grids=())
        assert len(analysis.records) == 2
        assert len(analysis.unreadable) == 2

    def test_entries_a_run_would_quarantine_are_unreadable(self, wl_store):
        tampered, intact = sorted(wl_store.root.glob("*/*.json"))
        entry = json.loads(tampered.read_text())
        entry["key"] += " TAMPERED"
        tampered.write_text(json.dumps(entry))
        elsewhere = wl_store.root / "ff" / f"{'f' * 64}.json"
        elsewhere.parent.mkdir(exist_ok=True)
        elsewhere.write_text(intact.read_text())
        analysis = load_store(wl_store.root, grids=())
        assert [record.key for record in analysis.records] == [
            json.loads(intact.read_text())["key"]
        ]
        assert sorted(analysis.unreadable) == sorted([tampered, elsewhere])
        # Reading never quarantines: the bad files stay where they are.
        assert tampered.exists() and elsewhere.exists()
        assert not (wl_store.root / "quarantine").exists()


class TestMissingCells:
    def test_grid_detection_from_keys(self, wl_store):
        analysis = load_store(wl_store.root)
        assert analysis.grids == ("ADV",)

    def test_missing_cells_for_partial_grid(self, wl_store):
        analysis = load_store(wl_store.root, grids=["ADV"])
        assert analysis.expected_cells == 48
        assert len(analysis.missing) == 46
        assert all(cell.key.startswith("ADV[") for cell in analysis.missing)
        held = {record.key for record in analysis.records}
        assert all(cell.key not in held for cell in analysis.missing)

    def test_full_grid_has_no_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_scenario("WL")
        TaskExecutor(store=store).run(tasks_from_scenario(spec))
        analysis = load_store(store.root, grids=["WL"])
        assert analysis.missing == []
        assert analysis.expected_cells == 1

    def test_seed_override_shifts_expected_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_scenario("WL")
        TaskExecutor(store=store).run(tasks_from_scenario(spec))
        analysis = load_store(store.root, grids=["WL"], seed_override=99)
        assert len(analysis.missing) == 1
        assert analysis.expected_cells == 1

    def test_expected_cells_respects_seed_override_for_held_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_scenario("WL")
        TaskExecutor(store=store).run(tasks_from_scenario(spec, seed_override=99))
        analysis = load_store(store.root, grids=["WL"], seed_override=99)
        assert analysis.missing == []
        assert analysis.expected_cells == 1

    def test_explicit_empty_grids_disable_the_check(self, wl_store):
        analysis = load_store(wl_store.root, grids=())
        assert analysis.grids == ()
        assert analysis.missing == []

    def test_unknown_grid_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            load_store(tmp_path, grids=["no-such-grid"])

    def test_missing_cells_sorted_by_key(self, wl_store):
        analysis = load_store(wl_store.root, grids=["ADV"])
        keys = [cell.key for cell in analysis.missing]
        assert keys == sorted(keys)


class TestDetectGrids:
    def test_non_grid_keys_detect_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        TaskExecutor(store=store).run(tasks_from_scenario(get_scenario("WL")))
        analysis = load_store(store.root)
        assert analysis.grids == ()

    def test_unregistered_bracket_keys_detect_nothing(self):
        from repro.analysis.records import record_from_entry

        record = record_from_entry(
            {"fingerprint": "a", "key": "GONE[x=1]", "task": {"runner": "WL"}}
        )
        assert detect_grids([record]) == ()
