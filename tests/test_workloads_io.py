"""Unit tests for instance serialisation."""

import pytest

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.workloads.io import dumps_instance, load_instance, loads_instance, save_instance
from repro.workloads.random_instances import plant_cover_instance


class TestRoundTrip:
    def test_text_round_trip(self):
        instance = plant_cover_instance(40, 12, 3, seed=1)
        text = dumps_instance(instance)
        rebuilt = loads_instance(text)
        assert rebuilt.system == instance.system
        assert rebuilt.planted_opt == instance.planted_opt
        assert rebuilt.metadata["kind"] == "planted"

    def test_file_round_trip(self, tmp_path):
        instance = plant_cover_instance(25, 8, 2, seed=2)
        path = save_instance(instance, tmp_path / "instance.txt")
        rebuilt = load_instance(path)
        assert rebuilt.system == instance.system

    def test_empty_set_round_trip(self):
        system = SetSystem(4, [[0, 1, 2, 3], []])
        text = dumps_instance(SetCoverInstance(system))
        rebuilt = loads_instance(text)
        assert rebuilt.system == system

    def test_no_metadata(self):
        system = SetSystem(3, [[0], [1, 2]])
        rebuilt = loads_instance(dumps_instance(SetCoverInstance(system)))
        assert rebuilt.planted_opt is None
        assert rebuilt.metadata == {}


class TestMetadataRoundTrip:
    def test_full_metadata_preserved(self):
        """Regression: every metadata entry round-trips, not just ``kind``."""
        system = SetSystem(6, [[0, 1, 2], [2, 3, 4], [4, 5]])
        instance = SetCoverInstance(
            system,
            planted_opt=3,
            metadata={
                "kind": "dsc",
                "theta": 1,
                "alpha": 2,
                "t": 5,
                "special_index": None,
                "rate": 0.25,
                "patched": True,
                "note": "hard instance",
            },
        )
        rebuilt = loads_instance(dumps_instance(instance))
        assert rebuilt.metadata == instance.metadata
        assert rebuilt.planted_opt == 3

    def test_dsc_stream_instance_round_trips(self):
        from repro.workloads.adversarial import dsc_stream_instance

        instance = dsc_stream_instance(48, 3, 2, theta=1, seed=9)
        rebuilt = loads_instance(dumps_instance(instance))
        assert rebuilt.system == instance.system
        assert rebuilt.metadata == instance.metadata
        assert rebuilt.planted_opt == instance.planted_opt

    def test_empty_sets_with_full_metadata(self):
        system = SetSystem(4, [[0, 1, 2, 3], [], []])
        instance = SetCoverInstance(system, metadata={"kind": "edge", "level": 7})
        rebuilt = loads_instance(dumps_instance(instance))
        assert rebuilt.system == system
        assert rebuilt.metadata == {"kind": "edge", "level": 7}

    def test_metadata_without_kind(self):
        system = SetSystem(2, [[0], [1]])
        instance = SetCoverInstance(system, metadata={"alpha": 3})
        rebuilt = loads_instance(dumps_instance(instance))
        assert rebuilt.metadata == {"alpha": 3}

    def test_file_round_trip_with_metadata(self, tmp_path):
        from repro.workloads.adversarial import dmc_stream_instance

        instance = dmc_stream_instance(2, 0.35, seed=4)
        path = save_instance(instance, tmp_path / "dmc.txt")
        rebuilt = load_instance(path)
        assert rebuilt.system == instance.system
        assert rebuilt.metadata == instance.metadata

    def test_malformed_meta_line_rejected(self):
        with pytest.raises(ValueError):
            loads_instance("# meta broken-line-without-colon\n2 1\n0 1\n")

    def test_unserialisable_metadata_key_rejected_at_dump(self):
        system = SetSystem(2, [[0], [1]])
        for bad_key in ("source:file", "two\nlines", ""):
            instance = SetCoverInstance(system, metadata={bad_key: "x"})
            with pytest.raises(ValueError, match="cannot be serialised"):
                dumps_instance(instance)

    def test_non_round_trippable_metadata_value_rejected_at_dump(self):
        system = SetSystem(2, [[0], [1]])
        # A tuple would silently come back as a list; a set is not JSON at all.
        for bad_value in ((2, 3), {1, 2}):
            instance = SetCoverInstance(system, metadata={"shape": bad_value})
            with pytest.raises(ValueError, match="metadata value"):
                dumps_instance(instance)


class TestParsingErrors:
    def test_missing_data(self):
        with pytest.raises(ValueError):
            loads_instance("# just a comment\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            loads_instance("5\n0 1\n")

    def test_wrong_set_count(self):
        with pytest.raises(ValueError):
            loads_instance("4 3\n0 1\n2 3\n")

    @pytest.mark.parametrize(
        "element", ["1000000000000", "9999999999999999999999", "1000000000", "-1"]
    )
    def test_element_outside_the_universe(self, element):
        # Rejected as its line is parsed, before any bitset is built for it.
        with pytest.raises(ValueError, match="outside the universe"):
            loads_instance(f"2 1\n{element}\n")

    def test_comments_ignored(self):
        text = "# a comment\n3 1\n0 1 2\n"
        instance = loads_instance(text)
        assert instance.system.num_sets == 1
        assert instance.system.elements(0) == frozenset({0, 1, 2})
