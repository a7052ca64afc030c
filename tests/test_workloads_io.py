"""Unit tests for instance serialisation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.utils.bitset import MAX_INSTANCE_BITS, MAX_UNIVERSE_SIZE
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

    @pytest.mark.parametrize("n", ["99999999999", str(MAX_UNIVERSE_SIZE + 1), "9" * 400])
    def test_universe_beyond_the_limit(self, n):
        # Refused at the header, before the universe mask is built.
        with pytest.raises(ValueError, match="exceeds the limit"):
            loads_instance(f"{n} 1\n0\n")

    def test_universe_at_the_limit(self):
        instance = loads_instance(f"{MAX_UNIVERSE_SIZE} 1\n{MAX_UNIVERSE_SIZE - 1}\n")
        assert instance.system.elements(0) == frozenset({MAX_UNIVERSE_SIZE - 1})

    def test_sets_times_universe_beyond_the_limit(self):
        # 40 rows at the universe bound would be 40 masks of 2 MiB from a
        # 372-byte text: refused at the header, before any mask is built.
        text = f"{MAX_UNIVERSE_SIZE} 40\n" + f"{MAX_UNIVERSE_SIZE - 1}\n" * 40
        with pytest.raises(ValueError, match="over the limit"):
            loads_instance(text)

    def test_deeply_nested_metadata_is_a_value_error(self):
        with pytest.raises(ValueError, match="nests too deeply"):
            loads_instance("# meta x: " + "[" * 100_000 + "\n1 0\n")

    def test_comments_ignored(self):
        text = "# a comment\n3 1\n0 1 2\n"
        instance = loads_instance(text)
        assert instance.system.num_sets == 1
        assert instance.system.elements(0) == frozenset({0, 1, 2})


#: Integers around every threshold the parser checks, and far beyond them.
_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([MAX_UNIVERSE_SIZE - 1, MAX_UNIVERSE_SIZE, MAX_UNIVERSE_SIZE + 1]),
    st.sampled_from([MAX_INSTANCE_BITS // 64, MAX_INSTANCE_BITS // 64 + 1]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
_TOKENS = st.one_of(_NUMBERS.map(str), st.text(max_size=6))
_LINES = st.one_of(
    st.tuples(_NUMBERS, _NUMBERS).map(lambda nm: f"{nm[0]} {nm[1]}"),
    st.lists(_TOKENS, max_size=6).map(" ".join),
    st.lists(st.integers(min_value=-1, max_value=64), max_size=8).map(
        lambda row: " ".join(map(str, row))
    ),
    st.just("-"),
    _TOKENS.map(lambda token: f"# planted_opt: {token}"),
    _TOKENS.map(lambda token: f"# kind: {token}"),
    st.tuples(st.text(max_size=4), st.text(max_size=12)).map(
        lambda kv: f"# meta {kv[0]}: {kv[1]}"
    ),
    st.text(max_size=20),
)


@st.composite
def _near_valid_documents(draw):
    """A well-formed document, then up to two lines replaced by fuzz lines."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=40), _NUMBERS))
    elements = st.integers(min_value=0, max_value=max(0, min(n, 64) - 1))
    rows = draw(st.lists(st.lists(elements, max_size=6), max_size=6))
    lines = [f"{n} {len(rows)}"] + [" ".join(map(str, row)) or "-" for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))] = draw(_LINES)
    return "\n".join(lines)


class TestLoadsInstanceFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            _near_valid_documents(),
            st.lists(_LINES, max_size=10).map("\n".join),
            st.text(max_size=60),
        )
    )
    @example("99999999999 1\n0\n")
    @example(f"{MAX_UNIVERSE_SIZE} 2\n{MAX_UNIVERSE_SIZE - 1}\n0 1\n")
    @example("# meta x: " + "[" * 5000 + "\n1 0\n")
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            instance = loads_instance(text)
        except ValueError:
            return
        system = instance.system
        assert isinstance(instance, SetCoverInstance)
        assert 0 <= system.universe_size <= MAX_UNIVERSE_SIZE
        full = (1 << system.universe_size) - 1
        assert all(system.mask(i) & ~full == 0 for i in range(system.num_sets))
