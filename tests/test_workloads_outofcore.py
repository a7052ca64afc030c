"""Chunked generation and streaming text I/O: bit-parity at bounded memory."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.setcover.source import MmapSource
from repro.workloads.io import (
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
)
from repro.workloads.outofcore import generate_to_file
from repro.workloads.random_instances import random_instance, random_set_system


class TestGenerateToFile:
    def test_density_path_matches_in_memory(self, tmp_path):
        descriptor = generate_to_file(
            tmp_path / "a.repro", 32, 300, seed=7, chunk_rows=64
        )
        in_memory = random_set_system(32, 300, seed=7)
        assert descriptor.digest == in_memory.content_digest()
        with MmapSource.open(tmp_path / "a.repro") as source:
            assert SetSystem.from_source(source).to_packed().buffer == in_memory.to_packed().buffer

    def test_set_size_path_matches_in_memory(self, tmp_path):
        descriptor = generate_to_file(
            tmp_path / "b.repro", 40, 120, set_size=5, seed=11, chunk_rows=13
        )
        in_memory = random_set_system(40, 120, set_size=5, seed=11)
        assert descriptor.digest == in_memory.content_digest()

    def test_chunk_size_never_changes_bytes(self, tmp_path):
        digests = {
            generate_to_file(
                tmp_path / f"c{rows}.repro", 32, 100, seed=3, chunk_rows=rows
            ).digest
            for rows in (1, 7, 64, 1000)
        }
        assert len(digests) == 1

    def test_explicit_density_matches(self, tmp_path):
        descriptor = generate_to_file(
            tmp_path / "d.repro", 24, 50, density=0.4, seed=2
        )
        assert descriptor.digest == random_set_system(
            24, 50, density=0.4, seed=2
        ).content_digest()

    def test_parameter_validation_mirrors_random_set_system(self, tmp_path):
        with pytest.raises(ValueError, match="at most one"):
            generate_to_file(tmp_path / "x.repro", 8, 4, set_size=2, density=0.5)
        with pytest.raises(ValueError, match="set_size"):
            generate_to_file(tmp_path / "x.repro", 8, 4, set_size=9)
        with pytest.raises(ValueError, match="density"):
            generate_to_file(tmp_path / "x.repro", 8, 4, density=1.5)
        with pytest.raises(ValueError, match="chunk_rows"):
            generate_to_file(tmp_path / "x.repro", 8, 4, chunk_rows=0)
        assert list(tmp_path.iterdir()) == []  # every failure aborted cleanly


def make_instance(n=24, m=40, seed=3):
    instance = random_instance(n, m, seed=seed)
    instance.metadata["alpha"] = 2
    instance.metadata["note"] = "streamed"
    return instance


class TestStreamingTextIO:
    def test_dump_is_byte_identical_to_dumps(self, tmp_path):
        instance = make_instance()
        path = dump_instance(instance, tmp_path / "inst.txt")
        assert path.read_text() == dumps_instance(instance)

    def test_round_trip_restores_everything(self, tmp_path):
        instance = make_instance()
        dump_instance(instance, tmp_path / "inst.txt")
        loaded = load_instance(tmp_path / "inst.txt")
        assert loaded.system == instance.system
        assert loaded.metadata == instance.metadata
        assert loaded.planted_opt == instance.planted_opt

    def test_string_and_file_parsers_agree(self, tmp_path):
        instance = make_instance(seed=9)
        path = dump_instance(instance, tmp_path / "inst.txt")
        from_text = loads_instance(path.read_text())
        from_file = load_instance(path)
        assert from_file.system == from_text.system
        assert from_file.metadata == from_text.metadata

    def test_large_m_round_trip(self, tmp_path):
        # Satellite regression: the streaming pair must handle a grid-scale m
        # and still restore the exact system and metadata.
        system = random_set_system(48, 20000, seed=17)
        instance = SetCoverInstance(system, metadata={"kind": "bulk", "rows": 20000})
        path = dump_instance(instance, tmp_path / "big.txt")
        loaded = load_instance(path)
        assert loaded.system.num_sets == 20000
        assert loaded.system.to_packed().buffer == system.to_packed().buffer
        assert loaded.metadata == instance.metadata

    def test_dump_memory_is_bounded_not_document_sized(self, tmp_path):
        # The streaming writer's peak allocation must stay far below the
        # document it writes — the whole point of not building the text.
        system = random_set_system(48, 20000, seed=17)
        instance = SetCoverInstance(system)
        path = tmp_path / "bounded.txt"
        tracemalloc.start()
        try:
            dump_instance(instance, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        document_bytes = path.stat().st_size
        assert document_bytes > 500_000  # the regression is only meaningful at scale
        assert peak < document_bytes // 4
