"""The instance plane: sources, the container format, and windowed kernels.

Contract under test: an instance is its packed bytes, wherever they live.
Heap, shared-memory, and mmap backings expose identical views, digests, and
solver behaviour; the container file round-trips through the chunked writer
bit-identically; and the windowed :class:`ChunkedKernel` matches the
resident kernels on every protocol method.
"""

from __future__ import annotations

import pickle

import pytest

import repro.kernels as kernels
from repro.exceptions import InstanceSourceLostError
from repro.kernels.chunked import ChunkedKernel
from repro.setcover.greedy import greedy_cover_trace, greedy_set_cover
from repro.setcover.instance import PackedSetSystem, SetSystem, packed_row_bytes
from repro.setcover.source import (
    CONTAINER_MAGIC,
    ContainerWriter,
    HeapSource,
    LazyMaskRows,
    MmapSource,
    SharedMemorySource,
    SourceBackedSetSystem,
    SourceDescriptor,
    open_source,
    read_container_header,
    write_container,
)
from repro.workloads.random_instances import random_instance, random_set_system

BACKENDS = ["python"] + (["numpy"] if kernels.HAS_NUMPY else [])


def sample_system(n=48, m=20, seed=3) -> SetSystem:
    return random_instance(n, m, density=0.15, seed=seed).system


@pytest.fixture
def container(tmp_path):
    system = sample_system()
    path = tmp_path / "inst.repro"
    write_container(path, system.to_packed())
    return path, system


class TestContainerFormat:
    def test_header_round_trips(self, container):
        path, system = container
        header, data_offset = read_container_header(path)
        assert header["universe_size"] == system.universe_size
        assert header["num_sets"] == system.num_sets
        assert data_offset % 8 == 0
        size = path.stat().st_size
        assert size == data_offset + len(system.to_packed().buffer)

    def test_digest_is_patched_not_placeholder(self, container):
        path, system = container
        header, _ = read_container_header(path)
        assert header["digest"] == system.content_digest()
        assert set(header["digest"]) != {"0"}

    def test_bad_magic_rejected(self, tmp_path, container):
        path, _ = container
        data = path.read_bytes()
        bad = tmp_path / "bad.repro"
        bad.write_bytes(b"NOTMAGIC" + data[len(CONTAINER_MAGIC):])
        with pytest.raises(ValueError, match="magic"):
            read_container_header(bad)

    def test_truncated_data_is_a_lost_source(self, tmp_path, container):
        path, _ = container
        data = path.read_bytes()
        torn = tmp_path / "torn.repro"
        torn.write_bytes(data[:-8])
        with pytest.raises(InstanceSourceLostError):
            MmapSource.open(torn)

    def test_missing_file_is_a_lost_source(self, tmp_path):
        with pytest.raises(InstanceSourceLostError):
            MmapSource.open(tmp_path / "nope.repro")

    def test_writer_publishes_atomically(self, tmp_path):
        system = sample_system()
        path = tmp_path / "atomic.repro"
        writer = ContainerWriter(path, system.universe_size, system.num_sets)
        writer.append_rows(system.to_packed().buffer)
        assert not path.exists()  # nothing visible until close
        descriptor = writer.close()
        assert path.exists()
        assert descriptor.digest == system.content_digest()
        assert list(tmp_path.iterdir()) == [path]  # no .tmp leftovers

    def test_writer_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "aborted.repro"
        writer = ContainerWriter(path, 16, 4)
        writer.append_masks([1, 2])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_rejects_overfill_and_short_close(self, tmp_path):
        path = tmp_path / "strict.repro"
        with ContainerWriter(path, 16, 2) as writer:
            writer.append_masks([1, 2])
            with pytest.raises(ValueError):
                writer.append_masks([3])

        writer = ContainerWriter(tmp_path / "short.repro", 16, 2)
        writer.append_masks([1])
        with pytest.raises(ValueError):
            writer.close()
        writer.abort()

    def test_writer_rejects_out_of_universe_mask(self, tmp_path):
        writer = ContainerWriter(tmp_path / "oob.repro", 4, 1)
        with pytest.raises(ValueError):
            writer.append_masks([1 << 4])
        writer.abort()

    def test_padding_bit_past_universe_rejected_like_from_packed(self, tmp_path):
        """A bit in a row's padding is refused on open, with the error the
        resident path raises on the same bytes."""
        rows = [0b1011, (1 << 100) | 1]  # element 100 in a universe of 70
        buffer = b"".join(mask.to_bytes(packed_row_bytes(70), "little") for mask in rows)
        path = tmp_path / "padded.repro"
        with ContainerWriter(path, 70, len(rows)) as writer:
            writer.append_rows(buffer)
        with pytest.raises(ValueError) as resident:
            SetSystem.from_packed(PackedSetSystem(70, len(rows), buffer))
        with pytest.raises(ValueError) as windowed:
            MmapSource.open(path)
        assert str(windowed.value) == str(resident.value)
        assert "outside the universe [0, 70)" in str(windowed.value)


def open_all_backings(system, tmp_path):
    """One source per backing kind, all over the same packed bytes."""
    packed = system.to_packed()
    path = tmp_path / "backings.repro"
    write_container(path, packed)
    return [
        HeapSource.from_packed(packed),
        MmapSource.open(path),
        SharedMemorySource.publish(packed),
    ]


class TestBackingEquivalence:
    def test_views_digests_and_masks_agree(self, tmp_path):
        system = sample_system()
        packed = system.to_packed()
        sources = open_all_backings(system, tmp_path)
        try:
            for source in sources:
                assert bytes(source.view()) == packed.buffer
                assert source.digest() == system.content_digest()
                assert [source.mask_at(i) for i in range(system.num_sets)] == system.masks()
        finally:
            for source in sources:
                source.close()

    def test_descriptor_reopens_every_kind(self, tmp_path):
        system = sample_system()
        sources = open_all_backings(system, tmp_path)
        try:
            for source in sources:
                descriptor = source.descriptor()
                assert descriptor.kind == source.kind
                with open_source(descriptor) as reopened:
                    assert bytes(reopened.view()) == system.to_packed().buffer
        finally:
            for source in sources:
                source.close()

    def test_iter_chunks_covers_buffer_exactly(self, tmp_path):
        system = sample_system(n=70, m=33)
        path = tmp_path / "chunks.repro"
        write_container(path, system.to_packed())
        with MmapSource.open(path) as source:
            rebuilt = b"".join(
                bytes(view) for _, _, view in source.iter_chunks(chunk_rows=5)
            )
            assert rebuilt == system.to_packed().buffer

    def test_shared_source_lifecycle(self):
        system = sample_system()
        owner = SharedMemorySource.publish(system.to_packed())
        descriptor = owner.descriptor()
        attached = SharedMemorySource.attach(descriptor)
        assert bytes(attached.view()) == system.to_packed().buffer
        attached.close()  # detach only
        assert bytes(owner.view()) == system.to_packed().buffer
        owner.close()  # owner close unlinks

    def test_empty_system_round_trips(self, tmp_path):
        system = SetSystem(5, [])
        path = tmp_path / "empty.repro"
        write_container(path, system.to_packed())
        with MmapSource.open(path) as source:
            assert source.num_sets == 0
            assert source.system() == system


class TestPickleNoCopy:
    """Satellite: pickling a packed-backed system must not duplicate the buffer."""

    def test_from_packed_adopts_buffer(self):
        packed = sample_system().to_packed()
        system = SetSystem.from_packed(packed)
        assert system.to_packed().buffer is packed.buffer

    def test_pickle_carries_buffer_exactly_once(self):
        # Large enough that a duplicated incidence buffer would dominate the
        # pickle size; a distinctive row appearing twice means a double copy.
        system = SetSystem.from_packed(random_set_system(64, 4096, seed=9).to_packed())
        buffer = system.to_packed().buffer
        blob = pickle.dumps(system)
        assert len(blob) < len(buffer) + 4096
        probe = buffer[: packed_row_bytes(64) * 8]
        assert blob.count(probe) == 1

    def test_round_trip_preserves_bytes(self):
        system = sample_system()
        clone = pickle.loads(pickle.dumps(system))
        assert clone == system
        assert clone.to_packed().buffer == system.to_packed().buffer


class TestSourceBackedSetSystem:
    def test_matches_resident_system(self, tmp_path):
        system = sample_system()
        path = tmp_path / "sys.repro"
        system.to_file(path)
        windowed = SetSystem.from_source(MmapSource.open(path))
        assert isinstance(windowed, SourceBackedSetSystem)
        assert windowed.backing == "mmap"
        assert windowed.universe_size == system.universe_size
        assert windowed.masks() == system.masks()
        assert windowed == system
        assert windowed.content_digest() == system.content_digest()
        windowed.close()

    def test_greedy_identical_to_resident(self, tmp_path):
        system = sample_system(n=40, m=30, seed=11)
        path = tmp_path / "greedy.repro"
        system.to_file(path)
        windowed = SetSystem.from_source(MmapSource.open(path))
        coverable = system.coverage_mask(range(system.num_sets))
        expected = greedy_set_cover(system, required_mask=coverable)
        assert greedy_set_cover(windowed, required_mask=coverable) == expected
        windowed.close()

    def test_pickles_as_descriptor_not_buffer(self, tmp_path):
        system = sample_system(n=64, m=2048, seed=5)
        path = tmp_path / "big.repro"
        system.to_file(path)
        windowed = SetSystem.from_source(MmapSource.open(path))
        blob = pickle.dumps(windowed)
        assert len(blob) < 2000  # a descriptor, not 2048 rows of buffer
        clone = pickle.loads(blob)
        assert clone.backing == "mmap"
        assert clone.content_digest() == system.content_digest()
        assert clone.masks() == system.masks()
        clone.close()
        windowed.close()

    def test_heap_backing_reports_heap(self):
        assert sample_system().backing == "heap"


class TestLazyMaskRows:
    def test_indexing_slicing_iteration(self, tmp_path):
        system = sample_system(n=30, m=17)
        path = tmp_path / "lazy.repro"
        system.to_file(path)
        with MmapSource.open(path) as source:
            rows = LazyMaskRows(source, chunk_rows=4)
            masks = system.masks()
            assert len(rows) == len(masks)
            assert list(rows) == masks
            assert rows[0] == masks[0]
            assert rows[-1] == masks[-1]
            assert rows[3:9] == masks[3:9]
            assert rows == masks
            with pytest.raises(IndexError):
                rows[len(masks)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestChunkedKernelParity:
    """The windowed kernel must match the resident kernel on every method."""

    def make_pair(self, tmp_path, backend, n=50, m=23, seed=13):
        system = random_instance(n, m, density=0.2, seed=seed).system
        path = tmp_path / f"kern-{backend}.repro"
        system.to_file(path)
        source = MmapSource.open(path)
        chunked = ChunkedKernel(source, backend=backend, chunk_rows=4)
        resident = kernels.make_kernel(
            system.universe_size, system.masks(), backend=backend
        )
        return system, source, chunked, resident

    def test_all_methods_agree(self, tmp_path, backend):
        system, source, chunked, resident = self.make_pair(tmp_path, backend)
        uncovered = (1 << system.universe_size) - 1
        try:
            assert chunked.gains(uncovered) == resident.gains(uncovered)
            assert chunked.best_gain_index(uncovered) == resident.best_gain_index(uncovered)
            assert chunked.element_frequencies() == resident.element_frequencies()
            assert chunked.union() == resident.union()
            assert chunked.set_sizes() == resident.set_sizes()
            assert chunked.element_lists() == resident.element_lists()
            assert chunked.element_lists([0, 2]) == resident.element_lists([0, 2])
            assert chunked.packed_bytes() == system.to_packed().buffer
            keys = chunked.set_sizes()
            assert chunked.claim_resolution(keys) == resident.claim_resolution(keys)
        finally:
            source.close()

    def test_tracker_greedy_trace_identical(self, tmp_path, backend):
        system, source, chunked, _ = self.make_pair(tmp_path, backend, seed=21)
        try:
            windowed = SetSystem.from_source(
                MmapSource.open(tmp_path / f"kern-{backend}.repro"), backend=backend
            )
            coverable = system.coverage_mask(range(system.num_sets))
            expected = greedy_cover_trace(system, required_mask=coverable)
            actual = greedy_cover_trace(windowed, required_mask=coverable)
            assert actual.solution == expected.solution
            assert actual.steps == expected.steps
            windowed.close()
        finally:
            source.close()

    def test_empty_and_degenerate_cases(self, tmp_path, backend):
        path = tmp_path / f"deg-{backend}.repro"
        SetSystem(6, []).to_file(path)
        with MmapSource.open(path) as source:
            kernel = ChunkedKernel(source, backend=backend)
            assert kernel.best_gain_index(63) == (-1, 0)
            assert kernel.gains(63) == []
            assert kernel.union() == 0
            assert kernel.element_frequencies() == [0] * 6
