"""Instance sources: pluggable backings for the packed incidence buffer.

An :class:`InstanceSource` owns the packed ``uint64`` incidence buffer of a
set system (the :class:`~repro.setcover.instance.PackedSetSystem` wire
layout) plus the scalars needed to interpret it, behind one small read-only
windowed interface.  Three interchangeable backings:

* :class:`HeapSource` — today's in-memory path: the buffer is a ``bytes``
  object in this process's heap.
* :class:`SharedMemorySource` — the buffer lives in a named
  :mod:`multiprocessing.shared_memory` segment, published once and attached
  by many workers (this is what :mod:`repro.runtime.transport` builds on).
* :class:`MmapSource` — the buffer lives in a versioned on-disk container
  file (see `Container format`_) adopted zero-copy via :mod:`mmap`, so a
  process touches only the pages a query actually reads.

Every source serialises to a tiny picklable :class:`SourceDescriptor`
(kind + scalars + location + content digest) and reopens on the other side
via :func:`open_source`.  The digest is the same SHA-256 over the packed
buffer that task fingerprinting uses, so the content-addressed store's
skip/resume works identically across backings.

Container format
----------------
``REPROSC1`` magic (8 bytes), a little-endian ``uint64`` header length,
a space-padded UTF-8 JSON header (length a multiple of 8, so the data
section stays 8-byte aligned), then the packed incidence buffer exactly as
``PackedSetSystem.buffer`` lays it out.  The header records
``{version, universe_size, num_sets, backend, names, digest}`` where
``digest`` is the SHA-256 of the data section — written as a placeholder by
:class:`ContainerWriter` and patched in place on close, so the writer never
needs the whole buffer in memory.

Example — write a system to a container file and adopt it back zero-copy::

    >>> import tempfile, os
    >>> from repro.setcover.instance import SetSystem
    >>> system = SetSystem(4, [{0, 1}, {2, 3}])
    >>> path = os.path.join(tempfile.mkdtemp(), "tiny.repro")
    >>> descriptor = write_container(path, system.to_packed())
    >>> source = open_source(descriptor)
    >>> reloaded = SetSystem.from_source(source)
    >>> reloaded == system, reloaded.backing
    (True, 'mmap')
    >>> reloaded.content_digest() == system.content_digest()
    True
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import InstanceSourceLostError, SharedSegmentLostError
from repro.setcover.instance import PackedSetSystem, SetSystem, packed_row_bytes
from repro.utils.bitset import universe_mask

#: Magic prefix of the on-disk container format (8 bytes, version in name).
CONTAINER_MAGIC = b"REPROSC1"

#: Current container header version.
CONTAINER_VERSION = 1

#: Default number of rows an out-of-core consumer materialises at once.
#: Matches the generators' Bernoulli chunking so one window is ~8·n·1024 bits.
DEFAULT_CHUNK_ROWS = 1024

#: The recognised source kinds, in degrade order (heap always works).
SOURCE_KINDS = ("heap", "shared", "mmap")

_DIGEST_PLACEHOLDER = "0" * 64

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SourceDescriptor:
    """A picklable reference to an instance source.

    Only scalars (and, for the heap kind, the buffer itself) cross process
    boundaries; :func:`open_source` turns a descriptor back into a live
    source.  ``digest`` is the SHA-256 of the packed buffer — the identity
    task fingerprints hash, carried so reopening never has to rescan the
    data to fingerprint it.
    """

    kind: str
    universe_size: int
    num_sets: int
    backend: str = "auto"
    names: Optional[Tuple[str, ...]] = None
    path: Optional[str] = None
    segment: Optional[str] = None
    digest: Optional[str] = None
    buffer: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {self.kind!r}; expected one of {SOURCE_KINDS}"
            )

    def location(self) -> str:
        """A human-readable location string for headers and traces."""
        if self.kind == "mmap":
            return str(self.path)
        if self.kind == "shared":
            return str(self.segment)
        return "<heap>"


def _with_attach_faults(key: str, attach: Callable[[], _T]) -> _T:
    """Run one source attach under the ``transport.attach`` injection point.

    The same fault/retry semantics :meth:`SharedSystemHandle.load` always
    had, now shared by every backing: no plan active → one direct call;
    under an active plan each attempt evaluates the injection point and
    transient failures (including :class:`InstanceSourceLostError` and
    :class:`SharedSegmentLostError`) retry under the ambient policy.
    Attaching never mutates anything, so retrying is free of side effects.
    """
    from repro.resilience.faults import current_attempt, faults_enabled, inject

    if not faults_enabled():
        return attach()

    from repro.resilience.policy import policy_from_env, retry_call

    def attach_once(relative: int) -> _T:
        inject("transport.attach", key=key, attempt=current_attempt() + relative)
        return attach()

    return retry_call(attach_once, policy=policy_from_env(), path=("attach", key))


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------
class InstanceSource:
    """Read-only windowed access to one packed incidence buffer.

    Subclasses provide :meth:`view` (the full buffer as a read-only
    memoryview) and :meth:`descriptor`; everything else — row windows,
    chunk iteration, mask decoding, digesting — is shared.  ``windowed``
    distinguishes backings whose buffer should *not* be assumed resident
    (shared memory, mmap): consumers route those through the chunked kernel
    so no query materialises more than a bounded window.
    """

    kind: str = "heap"
    windowed: bool = False

    def __init__(
        self,
        universe_size: int,
        num_sets: int,
        names: Optional[Tuple[str, ...]] = None,
        backend: str = "auto",
        digest: Optional[str] = None,
    ) -> None:
        if universe_size < 0 or num_sets < 0:
            raise ValueError("universe_size and num_sets must be non-negative")
        self._universe_size = universe_size
        self._num_sets = num_sets
        self._names = tuple(names) if names is not None else None
        self._backend = backend
        self._digest = digest

    # -- metadata ----------------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Universe size n."""
        return self._universe_size

    @property
    def num_sets(self) -> int:
        """Number of sets m."""
        return self._num_sets

    @property
    def names(self) -> Optional[Tuple[str, ...]]:
        """Per-set names, or None for the default ``S0, S1, ...`` naming."""
        return self._names

    @property
    def backend(self) -> str:
        """The compute-kernel request carried with the buffer."""
        return self._backend

    @property
    def row_bytes(self) -> int:
        """Bytes per set row (uint64-aligned, see :func:`packed_row_bytes`)."""
        return packed_row_bytes(self._universe_size)

    @property
    def buffer_bytes(self) -> int:
        """Total size of the packed incidence buffer."""
        return self._num_sets * self.row_bytes

    # -- data access -------------------------------------------------------
    def view(self) -> memoryview:
        """The full packed buffer as a read-only memoryview."""
        raise NotImplementedError

    def row_view(self, start: int, stop: int) -> memoryview:
        """Rows ``[start, stop)`` of the packed buffer (read-only, no copy)."""
        if not 0 <= start <= stop <= self._num_sets:
            raise ValueError(
                f"row window [{start}, {stop}) out of range [0, {self._num_sets}]"
            )
        stride = self.row_bytes
        return self.view()[start * stride : stop * stride]

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[int, int, memoryview]]:
        """Yield ``(start_row, rows, view)`` windows covering the buffer."""
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        for start in range(0, self._num_sets, chunk_rows):
            stop = min(start + chunk_rows, self._num_sets)
            yield start, stop - start, self.row_view(start, stop)

    def mask_at(self, index: int) -> int:
        """Decode the bitset mask of one set row."""
        if not 0 <= index < self._num_sets:
            raise IndexError(f"set index {index} out of range [0, {self._num_sets})")
        return int.from_bytes(self.row_view(index, index + 1), "little")

    def digest(self) -> str:
        """SHA-256 of the packed buffer (chunked scan; cached)."""
        if self._digest is None:
            digest = hashlib.sha256()
            for _, _, view in self.iter_chunks():
                digest.update(view)
            self._digest = digest.hexdigest()
        return self._digest

    # -- conversion --------------------------------------------------------
    def to_packed(self) -> PackedSetSystem:
        """Materialise the full buffer as a :class:`PackedSetSystem`.

        Deliberately the *only* way to get the whole buffer into one bytes
        object — out-of-core callers should use :meth:`iter_chunks` instead.
        """
        return PackedSetSystem(
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            buffer=bytes(self.view()),
            names=self._names,
            backend=self._backend,
        )

    def system(self, backend: Optional[str] = None) -> SetSystem:
        """Build a :class:`SetSystem` over this source (see ``from_source``)."""
        return SetSystem.from_source(self, backend=backend)

    def descriptor(self) -> SourceDescriptor:
        """The picklable reference that reopens this source elsewhere."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any OS resources (idempotent; heap sources are a no-op)."""

    def __enter__(self) -> "InstanceSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._universe_size}, m={self._num_sets}, "
            f"kind={self.kind!r})"
        )


class HeapSource(InstanceSource):
    """The in-memory backing: the packed buffer is a ``bytes`` in this heap."""

    kind = "heap"
    windowed = False

    def __init__(
        self,
        universe_size: int,
        num_sets: int,
        buffer: bytes,
        names: Optional[Tuple[str, ...]] = None,
        backend: str = "auto",
        digest: Optional[str] = None,
    ) -> None:
        super().__init__(universe_size, num_sets, names, backend, digest)
        if not isinstance(buffer, bytes):
            buffer = bytes(buffer)
        if len(buffer) != self.buffer_bytes:
            raise ValueError(
                f"heap buffer holds {len(buffer)} bytes, expected {self.buffer_bytes}"
            )
        self._buffer = buffer

    @classmethod
    def from_packed(cls, packed: PackedSetSystem, digest: Optional[str] = None) -> "HeapSource":
        """Adopt a packed system's buffer without copying."""
        return cls(
            packed.universe_size,
            packed.num_sets,
            packed.buffer,
            names=packed.names,
            backend=packed.backend,
            digest=digest,
        )

    def view(self) -> memoryview:
        return memoryview(self._buffer)

    def to_packed(self) -> PackedSetSystem:
        # The buffer is already resident bytes — adopt it, never copy.
        return PackedSetSystem(
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            buffer=self._buffer,
            names=self._names,
            backend=self._backend,
        )

    def descriptor(self) -> SourceDescriptor:
        return SourceDescriptor(
            kind="heap",
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            backend=self._backend,
            names=self._names,
            digest=self.digest(),
            buffer=self._buffer,
        )


class SharedMemorySource(InstanceSource):
    """The shared-memory backing: one segment published once, attached by many.

    Create the owner side with :meth:`publish` (which copies the packed
    buffer into a fresh segment and will unlink it on :meth:`close`); the
    worker side reopens the descriptor with :meth:`attach` (attach-only —
    its :meth:`close` detaches without unlinking).
    """

    kind = "shared"
    windowed = True

    def __init__(
        self,
        shm,
        universe_size: int,
        num_sets: int,
        names: Optional[Tuple[str, ...]] = None,
        backend: str = "auto",
        digest: Optional[str] = None,
        owner: bool = False,
    ) -> None:
        super().__init__(universe_size, num_sets, names, backend, digest)
        self._shm = shm
        self._owner = owner
        self._view: Optional[memoryview] = None
        self._closed = False

    @property
    def segment(self) -> str:
        """The shared-memory segment name."""
        return self._shm.name

    @classmethod
    def publish(cls, packed: PackedSetSystem) -> "SharedMemorySource":
        """Copy ``packed``'s buffer into a fresh segment and own it."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, len(packed.buffer)))
        shm.buf[: len(packed.buffer)] = packed.buffer
        return cls(
            shm,
            packed.universe_size,
            packed.num_sets,
            names=packed.names,
            backend=packed.backend,
            digest=hashlib.sha256(packed.buffer).hexdigest(),
            owner=True,
        )

    @classmethod
    def attach(cls, descriptor: SourceDescriptor) -> "SharedMemorySource":
        """Attach to a published segment (fault-aware, never mutates).

        A segment that is already gone — the publisher closed first, or died
        and republished under a new name — raises the typed, retryable
        :class:`~repro.exceptions.SharedSegmentLostError`.
        """
        if descriptor.segment is None:
            raise ValueError("shared descriptor is missing its segment name")

        def attach_once() -> "SharedMemorySource":
            return cls._attach_segment(descriptor)

        return _with_attach_faults(descriptor.segment, attach_once)

    @classmethod
    def _attach_segment(cls, descriptor: SourceDescriptor) -> "SharedMemorySource":
        from multiprocessing import shared_memory

        # Attaching must not register the segment with multiprocessing's
        # resource tracker (cpython #82300: close() never unregisters on
        # Python < 3.13).  A registration here either leaks "leaked
        # shared_memory" shutdown noise (spawned worker, own tracker) or —
        # under fork, where every worker shares the parent's tracker —
        # races unregister messages against other attachers and the
        # publisher's unlink, crashing the tracker loop with a KeyError.
        # Only the publisher owns the segment, so the attach side suppresses
        # registration outright instead of unregistering after the fact.
        try:
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
        except Exception:  # pragma: no cover - tracker-less platforms
            original_register = None
        try:
            shm = shared_memory.SharedMemory(name=descriptor.segment)
        except FileNotFoundError:
            raise SharedSegmentLostError(str(descriptor.segment)) from None
        finally:
            if original_register is not None:
                resource_tracker.register = original_register
        return cls(
            shm,
            descriptor.universe_size,
            descriptor.num_sets,
            names=descriptor.names,
            backend=descriptor.backend,
            digest=descriptor.digest,
            owner=False,
        )

    def view(self) -> memoryview:
        if self._closed:
            raise ValueError("shared-memory source is closed")
        if self._view is None:
            self._view = memoryview(self._shm.buf)[: self.buffer_bytes].toreadonly()
        return self._view

    def descriptor(self) -> SourceDescriptor:
        return SourceDescriptor(
            kind="shared",
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            backend=self._backend,
            names=self._names,
            digest=self.digest(),
            segment=self.segment,
        )

    def close(self) -> None:
        """Detach (and unlink, when this side published) — idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._view is not None:
            self._view.release()
            self._view = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


class MmapSource(InstanceSource):
    """The file backing: a container file adopted zero-copy via ``mmap``.

    The OS pages rows in on demand, so many processes can solve against the
    same multi-gigabyte instance while each keeps only its working window
    resident.  The header digest is trusted (the writer computed it over the
    data section), so fingerprinting a file-backed instance never rescans
    the buffer.
    """

    kind = "mmap"
    windowed = True

    def __init__(
        self,
        path: str,
        file,
        mapped: Optional[mmap.mmap],
        data_offset: int,
        universe_size: int,
        num_sets: int,
        names: Optional[Tuple[str, ...]] = None,
        backend: str = "auto",
        digest: Optional[str] = None,
    ) -> None:
        super().__init__(universe_size, num_sets, names, backend, digest)
        self._path = path
        self._file = file
        self._mapped = mapped
        self._data_offset = data_offset
        self._view: Optional[memoryview] = None
        self._closed = False

    @property
    def path(self) -> str:
        """Filesystem path of the container file."""
        return self._path

    @classmethod
    def open(cls, path: str) -> "MmapSource":
        """Open a container file (fault-aware; see `transport.attach`).

        A path that is gone (or torn mid-write) raises the typed, retryable
        :class:`~repro.exceptions.InstanceSourceLostError` — opening never
        mutates anything, so the ambient retry policy can simply try again.
        A row with a bit set past the universe raises :class:`ValueError`,
        exactly as :meth:`SetSystem.from_packed` does on the same bytes.
        """
        return _with_attach_faults(str(path), lambda: cls._open_path(str(path)))

    @classmethod
    def _open_path(cls, path: str) -> "MmapSource":
        try:
            header, data_offset = read_container_header(path)
            file = open(path, "rb")
        except FileNotFoundError:
            raise InstanceSourceLostError(path) from None
        try:
            expected = header["num_sets"] * packed_row_bytes(header["universe_size"])
            actual = os.fstat(file.fileno()).st_size - data_offset
            if actual != expected:
                raise InstanceSourceLostError(
                    path, f"holds {actual} data bytes, expected {expected} (torn write?)"
                )
            # mmap refuses zero-length maps; an empty data section (m == 0
            # or n·m == 0) needs no mapping at all.
            mapped = (
                mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
                if expected
                else None
            )
        except Exception:
            file.close()
            raise
        names = header.get("names")
        source = cls(
            path,
            file,
            mapped,
            data_offset,
            header["universe_size"],
            header["num_sets"],
            names=tuple(names) if names is not None else None,
            backend=header.get("backend", "auto"),
            digest=header.get("digest"),
        )
        if expected and source.universe_size % 64:
            try:
                _check_padding(source.view(), source.num_sets, source.universe_size)
            except ValueError:
                source.close()
                raise
        return source

    def view(self) -> memoryview:
        if self._closed:
            raise ValueError(f"mmap source {self._path!r} is closed")
        if self._view is None:
            if self._mapped is None:
                self._view = memoryview(b"")
            else:
                self._view = memoryview(self._mapped)[
                    self._data_offset : self._data_offset + self.buffer_bytes
                ]
        return self._view

    def descriptor(self) -> SourceDescriptor:
        return SourceDescriptor(
            kind="mmap",
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            backend=self._backend,
            names=self._names,
            digest=self.digest(),
            path=self._path,
        )

    def close(self) -> None:
        """Release the mapping and close the file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mapped is not None:
            try:
                self._mapped.close()
            except BufferError:  # pragma: no cover - exported view still alive
                pass
            self._mapped = None
        self._file.close()


def _check_padding(view: memoryview, num_sets: int, universe_size: int) -> None:
    """Reject a packed buffer with any bit set at or past ``universe_size``.

    Such bits can only sit in the padding of each row's last word, so this
    is one streaming pass over those words: byte ``b`` of every row's last
    word is one strided slice, masked to that byte's padding bits.  Raises
    the :meth:`SetSystem.from_masks` error for the first offending row.
    """
    stride = packed_row_bytes(universe_size)
    used = universe_size % 64
    first = num_sets
    for byte in range(8):
        padding = (0xFF << max(0, used - 8 * byte)) & 0xFF
        if padding:
            column = bytes(view[stride - 8 + byte :: stride])
            masked = column.translate(bytes(value & padding for value in range(256)))
            first = min(first, num_sets - len(masked.lstrip(b"\0")))
    if first < num_sets:
        raise ValueError(
            f"mask {first} contains elements outside the universe [0, {universe_size})"
        )


def open_source(descriptor: SourceDescriptor) -> InstanceSource:
    """Reopen a :class:`SourceDescriptor` as a live source.

    The inverse of :meth:`InstanceSource.descriptor` — what pickled systems
    and dispatched shards call on the far side of a process boundary.
    """
    if descriptor.kind == "heap":
        if descriptor.buffer is None:
            raise ValueError("heap descriptor is missing its inline buffer")
        return HeapSource(
            descriptor.universe_size,
            descriptor.num_sets,
            descriptor.buffer,
            names=descriptor.names,
            backend=descriptor.backend,
            digest=descriptor.digest,
        )
    if descriptor.kind == "shared":
        return SharedMemorySource.attach(descriptor)
    if descriptor.kind == "mmap":
        if descriptor.path is None:
            raise ValueError("mmap descriptor is missing its path")
        return MmapSource.open(descriptor.path)
    raise ValueError(f"unknown source kind {descriptor.kind!r}")


# ---------------------------------------------------------------------------
# container file format
# ---------------------------------------------------------------------------
def _encode_header(
    universe_size: int,
    num_sets: int,
    backend: str,
    names: Optional[Tuple[str, ...]],
    digest: str,
) -> bytes:
    header = {
        "version": CONTAINER_VERSION,
        "universe_size": universe_size,
        "num_sets": num_sets,
        "backend": backend,
        "names": list(names) if names is not None else None,
        "digest": digest,
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    # Pad to an 8-byte boundary so the data section stays uint64-aligned.
    padding = (-len(encoded)) % 8
    return encoded + b" " * padding


def read_container_header(path: str) -> Tuple[dict, int]:
    """Parse a container file's header; return ``(header, data_offset)``."""
    with open(path, "rb") as handle:
        magic = _read_exact(handle, len(CONTAINER_MAGIC))
        if magic != CONTAINER_MAGIC:
            raise ValueError(
                f"{path!r} is not a repro instance container "
                f"(bad magic {magic!r}, expected {CONTAINER_MAGIC!r})"
            )
        header_len = int.from_bytes(_read_exact(handle, 8), "little")
        if header_len <= 0 or header_len > 1 << 24:
            raise ValueError(f"{path!r} has an implausible header length {header_len}")
        try:
            header = json.loads(_read_exact(handle, header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path!r} has a corrupt container header: {exc}") from None
    version = header.get("version")
    if version != CONTAINER_VERSION:
        raise ValueError(
            f"{path!r} has container version {version!r}; "
            f"this build reads version {CONTAINER_VERSION}"
        )
    for key in ("universe_size", "num_sets"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            raise ValueError(f"{path!r} header is missing a valid {key!r}")
    return header, len(CONTAINER_MAGIC) + 8 + header_len


def _read_exact(handle, count: int) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise ValueError("truncated container header")
    return data


class ContainerWriter:
    """Incremental writer for the container format (bounded peak memory).

    Rows are appended in packed wire form; the digest accumulates as they
    stream through, and :meth:`close` patches it into the header and
    atomically publishes the file (write-to-temp + ``os.replace``), so a
    reader never observes a half-written container under the final name.
    """

    def __init__(
        self,
        path: str,
        universe_size: int,
        num_sets: int,
        names: Optional[Sequence[str]] = None,
        backend: str = "auto",
    ) -> None:
        if universe_size < 0 or num_sets < 0:
            raise ValueError("universe_size and num_sets must be non-negative")
        if names is not None and len(names) != num_sets:
            raise ValueError("names must have one entry per set")
        self._path = str(path)
        self._tmp_path = self._path + ".tmp"
        self._universe_size = universe_size
        self._num_sets = num_sets
        self._names = tuple(names) if names is not None else None
        self._backend = backend
        self._row_bytes = packed_row_bytes(universe_size)
        self._rows_written = 0
        self._hash = hashlib.sha256()
        self._digest: Optional[str] = None
        self._closed = False

        header = _encode_header(
            universe_size, num_sets, backend, self._names, _DIGEST_PLACEHOLDER
        )
        token = '"digest": "' + _DIGEST_PLACEHOLDER
        # magic + length word + offset of the hex digits inside the header.
        self._digest_offset = (
            len(CONTAINER_MAGIC) + 8 + header.index(token.encode("utf-8")) + len('"digest": "')
        )
        self._file = open(self._tmp_path, "wb")
        try:
            self._file.write(CONTAINER_MAGIC)
            self._file.write(len(header).to_bytes(8, "little"))
            self._file.write(header)
        except Exception:
            self.abort()
            raise

    @property
    def row_bytes(self) -> int:
        """Bytes per packed set row."""
        return self._row_bytes

    @property
    def rows_written(self) -> int:
        """Rows appended so far."""
        return self._rows_written

    def append_rows(self, data: bytes) -> None:
        """Append one or more packed rows (length multiple of ``row_bytes``)."""
        if self._closed:
            raise ValueError("container writer is closed")
        if len(data) % self._row_bytes:
            raise ValueError(
                f"row data of {len(data)} bytes is not a multiple of the "
                f"{self._row_bytes}-byte row stride"
            )
        rows = len(data) // self._row_bytes
        if self._rows_written + rows > self._num_sets:
            raise ValueError(
                f"appending {rows} rows would exceed the declared {self._num_sets}"
            )
        self._hash.update(data)
        self._file.write(data)
        self._rows_written += rows

    def append_masks(self, masks: Iterable[int]) -> None:
        """Append rows from bitset masks, packing each to the wire stride."""
        full = universe_mask(self._universe_size)
        stride = self._row_bytes
        for mask in masks:
            if mask & ~full:
                raise ValueError(
                    f"mask contains elements outside the universe [0, {self._universe_size})"
                )
            self.append_rows(mask.to_bytes(stride, "little"))

    def close(self) -> SourceDescriptor:
        """Finish: validate row count, patch the digest, publish atomically."""
        if self._closed:
            if self._digest is None:
                raise ValueError("container writer was aborted")
            return self._descriptor()
        if self._rows_written != self._num_sets:
            self.abort()
            raise ValueError(
                f"container declared {self._num_sets} sets but "
                f"{self._rows_written} rows were written"
            )
        self._closed = True
        self._digest = self._hash.hexdigest()
        self._file.seek(self._digest_offset)
        self._file.write(self._digest.encode("ascii"))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        os.replace(self._tmp_path, self._path)
        return self._descriptor()

    def abort(self) -> None:
        """Discard the partial temp file (idempotent; close() then fails)."""
        if self._closed and self._digest is not None:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            try:
                os.remove(self._tmp_path)
            except FileNotFoundError:
                pass

    def _descriptor(self) -> SourceDescriptor:
        return SourceDescriptor(
            kind="mmap",
            universe_size=self._universe_size,
            num_sets=self._num_sets,
            backend=self._backend,
            names=self._names,
            digest=self._digest,
            path=self._path,
        )

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_container(path: str, packed: PackedSetSystem) -> SourceDescriptor:
    """Write an in-memory packed system to a container file in one call."""
    writer = ContainerWriter(
        path,
        packed.universe_size,
        packed.num_sets,
        names=packed.names,
        backend=packed.backend,
    )
    with writer:
        writer.append_rows(packed.buffer)
    return writer.close()


# ---------------------------------------------------------------------------
# lazy system facade
# ---------------------------------------------------------------------------
class LazyMaskRows(Sequence):
    """A read-only ``Sequence[int]`` of set masks decoded on demand.

    Stands in for ``SetSystem._masks`` on source-backed systems: random
    access decodes one row; iteration decodes a bounded chunk at a time and
    keeps only the current window cached, so walking all m masks never
    materialises the full buffer as Python integers.
    """

    def __init__(self, source: InstanceSource, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self._source = source
        self._chunk_rows = max(1, chunk_rows)
        self._cache_start = -1
        self._cache: List[int] = []

    def __len__(self) -> int:
        return self._source.num_sets

    def _chunk_for(self, index: int) -> List[int]:
        start = (index // self._chunk_rows) * self._chunk_rows
        if start != self._cache_start:
            stop = min(start + self._chunk_rows, self._source.num_sets)
            self._cache = _decode_rows(
                self._source.row_view(start, stop), self._source.row_bytes
            )
            self._cache_start = start
        return self._cache

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"set index out of range [0, {length})")
        return self._chunk_for(index)[index % self._chunk_rows]

    def __iter__(self) -> Iterator[int]:
        stride = self._source.row_bytes
        for _, _, view in self._source.iter_chunks(self._chunk_rows):
            yield from _decode_rows(view, stride)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


def _decode_rows(view: memoryview, stride: int) -> List[int]:
    data = bytes(view)
    return [
        int.from_bytes(data[offset : offset + stride], "little")
        for offset in range(0, len(data), stride)
    ]


class _DefaultNames(Sequence):
    """The ``S0, S1, ...`` naming as a constant-space sequence."""

    def __init__(self, count: int) -> None:
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"name index out of range [0, {self._count})")
        return f"S{index}"


class SourceBackedSetSystem(SetSystem):
    """A :class:`SetSystem` whose buffer stays in its (windowed) source.

    Behaviourally identical to an ordinary system — every query answers the
    same bits — but masks decode lazily through :class:`LazyMaskRows`,
    batched queries run on the chunked kernel, and pickling ships the tiny
    :class:`SourceDescriptor` instead of the buffer.  Built by
    ``SetSystem.from_source`` for windowed sources (shared memory, mmap).
    """

    def __init__(self, source: InstanceSource, backend: Optional[str] = None) -> None:
        self._n = source.universe_size
        self._backend = backend if backend is not None else source.backend
        self._kernel = None
        self._packed = None
        self._universe_mask = universe_mask(source.universe_size)
        self._source = source
        self._masks = LazyMaskRows(source)
        self._names = (
            list(source.names)
            if source.names is not None
            else _DefaultNames(source.num_sets)
        )

    @property
    def source(self) -> InstanceSource:
        """The backing source this system reads through."""
        return self._source

    @property
    def backing(self) -> str:
        """Which backing holds the buffer (``shared`` or ``mmap``)."""
        return self._source.kind

    def kernel(self):
        """The chunked compute kernel over the source (lazy, then cached)."""
        if self._kernel is None:
            from repro.kernels.chunked import make_source_kernel

            self._kernel = make_source_kernel(self._source, self._backend)
        return self._kernel

    def _default_names(self) -> bool:
        return self._source.names is None

    def coverage_mask(self, indices: Iterable[int]) -> int:
        # The base implementation splats one decoded mask per index into a
        # call tuple — O(len(indices)) resident ints, exactly what a
        # windowed system must avoid.  The full-range case (feasibility
        # checks, preprocessing) is one chunked kernel union; any other
        # selection folds through the row cache one mask at a time.
        if isinstance(indices, range) and indices == range(self._source.num_sets):
            return self.kernel().union()
        result = 0
        for index in indices:
            result |= self._masks[index]
        return result

    def content_digest(self) -> str:
        """The source digest — no buffer scan when the backing carries one."""
        return self._source.digest()

    def to_packed(self) -> PackedSetSystem:
        """Materialise the full buffer (documented escape hatch, not free)."""
        return PackedSetSystem(
            universe_size=self._n,
            num_sets=self._source.num_sets,
            buffer=bytes(self._source.view()),
            names=self._source.names,
            backend=self._backend,
        )

    def close(self) -> None:
        """Close the backing source (idempotent)."""
        self._source.close()

    def __getstate__(self):
        # Ship the descriptor, not the buffer: the far side reattaches to
        # the same segment/file, which is the whole point of the backing.
        return {"source": self._source.descriptor(), "backend": self._backend}

    def __repr__(self) -> str:
        return (
            f"SourceBackedSetSystem(n={self._n}, m={self._source.num_sets}, "
            f"backing={self._source.kind!r})"
        )


__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "DEFAULT_CHUNK_ROWS",
    "SOURCE_KINDS",
    "ContainerWriter",
    "HeapSource",
    "InstanceSource",
    "LazyMaskRows",
    "MmapSource",
    "SharedMemorySource",
    "SourceBackedSetSystem",
    "SourceDescriptor",
    "open_source",
    "read_container_header",
    "write_container",
]
