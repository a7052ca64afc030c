"""Plain-text serialisation of set cover instances.

The format is the conventional one used by set cover benchmark collections
(and convenient to produce from logs): a header line ``n m`` followed by one
line per set listing its elements as whitespace-separated integers.  Lines
starting with ``#`` are comments; metadata (planted optimum, workload kind,
and every other JSON-representable metadata entry) is stored in comments so
round-trips preserve it.

Two I/O paths share one line format: the string pair
:func:`dumps_instance` / :func:`loads_instance`, and the **streaming** file
pair :func:`dump_instance` / :func:`load_instance`, which write set rows
incrementally and parse line-by-line — neither ever holds the full text in
memory, so serialising an m ≈ 10⁶ instance costs one row of buffer, not
the whole multi-megabyte document.

Example::

    # planted_opt: 3
    # kind: dsc
    # meta theta: 1
    # meta alpha: 2
    6 3
    0 1 2
    2 3 4
    4 5
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.utils.bitset import MAX_UNIVERSE_SIZE, check_instance_bits

PathLike = Union[str, Path]

_METADATA_PREFIX = "# planted_opt:"
_KIND_PREFIX = "# kind:"
_META_PREFIX = "# meta "


def _header_lines(instance: SetCoverInstance) -> Iterator[str]:
    """The comment/metadata/header lines, exactly as they serialise."""
    if instance.planted_opt is not None:
        yield f"{_METADATA_PREFIX} {instance.planted_opt}"
    kind = instance.metadata.get("kind")
    if kind:
        yield f"{_KIND_PREFIX} {kind}"
    for key, value in instance.metadata.items():
        if key == "kind":
            continue
        if not key or ":" in key or "\n" in key:
            # The line format partitions at the first ':'; such a key would
            # serialise fine but fail (or mis-parse) on load, breaking the
            # round-trip promise — reject it at write time.
            raise ValueError(f"metadata key {key!r} cannot be serialised")
        try:
            encoded = json.dumps(value)
        except TypeError as error:
            raise ValueError(
                f"metadata value for {key!r} cannot be serialised: {error}"
            ) from error
        if json.loads(encoded) != value:
            # E.g. a tuple would silently come back as a list; refuse rather
            # than break the exact-round-trip promise.
            raise ValueError(
                f"metadata value for {key!r} does not survive a JSON round-trip"
            )
        yield f"{_META_PREFIX}{key}: {encoded}"
    system = instance.system
    yield f"{system.universe_size} {system.num_sets}"


def _set_lines(system: SetSystem) -> Iterator[str]:
    """One line per set, lazily — never the whole document at once."""
    for index in range(system.num_sets):
        elements = sorted(system.elements(index))
        # An empty set is written as "-" so the line is not lost on parsing.
        yield " ".join(str(e) for e in elements) if elements else "-"


def _instance_lines(instance: SetCoverInstance) -> Iterator[str]:
    yield from _header_lines(instance)
    yield from _set_lines(instance.system)


def dumps_instance(instance: SetCoverInstance) -> str:
    """Serialise an instance to the plain-text format.

    The whole ``metadata`` dict is written: ``kind`` keeps its legacy
    comment line, every other entry becomes a ``# meta <key>: <json>`` line
    (in insertion order), so :func:`loads_instance` restores the dict
    exactly for JSON-representable values.
    """
    return "\n".join(_instance_lines(instance)) + "\n"


def _parse_instance_lines(lines: Iterable[str]) -> SetCoverInstance:
    """Parse the line format incrementally, restoring all metadata.

    Set rows become bitset masks as they stream past — the parser holds one
    line plus m integer masks, never the full document, so file-backed
    loading is memory-bounded by the instance itself.
    """
    planted_opt: Optional[int] = None
    kind: Optional[str] = None
    extra_metadata: List[tuple] = []
    header: Optional[List[str]] = None
    universe_size = 0
    num_sets = 0
    sets: List[List[int]] = []
    for raw_line in lines:
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(_METADATA_PREFIX):
            planted_opt = int(line[len(_METADATA_PREFIX):].strip())
            continue
        if line.startswith(_KIND_PREFIX):
            kind = line[len(_KIND_PREFIX):].strip()
            continue
        if line.startswith(_META_PREFIX):
            body = line[len(_META_PREFIX):]
            key, sep, encoded = body.partition(":")
            if not sep:
                raise ValueError(f"malformed metadata line {line!r}")
            try:
                value = json.loads(encoded.strip())
            except RecursionError:
                raise ValueError(f"metadata line nests too deeply: {line[:40]!r}...") from None
            extra_metadata.append((key.strip(), value))
            continue
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split()
            if len(header) != 2:
                raise ValueError(f"header must be 'n m', got {line!r}")
            universe_size, num_sets = int(header[0]), int(header[1])
            if universe_size > MAX_UNIVERSE_SIZE:
                raise ValueError(
                    f"universe size {universe_size} exceeds the limit {MAX_UNIVERSE_SIZE}"
                )
            check_instance_bits(universe_size, num_sets)
            continue
        row = [int(token) for token in line.split()] if line != "-" else []
        # Checked here: SetSystem would build the bitset 1 << element first.
        if row and (min(row) < 0 or max(row) >= universe_size):
            raise ValueError(
                f"set {len(sets)} contains elements outside the universe [0, {universe_size})"
            )
        sets.append(row)
    if header is None:
        raise ValueError("no instance data found")
    if len(sets) != num_sets:
        raise ValueError(
            f"header declares {num_sets} sets but {len(sets)} set lines found"
        )
    system = SetSystem(universe_size, sets)
    metadata = {"kind": kind} if kind else {}
    metadata.update(extra_metadata)
    return SetCoverInstance(system, planted_opt=planted_opt, metadata=metadata)


def loads_instance(text: str) -> SetCoverInstance:
    """Parse an instance from the plain-text format, restoring all metadata."""
    return _parse_instance_lines(text.splitlines())


def dump_instance(instance: SetCoverInstance, path: PathLike) -> Path:
    """Stream an instance to a file, one set row at a time.

    Byte-identical output to ``save_instance`` (which now delegates here),
    without ever materialising the full text: the writer's peak memory is
    one row line regardless of m.
    """
    path = Path(path)
    with path.open("w") as handle:
        for line in _instance_lines(instance):
            handle.write(line)
            handle.write("\n")
    return path


def save_instance(instance: SetCoverInstance, path: PathLike) -> Path:
    """Write an instance to a file and return the path."""
    return dump_instance(instance, path)


def load_instance(path: PathLike) -> SetCoverInstance:
    """Read an instance previously written by :func:`save_instance`.

    Streams the file line-by-line through the same parser the string form
    uses — no full-text read, so loading is memory-bounded by the instance
    rather than the document.
    """
    with Path(path).open("r") as handle:
        return _parse_instance_lines(handle)
