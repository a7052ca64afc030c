"""Hot-instance specs: the ``repro serve --instance NAME=SPEC`` grammar.

A served instance is named and described by a compact spec string so a
service, a load generator, and a parity test can all build **the same**
system independently (generation is a pure function of the spec)::

    hot=random:n=128,m=256,seed=7
    planted=planted:n=96,m=192,cover=8,seed=3

Grammar: ``NAME=GENERATOR:key=value,...``.  Generators:

=============  ==========================================================
``random``     :func:`~repro.workloads.random_instances.random_set_system`
               — keys ``n``, ``m``, optional ``density`` / ``set_size``,
               ``seed``
``planted``    :func:`~repro.workloads.random_instances.plant_cover_instance`
               — keys ``n``, ``m``, ``cover`` (planted optimum), optional
               ``overlap``, ``seed``
``file``       a container file written by
               :func:`~repro.workloads.outofcore.generate_to_file` or
               :func:`~repro.setcover.source.write_container` — key
               ``path`` (required); the file is opened windowed off disk
=============  ==========================================================

A spec names the instance only: no key picks a compute kernel or a
backing.  Every process picks its own kernel, and ``repro serve``
publishes each instance into shared memory for its workers whatever the
spec built.

Example — specs are deterministic and name-addressable::

    >>> name, system = build_instance("hot=random:n=32,m=16,seed=5")
    >>> name, system.universe_size, system.num_sets
    ('hot', 32, 16)
    >>> _, again = build_instance("hot=random:n=32,m=16,seed=5")
    >>> system.to_packed().buffer == again.to_packed().buffer
    True
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.setcover.instance import SetSystem
from repro.utils.bitset import MAX_UNIVERSE_SIZE, check_instance_bits

#: The default spec ``repro serve`` uses when no ``--instance`` is given.
#: Sized so every request kind — including ``estimate``, whose multi-pass
#: machinery grows steeply with the universe — answers in well under a
#: second; larger instances are an explicit ``--instance`` decision.
DEFAULT_INSTANCE_SPEC = "hot=random:n=48,m=64,seed=7"


class InstanceSpecError(ValueError):
    """A malformed or unknown instance spec string."""


def _parse_kv(clauses: str) -> Dict[str, Any]:
    options: Dict[str, Any] = {}
    for raw in clauses.split(","):
        clause = raw.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        if not sep:
            raise InstanceSpecError(f"bad instance option {clause!r}; expected key=value")
        options[key.strip()] = value.strip()
    return options


def _as_int(options: Dict[str, Any], key: str, required: bool = False, default: int = 0) -> int:
    if key not in options:
        if required:
            raise InstanceSpecError(f"instance spec is missing required key {key!r}")
        return default
    try:
        return int(options[key])
    except ValueError:
        raise InstanceSpecError(f"instance key {key!r} must be an integer, got {options[key]!r}")


def build_instance(spec: str) -> Tuple[str, SetSystem]:
    """Build ``(name, system)`` from a ``NAME=GENERATOR:key=value,...`` spec."""
    name, sep, rest = spec.partition("=")
    name = name.strip()
    if not sep or not name or "=" in name:
        raise InstanceSpecError(
            f"bad instance spec {spec!r}; expected NAME=GENERATOR:key=value,..."
        )
    generator, _, clauses = rest.partition(":")
    generator = generator.strip().lower()
    options = _parse_kv(clauses)

    if generator == "file":
        # References an on-disk container rather than generating; ``n``/``m``
        # come from the container header, not the spec.
        path = options.get("path")
        if not path:
            raise InstanceSpecError("file instance spec requires a 'path' key")
        unknown = set(options) - {"path"}
        if unknown:
            raise InstanceSpecError(
                f"unknown instance key(s) {sorted(unknown)} in {spec!r}"
            )
        from repro.exceptions import InstanceSourceLostError
        from repro.setcover.source import MmapSource

        try:
            source = MmapSource.open(path)
        except (ValueError, OSError, InstanceSourceLostError) as error:
            raise InstanceSpecError(f"cannot open instance file {path!r}: {error}")
        return name, SetSystem.from_source(source)

    n = _as_int(options, "n", required=True)
    if n > MAX_UNIVERSE_SIZE:
        raise InstanceSpecError(f"instance key 'n' {n} exceeds the limit {MAX_UNIVERSE_SIZE}")
    m = _as_int(options, "m", required=True)
    try:
        check_instance_bits(n, m)
    except ValueError as error:
        raise InstanceSpecError(str(error)) from None
    seed = _as_int(options, "seed", default=0)

    if generator == "random":
        from repro.workloads.random_instances import random_set_system

        density = float(options["density"]) if "density" in options else None
        set_size = _as_int(options, "set_size") if "set_size" in options else None
        known = {"n", "m", "seed", "density", "set_size"}
        system = random_set_system(
            n, m, set_size=set_size, density=density, seed=seed
        )
    elif generator == "planted":
        from repro.workloads.random_instances import plant_cover_instance

        cover = _as_int(options, "cover", required=True)
        overlap = float(options.get("overlap", 0.1))
        known = {"n", "m", "seed", "cover", "overlap"}
        system = plant_cover_instance(
            n, m, cover_size=cover, overlap=overlap, seed=seed
        ).system
    else:
        raise InstanceSpecError(
            f"unknown instance generator {generator!r}; "
            "expected 'random', 'planted', or 'file'"
        )
    unknown = set(options) - known
    if unknown:
        raise InstanceSpecError(f"unknown instance key(s) {sorted(unknown)} in {spec!r}")
    return name, system


def instance_digest(system: SetSystem) -> str:
    """The packed-buffer identity of a served instance.

    The same digest the runtime's task fingerprinting uses for concrete
    systems (:func:`repro.runtime.tasks._listify`): SHA-256 over the packed
    incidence buffer, stable across processes, compute backends, and
    instance backings — a file-backed system answers from its container
    header digest without materialising the buffer.
    """
    return system.content_digest()


__all__ = [
    "DEFAULT_INSTANCE_SPEC",
    "InstanceSpecError",
    "build_instance",
    "instance_digest",
]
