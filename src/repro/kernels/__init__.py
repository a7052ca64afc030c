"""Pluggable compute kernels for the coverage arithmetic hot path.

Every :class:`~repro.setcover.SetSystem` delegates its batched primitives
(per-set marginal gains, projections, element frequencies, claim resolution)
to a :class:`~repro.kernels.base.Kernel`.  Three interchangeable in-memory
backends exist, forming a tier ladder:

``python``
    :class:`~repro.kernels.pyint.PyIntKernel` — pure Python int bitsets, the
    seed implementation, always available.
``numpy``
    :class:`~repro.kernels.numpy_backend.NumpyKernel` — packed ``uint64``
    incidence matrix with vectorized popcount gains.  Requires NumPy
    (``pip install -e .[perf]``).
``compiled``
    :class:`~repro.kernels.compiled.CompiledKernel` — numba-jitted parallel
    sweeps over the same packed matrix (``pip install -e .[compiled]``);
    registered only when numba imports.

Backend selection (:func:`resolve_backend`):

* ``backend="python"`` / ``"numpy"`` / ``"compiled"`` request a tier.  A
  tier this environment has not registered degrades silently to the highest
  registered tier below it, except that forcing NumPy without NumPy
  installed raises :class:`ValueError`;
* ``backend="auto"`` (the default everywhere) picks the highest registered
  tier on large systems (``n·m`` at least :data:`AUTO_NUMPY_THRESHOLD`
  cells — below that, packing overhead beats the vectorization win) and
  ``python`` otherwise;
* the ``REPRO_KERNEL`` environment variable (``python``/``numpy``/
  ``compiled``/``auto``) overrides the *auto* choice without touching call
  sites, degrading like a request — handy for benchmarking all backends on
  the same workload.

All backends are output-identical bit for bit — enforced by the conformance
harness in ``tests/kernel_conformance.py``, which every registered backend
(current and future) runs through unchanged; only wall-clock differs.

Example — build a kernel over two masks and query a batched primitive::

    >>> kernel = make_kernel(4, [0b0011, 0b1110], backend="python")
    >>> kernel.set_sizes()
    [2, 3]
    >>> kernel.gains(uncovered=0b1111)
    [2, 3]
    >>> resolve_backend("python")
    'python'
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Sequence

from repro.kernels.base import Kernel
from repro.kernels.pyint import PyIntKernel

try:  # NumPy is an optional [perf] extra; everything degrades gracefully.
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    HAS_NUMPY = False

try:  # numba is an optional [compiled] extra on top of NumPy.
    import numba  # noqa: F401

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the CI compiled job exercises both
    HAS_NUMBA = False

#: Names accepted by ``backend=`` parameters throughout the library.
BACKENDS = ("auto", "python", "numpy", "compiled")

#: Minimum ``n·m`` (incidence-matrix cells) for *auto* to leave pure Python:
#: below this, packing the matrix costs more than the vectorized ops save.
AUTO_NUMPY_THRESHOLD = 1 << 16

#: Environment variable overriding the *auto* backend choice.
KERNEL_ENV_VAR = "REPRO_KERNEL"


def _factory_python(universe_size: int, masks: Sequence[int], packed=None) -> Kernel:
    return PyIntKernel(universe_size, masks)


def _factory_numpy(universe_size: int, masks: Sequence[int], packed=None) -> Kernel:
    from repro.kernels.numpy_backend import NumpyKernel

    return NumpyKernel(universe_size, masks, packed=packed)


def _factory_compiled(
    universe_size: int, masks: Sequence[int], packed=None, **options
) -> Kernel:
    from repro.kernels.compiled import CompiledKernel

    return CompiledKernel(universe_size, masks, packed=packed, **options)


def kernel_registry() -> Dict[str, Callable[..., Kernel]]:
    """Concrete backend name → factory, in ascending tier order.

    The single source of truth for what can run *in this environment*: the
    conformance harness, the property suites, and the benchmarks all
    enumerate this registry, so a newly registered backend is covered by
    every cross-backend gate automatically.  A tier is registered only when
    its dependencies import (``numpy`` needs NumPy, ``compiled`` numba too).
    """
    registry: Dict[str, Callable[..., Kernel]] = {"python": _factory_python}
    if HAS_NUMPY:
        registry["numpy"] = _factory_numpy
        if HAS_NUMBA:
            registry["compiled"] = _factory_compiled
    return registry


def registered_backends() -> List[str]:
    """The concrete backends usable in this environment, tier order."""
    return list(kernel_registry())


def resolve_backend(backend: str = "auto", universe_size: int = 0, num_sets: int = 0) -> str:
    """Resolve a backend request into a concrete, registered backend name.

    ``auto`` consults the :data:`KERNEL_ENV_VAR` environment variable first,
    then picks the highest registered tier for large systems.  A request for
    a tier this environment cannot build degrades silently to the highest
    registered tier below it — containers, pickles and service specs carry
    the request across hosts, and every tier answers the same bits.  The one
    exception is an explicit ``"numpy"`` request without NumPy installed,
    which raises: that caller asked for the ``[perf]`` extra by name.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "numpy" and not HAS_NUMPY:
        raise ValueError(
            "backend 'numpy' requested but NumPy is not installed; "
            "install the [perf] extra or use backend='auto'"
        )
    if backend == "auto":
        hint = os.environ.get(KERNEL_ENV_VAR, "auto").strip().lower() or "auto"
        if hint not in BACKENDS:
            raise ValueError(
                f"{KERNEL_ENV_VAR} must be one of {BACKENDS}, got {hint!r}"
            )
        backend = hint
    registered = registered_backends()
    if backend == "auto":
        large = universe_size * num_sets >= AUTO_NUMPY_THRESHOLD
        return registered[-1] if large else "python"
    rank = BACKENDS.index(backend)
    return [name for name in registered if BACKENDS.index(name) <= rank][-1]


def make_kernel(
    universe_size: int,
    masks: Sequence[int],
    backend: str = "auto",
    packed: "bytes | None" = None,
) -> Kernel:
    """Build the kernel for a mask list, resolving ``backend`` first.

    ``packed`` optionally supplies the masks' already-packed incidence buffer
    (the transport wire form); the packed-matrix backends adopt it zero-copy
    instead of re-packing, the pure-Python backend ignores it.  A tier that
    fails to build (broken install, injected ``kernel.make`` fault) falls to
    the next registered tier below it, down to the pure-Python kernel, which
    cannot fail — every tier is bit-identical by the conformance suite, so a
    fallback costs wall-clock, never bytes.
    """
    resolved = resolve_backend(backend, universe_size=universe_size, num_sets=len(masks))
    registry = kernel_registry()
    tiers = list(registry)
    for rung in reversed(tiers[1 : tiers.index(resolved) + 1]):
        try:
            from repro.resilience.faults import inject

            inject("kernel.make", key=f"{rung}:{universe_size}x{len(masks)}")
            kernel = registry[rung](universe_size, masks, packed=packed)
            break
        except Exception as exc:
            from repro.resilience.degrade import record_degradation

            record_degradation(
                "kernel_backend",
                reason=f"{type(exc).__name__}: {exc}",
                backend=rung,
            )
    else:
        kernel = PyIntKernel(universe_size, masks)
    # Wrap in the metering proxy only while telemetry capture is active, so
    # the telemetry-off path hands out the raw backend unchanged.
    from repro.telemetry import metrics

    if metrics.active() is not None:
        from repro.telemetry.instrument import instrument_kernel

        return instrument_kernel(kernel)
    return kernel


__all__ = [
    "AUTO_NUMPY_THRESHOLD",
    "BACKENDS",
    "HAS_NUMBA",
    "HAS_NUMPY",
    "KERNEL_ENV_VAR",
    "Kernel",
    "PyIntKernel",
    "kernel_registry",
    "make_kernel",
    "registered_backends",
    "resolve_backend",
]
