"""Pluggable compute kernels for the coverage arithmetic hot path.

Every :class:`~repro.setcover.SetSystem` delegates its batched primitives
(per-set marginal gains, projections, element frequencies, claim resolution)
to a :class:`~repro.kernels.base.Kernel`.  Two interchangeable in-memory
backends exist:

``python``
    :class:`~repro.kernels.pyint.PyIntKernel` — pure Python int bitsets, the
    seed implementation, always available.
``numpy``
    :class:`~repro.kernels.numpy_backend.NumpyKernel` — packed ``uint64``
    incidence matrix with vectorized popcount gains.  Requires NumPy
    (``pip install -e .[perf]``).

Backend selection (:func:`resolve_backend`):

* ``backend="python"`` / ``"numpy"`` request a backend; ``"numpy"``
  without NumPy installed raises :class:`ValueError`;
* ``backend="auto"`` (the default everywhere) picks ``numpy`` on large
  systems (``n·m`` at least :data:`AUTO_NUMPY_THRESHOLD` cells — below
  that, packing overhead beats the vectorization win) when NumPy is
  installed, and ``python`` otherwise;
* the ``REPRO_KERNEL`` environment variable (``python``/``numpy``/``auto``)
  overrides the *auto* choice without touching call sites — handy for
  benchmarking both backends on the same workload.  A ``numpy`` hint
  without NumPy runs ``python``.

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

#: Names accepted by ``backend=`` parameters throughout the library.
BACKENDS = ("auto", "python", "numpy")

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


def kernel_registry() -> Dict[str, Callable[..., Kernel]]:
    """Concrete backend name → factory, ``python`` first.

    The single source of truth for what can run *in this environment*: the
    conformance harness, the property suites, and the benchmarks all
    enumerate this registry, so a newly registered backend is covered by
    every cross-backend gate automatically.  ``numpy`` is registered only
    when NumPy imports.
    """
    registry: Dict[str, Callable[..., Kernel]] = {"python": _factory_python}
    if HAS_NUMPY:
        registry["numpy"] = _factory_numpy
    return registry


def registered_backends() -> List[str]:
    """The concrete backends usable in this environment, ``python`` first."""
    return list(kernel_registry())


def resolve_backend(backend: str = "auto", universe_size: int = 0, num_sets: int = 0) -> str:
    """Resolve a backend request into a concrete, registered backend name.

    ``auto`` consults the :data:`KERNEL_ENV_VAR` environment variable first,
    then picks ``numpy`` for large systems.  Without NumPy an explicit
    ``"numpy"`` request raises (that caller asked for the ``[perf]`` extra
    by name), while a large system or a ``numpy`` hint in the environment
    runs ``python``: every backend answers the same bits.
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
    if backend == "auto":
        large = universe_size * num_sets >= AUTO_NUMPY_THRESHOLD
        backend = "numpy" if large else "python"
    return backend if HAS_NUMPY else "python"


def make_kernel(
    universe_size: int,
    masks: Sequence[int],
    backend: str = "auto",
    packed: "bytes | None" = None,
) -> Kernel:
    """Build the kernel for a mask list, resolving ``backend`` first.

    ``packed`` optionally supplies the masks' already-packed incidence buffer
    (the transport wire form); the packed-matrix backends adopt it zero-copy
    instead of re-packing, the pure-Python backend ignores it.  A NumPy
    kernel that fails to build (broken install, injected ``kernel.make``
    fault) falls back to the pure-Python kernel, which cannot fail — both
    are bit-identical by the conformance suite, so a fallback costs
    wall-clock, never bytes.
    """
    kernel = None
    if resolve_backend(backend, universe_size=universe_size, num_sets=len(masks)) == "numpy":
        try:
            from repro.resilience.faults import inject

            inject("kernel.make", key=f"numpy:{universe_size}x{len(masks)}")
            kernel = _factory_numpy(universe_size, masks, packed=packed)
        except Exception as exc:
            from repro.resilience.degrade import record_degradation

            record_degradation(
                "kernel_backend",
                reason=f"{type(exc).__name__}: {exc}",
                backend="numpy",
            )
    if kernel is None:
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
    "HAS_NUMPY",
    "KERNEL_ENV_VAR",
    "Kernel",
    "PyIntKernel",
    "kernel_registry",
    "make_kernel",
    "registered_backends",
    "resolve_backend",
]
