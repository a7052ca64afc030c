"""The measured-overhead guard for the telemetry subsystem.

:func:`measure_overhead` times a workload with telemetry off and on and
reports the ratio.  The benchmark gate
(``benchmarks/bench_telemetry_overhead.py``) and CI use it to enforce the
≤5% budget the subsystem promises.

Example::

    >>> overhead = measure_overhead(lambda: sum(range(200)), repeats=2)
    >>> sorted(overhead)
    ['off_s', 'on_s', 'ratio']
    >>> overhead["ratio"] > 0
    True
"""

from __future__ import annotations

from typing import Any, Callable, Dict


def measure_overhead(
    workload: Callable[[], Any],
    repeats: int = 3,
    label: str = "overhead-check",
) -> Dict[str, float]:
    """Time ``workload`` with telemetry off and on; return the overhead ratio.

    Runs ``repeats`` paired rounds with the two modes back-to-back and the
    *order alternating* each round (off→on, on→off, …): measured empirically,
    whichever mode runs second in a round inherits warmer caches and can look
    several percent faster, so a fixed order would bias the comparison more
    than the telemetry overhead itself.  The per-mode *median* over rounds
    (robust to scheduler spikes, unlike the minimum, which picks whichever
    round got lucky) gives ``{"off_s", "on_s", "ratio"}`` where ``ratio`` is
    ``on_s / off_s``.  One warmup call per mode precedes timing.
    """
    from statistics import median

    from repro.telemetry.session import TelemetrySession
    from repro.telemetry.spans import clock

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    def _with_telemetry() -> None:
        with TelemetrySession(label=label):
            workload()

    workload()  # warmup, both modes
    _with_telemetry()
    off_times: list = []
    on_times: list = []
    for round_index in range(repeats):
        pair = [(workload, off_times), (_with_telemetry, on_times)]
        if round_index % 2:
            pair.reverse()
        for run, times in pair:
            start = clock()
            run()
            times.append(clock() - start)
    off_s = median(off_times)
    on_s = median(on_times)
    ratio = on_s / off_s if off_s > 0 else 1.0
    return {"off_s": off_s, "on_s": on_s, "ratio": ratio}
