"""Shared by the micro-benchmarks: timing, the JSON payload, and the
no-regression check against a committed baseline.

``bench_kernels.py``, ``bench_streaming.py`` and ``bench_lowerbound.py``
each write a ``BENCH_<area>.json`` payload and name, in a
``gated_times(payload)`` function, the times their CI gate reads.  Given
``--baseline BENCH_<area>.json``, :func:`finish` fails the run when one of
those times exceeds :data:`TOLERANCE` times its number in the committed
file, and also when either side lacks the entry: a gate that cannot find
what it reads fails rather than skips.  Both numbers and the budget are
printed, so a CI log shows the comparison.

A baseline is re-recorded by running the script on its full grid with no
flags, on one host, and committing the ``BENCH_<area>.json`` it writes.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, TypeVar

from repro.telemetry import clock

ROOT = Path(__file__).resolve().parent.parent

#: How much slower than the committed baseline a gated time may run.  On the
#: recording host, twenty quick runs of each gate read at most 1.45x the
#: committed time; falling back to the pure-Python kernel costs the kernels
#: gate about 2.1x and the streaming gate about 2.3x, and falling back to
#: the per-draw sampler loops costs the lower-bound gate about 6x.
TOLERANCE = 1.75

T = TypeVar("T")


def best_of(func: Callable[[], T], repeats: int = 1) -> Tuple[T, float]:
    """Call ``func`` ``repeats`` times; its last result and the fastest seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = clock()
        result = func()
        best = min(best, clock() - started)
    return result, best


def grid_entry(payload: Mapping[str, object], **fields: object) -> Dict[str, object]:
    """The grid entry of ``payload`` matching ``fields``; ``{}`` when absent."""
    for entry in payload.get("grid", []):
        if all(entry.get(name) == value for name, value in fields.items()):
            return entry
    return {}


def new_payload(schema: str, **fields: object) -> Dict[str, object]:
    """The header every micro-benchmark payload starts with."""
    numpy_version = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - NumPy-less smoke runs
        pass
    return {
        "schema": schema,
        "python": platform.python_version(),
        "numpy": numpy_version,
        **fields,
        "grid": [],
    }


def argument_parser(description: str, default_output: str) -> argparse.ArgumentParser:
    """The options the gated micro-benchmarks share."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick", action="store_true", help="small CI smoke grid instead of the full one"
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / default_output),
        help="where to write the JSON results (default: the committed baseline)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats (default 3)"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="BENCH_JSON",
        help=f"committed baseline to gate against: fail when a gated time "
        f"exceeds {TOLERANCE}x its number there, or either side lacks it",
    )
    return parser


def load_baseline(path: Optional[str]) -> Optional[Dict[str, object]]:
    """Read the committed baseline before the run can overwrite it."""
    if path is None:
        return None
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read baseline {path}: {exc}")


def within_budget(
    measured: Mapping[str, Optional[float]], committed: Mapping[str, Optional[float]]
) -> bool:
    """Whether every measured time is at most :data:`TOLERANCE` x its committed one.

    A name missing on either side (``None`` or absent) fails the check.
    """
    passed = True
    for name, seconds in measured.items():
        base = committed.get(name)
        if seconds is None or base is None:
            side = "this run" if seconds is None else "the baseline"
            print(f"FAIL {name}: {side} has no such time")
            passed = False
            continue
        budget = TOLERANCE * base
        ok = seconds <= budget
        passed = passed and ok
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: {seconds * 1e3:.2f} ms, "
            f"baseline {base * 1e3:.2f} ms, budget {budget * 1e3:.2f} ms ({TOLERANCE}x)"
        )
    return passed


def finish(
    payload: Dict[str, object],
    output: str,
    committed: Optional[Mapping[str, object]],
    gated_times: Callable[[Mapping[str, object]], Dict[str, Optional[float]]],
) -> int:
    """Write ``payload``; with a baseline, turn the gate into the exit code."""
    Path(output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if committed is None:
        return 0
    return 0 if within_budget(gated_times(payload), gated_times(committed)) else 1
