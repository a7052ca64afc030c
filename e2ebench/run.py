"""End-to-end benchmark of the streaming set cover reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload repro-all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced units of work and reports the per-layer
breakdown instead.  Every line but the last is a human-readable report on
stdout; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment
fingerprint, sample counts, problems, and the traced spans of the last
traced unit) is written under ``.e2ebench_work/results/``.

The command exits 1 when any output check fails and 2 when it cannot run
at all (no program source next to it, or an ambient ``REPRO_*`` variable
that would change what is measured).  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Environment variables that silently change what the program does.
AMBIENT_VARS = (
    "REPRO_KERNEL",
    "REPRO_KERNEL_THREADS",
    "REPRO_FAULTS",
    "REPRO_RETRY",
    "REPRO_TRACE",
    "REPRO_TELEMETRY",
    "REPRO_PROFILE",
    "REPRO_SAMPLER_BATCH",
)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

#: :func:`host_loop_s` and :func:`host_sweep_s` on the host the benchmark
#: was tuned on, in a quiet phase (Intel Xeon shared two-vCPU VM, Python
#: 3.11.7, NumPy 2.4.6).  Times are reported at this host speed: see
#: :func:`measure`.
REFERENCE_LOOP_S = 0.016
REFERENCE_SWEEP_S = 0.011
#: Probe samples taken between two units; their median is recorded.
UNIT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("goodput_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> Dict[str, Any]:
    """The facts a timing depends on, recorded with every result."""
    import importlib.util

    info: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        info["cpu"] = platform.processor()
    from repro.kernels import registered_backends, resolve_backend
    from e2ebench.workloads import GRID_M, GRID_N

    info["kernel_backends"] = registered_backends()
    info["kernel_auto_small"] = resolve_backend("auto", 64, 64)
    info["kernel_auto_grid"] = resolve_backend("auto", GRID_N, GRID_M)
    return info


def import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter importing ``module`` (what a user's
    command pays before any work)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    # No timeout: waiting with one makes subprocess poll in 50 ms steps,
    # which would round the measured time up to the next step.
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=str(ROOT), env=env, check=True)
    return time.perf_counter() - started


def host_loop_s(repeats: int = 3) -> float:
    """Best time of a fixed pure-Python loop: the host's current CPU speed.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the host does.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


_SWEEP: List[Any] = []


def host_sweep_s(repeats: int = 3) -> float:
    """Best time of a fixed NumPy sweep (AND and popcount over two 256 KB
    word arrays, the size of ``instance-grid``'s packed container): the
    host's current speed for the NumPy and cache traffic a worker does.

    Like :func:`host_loop_s`, it is the benchmark's own code.
    """
    import numpy

    if not _SWEEP:
        words = numpy.arange(32_768, dtype=numpy.uint64) * numpy.uint64(0x9E3779B97F4A7C15)
        _SWEEP.extend((words, words[::-1].copy(), numpy.empty_like(words)))
    left, right, out = _SWEEP
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for _ in range(250):
            numpy.bitwise_and(left, right, out=out)
            total += int(numpy.bitwise_count(out).sum())
        best = min(best, time.perf_counter() - started)
    return best


#: The probes a workload's ``host_probes`` may name: (probe, reference time).
HOST_PROBES = {
    "loop": (host_loop_s, REFERENCE_LOOP_S),
    "sweep": (host_sweep_s, REFERENCE_SWEEP_S),
}


def reap_children(timeout_s: float = 10.0) -> None:
    """Wait for every worker process the program started; stop stragglers.

    The executor abandons its pools without joining them, so their workers
    may still be exiting when a run ends.  The shared-memory segments of
    the instance plane and the service start multiprocessing's resource
    tracker, a process that would otherwise outlive the benchmark; it is
    stopped last, once no worker holds its pipe open, and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join(timeout_s)
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of the benchmark process, which hosts the
    program, plus that of its largest reaped child (a pool or service
    worker; on ``repro-all``, which has none, the import interpreter).

    Call it after :func:`reap_children`: a child counts once reaped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Runner:
    """Drives one workload for one run and collects what it measured."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.within = 0
        self.samples: List[float] = []
        self.phases: Dict[str, List[float]] = {}
        self.problems: List[str] = []

    def record(self, outcome: Any, timed: bool = True, traced: bool = False) -> None:
        """Count a checked unit; untimed (warm-up) and traced units add no
        latency or phase samples."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        if timed and not traced:
            self.within += outcome.within_limit
            self.samples += outcome.samples_s
            for name, seconds in outcome.phases.items():
                self.phases.setdefault(name, []).append(seconds)

    def unit(self, traced: bool = False, tracer: Any = None, sink: Any = None):
        """One checked unit: ``(outcome, elapsed, result, capture or None)``."""
        from repro.telemetry import TelemetrySession

        from e2ebench.layers import TracedUnit

        workload = self.workload
        gc.collect()
        if not traced:
            if workload.fresh_per_unit:
                workload.reset()
                workload.prepare()
            started = time.perf_counter()
            result = workload.work()
            elapsed = time.perf_counter() - started
            return workload.check(result, elapsed), elapsed, result, None
        tracer.install()
        try:
            with TelemetrySession(label=f"e2ebench-{workload.name}") as session:
                tracer.fallback = session.tracer
                if workload.fresh_per_unit:
                    workload.reset()
                    workload.prepare()
                before = session.registry.snapshot()
                spans_before = len(session.tracer.spans)
                if sink is not None:
                    sink.clear()
                started = time.perf_counter()
                result = workload.work()
                ended = time.perf_counter()
                after = session.registry.snapshot()
        finally:
            tracer.fallback = None
            tracer.uninstall()
        spans = session.tracer.spans[spans_before:]
        elapsed = ended - started
        outcome = workload.check(result, elapsed)
        captured = TracedUnit(
            spans=spans,
            counters=_diff(after["counters"], before["counters"]),
            histograms=_diff_histograms(after["histograms"], before["histograms"]),
            start=started,
            end=ended,
            reference_s=elapsed,
            workers=workload.workers,
        )
        if sink is not None:
            from e2ebench.workloads import inflight_union

            # The service workers' own captures, folded in like the
            # executor folds its workers' snapshots.
            absorbed = TelemetrySession(label="service-workers")
            for snapshot in sink.snapshots:
                absorbed.absorb(snapshot)
            captured.spans = spans + list(absorbed.tracer.spans)
            for key, value in absorbed.registry.snapshot()["counters"].items():
                captured.counters[key] = captured.counters.get(key, 0) + value
            _, answers, _ = result
            captured.reference_s = inflight_union(answers)
            captured.service = {
                "batches": list(sink.batches),
                "compute": list(sink.compute),
                "answers": answers,
                "respawns": workload.service.pool.respawns if workload.service.pool else 0,
            }
        return outcome, elapsed, result, captured


def _diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _diff_histograms(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for name, histogram in after.items():
        prior = before.get(name) or {}
        out[name] = {
            "count": histogram.get("count", 0) - prior.get("count", 0),
            "total": histogram.get("total", 0) - prior.get("total", 0),
        }
    return out


def unit_measure(workload: Any, outcome: Any, elapsed: float) -> float:
    """The per-unit number traced and untraced units are compared on."""
    if workload.fills_run:
        return sum(outcome.samples_s) / max(1, len(outcome.samples_s))
    return elapsed


def latency_tail(samples: Sequence[float]) -> Dict[str, float]:
    """The latency tail: nearest-rank p95 when at least ten samples lie
    beyond it, else the highest percentile that leaves ten beyond.

    Reported but not gated: on a shared two-vCPU host the serving tail is
    pure ``estimate`` compute and follows the host's CPU-speed drift, so
    its run-to-run spread exceeds any bound a gate may use.
    """
    from e2ebench.stats import beyond, nearest_rank, tail_percentile

    if not samples:
        return {"percentile": 0.0, "ms": 0.0, "beyond": 0}
    percentile = tail_percentile(len(samples))
    return {
        "percentile": percentile,
        "ms": nearest_rank(samples, percentile) * 1000.0,
        "beyond": beyond(len(samples), percentile),
    }


def measure(runner: Runner, workload: Any, seconds: float) -> Dict[str, Any]:
    """``--trace 0``: set-up, then a fixed number of timed units.

    ``latency_ms`` is the median request latency of a serving session.  A
    batch run does :meth:`~e2ebench.workloads.Workload.units` units, whole
    passes over its inputs, and ``latency_ms`` is the mean unit time.  The
    tail is recorded, not gated: see :func:`latency_tail`.

    The host's CPU speed drifts by up to 1.6x for minutes at a time.
    The host probes (:data:`HOST_PROBES`) are sampled before every set-up
    and around every unit, and the times measured between those samples
    are reported at the reference speed: multiplied by each probe's
    reference time over the mean of its samples (the geometric mean of
    these factors when a workload names more than one probe).  Those are
    ``setup_s`` (mostly a fresh interpreter importing the program, scaled
    by the loop) and the mean unit time of a batch workload, scaled by the
    probes its ``host_probes`` names; the mean, so that it and the probes
    average over the same moments.  Times set by the service's batching
    window did not follow the probes and are reported as measured.  The
    unscaled figures are in the record and the report.
    """
    from e2ebench.stats import median

    setup_loop: List[float] = []
    imports = []
    for _ in range(SETUP_REPEATS):
        setup_loop.append(host_loop_s())
        imports.append(import_seconds(workload.entry_module))
    setups = []
    for _ in range(SETUP_REPEATS):
        workload.reset()
        gc.collect()
        setup_loop.append(host_loop_s())
        started = time.perf_counter()
        workload.prepare()
        setups.append(time.perf_counter() - started)
    if workload.fills_run:
        workload.session_s = seconds
        units = 1
    else:
        warm_outcome, _, _, _ = runner.unit()
        runner.record(warm_outcome, timed=False)
        units = workload.units(seconds)
    unit_probes: Dict[str, List[float]] = {name: [] for name in workload.host_probes}
    for index in range(units + 1):
        for name, series in unit_probes.items():
            series.append(median([HOST_PROBES[name][0]() for _ in range(UNIT_PROBES)]))
        if index < units:
            outcome, _, _, _ = runner.unit()
            runner.record(outcome)
    samples = runner.samples
    timed_ops = len(samples)
    setup_scale = REFERENCE_LOOP_S / (sum(setup_loop) / len(setup_loop))
    unit_scale = 1.0
    for name, series in unit_probes.items():
        unit_scale *= HOST_PROBES[name][1] / (sum(series) / len(series))
    unit_scale **= 1.0 / max(1, len(unit_probes))
    typical = median(samples) if workload.fills_run else sum(samples) / len(samples)
    raw = {"setup_s": median(imports) + median(setups), "latency_ms": typical * 1000.0}
    metrics = {
        "setup_s": raw["setup_s"] * setup_scale,
        "latency_ms": raw["latency_ms"] * unit_scale,
        "goodput_frac": runner.within / timed_ops if timed_ops else 0.0,
    }
    return {
        "metrics": metrics,
        "detail": {
            "units": units,
            "samples": timed_ops,
            "unscaled": raw,
            "host_probe_ms": {
                name: sum(series) / len(series) * 1000.0
                for name, series in (("setup.loop", setup_loop), *unit_probes.items())
            },
            "host_scale": {"setup": setup_scale, "units": unit_scale},
            "tail": latency_tail(samples),
            "import_s": imports,
            "prepare_s": setups,
            "phase_best_ms": {name: min(s) * 1000.0 for name, s in runner.phases.items()},
        },
    }


def traced(runner: Runner, workload: Any, seconds: float) -> Dict[str, Any]:
    """``--trace 1``: paired untraced/traced units, per-layer breakdown."""
    from e2ebench.layers import layer_table, summarize, unit_metrics
    from e2ebench.trace import LayerTracer, ServiceSink, service_wrappers

    tracer = LayerTracer()
    sink = None
    if workload.fills_run:
        sink = ServiceSink()
        tracer.extra_wrappers = service_wrappers(sink)
        workload.fresh_per_unit = True
        workload.schedule_reuse = 2
        workload.session_s = max(1.0, seconds / 4.0)
    else:
        workload.prepare()
        warm_outcome, _, _, _ = runner.unit()
        runner.record(warm_outcome, timed=False)
    untraced_s: List[float] = []
    traced_s: List[float] = []
    # Each traced unit is reduced as soon as it ends; only the last one's
    # spans are kept, so a long run of short units stays small in memory.
    summaries: List[Dict[str, float]] = []
    services: List[Dict[str, Any]] = []
    last_spans: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while True:
        outcome, elapsed, _, _ = runner.unit()
        runner.record(outcome)
        untraced_s.append(unit_measure(workload, outcome, elapsed))
        outcome, elapsed, _, captured = runner.unit(traced=True, tracer=tracer, sink=sink)
        runner.record(outcome, traced=True)
        traced_s.append(unit_measure(workload, outcome, elapsed))
        summaries.append(unit_metrics(captured))
        if captured.service:
            services.append(captured.service)
        last_spans = captured.spans
        if time.perf_counter() >= deadline:
            break
    metrics = summarize(summaries, services, untraced_s, traced_s, runner.phases)
    metrics["latency.tail_ms"] = latency_tail(runner.samples)["ms"]
    return {
        "metrics": metrics,
        "detail": {
            "untraced_units_s": untraced_s,
            "traced_units_s": traced_s,
            "layer_table": layer_table(summaries),
        },
        "spans": last_spans,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    ambient = {name: os.environ[name] for name in AMBIENT_VARS if os.environ.get(name)}
    if ambient:
        print(
            f"error: refusing to run with {ambient}: these change what is measured; unset them",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from e2ebench.layers import PER_LAYER
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(workload)
    try:
        report = (traced if args.trace else measure)(runner, workload, args.seconds)
        runner.problems += workload.finish()
    finally:
        workload.close()
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        report["metrics"]["peak_rss_mb"] = peak_rss_mb()

    correct = runner.failed == 0 and not runner.problems
    failed = runner.failed + (0 if runner.failed or correct else 1)
    units = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    metrics = {
        name: {"value": report["metrics"].get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted if runner.attempted else 1.0,
        "problems": runner.problems[:50],
        "metrics": metrics,
        "detail": report["detail"],
        "extras": workload.extras,
    }
    results = ROOT / ".e2ebench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(report["spans"], default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")
    for problem in runner.problems[:20]:
        print(f"# PROBLEM: {problem}")
    print(f"failed_frac {record['failed_frac']:.6g} frac ({failed}/{runner.attempted})")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value in report["detail"].get("phase_best_ms", {}).items():
        print(f"# phase {name}: {value:.6g} ms (best)")
    tail = report["detail"].get("tail")
    if tail:
        print(f"# latency tail: p{tail['percentile']:.3g} = {tail['ms']:.6g} ms ({tail['beyond']} beyond)")
    probes = report["detail"].get("host_probe_ms")
    if probes:
        unscaled = report["detail"]["unscaled"]
        scale = report["detail"]["host_scale"]
        print(
            f"# unscaled: setup_s {unscaled['setup_s']:.6g} s, latency_ms {unscaled['latency_ms']:.6g} ms;"
            f" host probes (mean ms) {', '.join(f'{name} {value:.4g}' for name, value in probes.items())};"
            f" scale {scale['setup']:.4g} (set-up), {scale['units']:.4g} (units)"
        )
    if args.trace:
        for layer, seconds in report["detail"]["layer_table"]:
            print(f"# layer {layer}: {seconds:.4f} s per unit")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
