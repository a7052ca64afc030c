"""Command-line interface for running the reproduction experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli list
    python -m repro.cli run E2 E5 --seed 7
    python -m repro.cli run all --json results.json --markdown report.md
    python -m repro.cli run E1 E5 --workers 4 --store /tmp/rstore
    python -m repro.cli run adversarial --workers 4 --store /tmp/rstore
    python -m repro.cli scenarios adversarial
    python -m repro.cli report /tmp/rstore --html report/
    python -m repro.cli chaos adversarial --workers 4
    python -m repro.cli run E1 --workers 4 --faults seed=7,executor.submit:crash:0.2
    python -m repro.cli serve --port 7421 --workers 2
    python -m repro.cli loadgen --port 7421 --clients 64 --duration 30

The CLI is a thin wrapper over :mod:`repro.experiments` and
:mod:`repro.runtime`: it resolves experiment/scenario ids, runs them — in
process, or sharded over worker processes and backed by a persistent result
store — prints the tables, and optionally persists JSON / markdown reports
via :mod:`repro.experiments.report`.

Every ``run`` goes through the runtime executor, with one worker process
per CPU the process may run on (in-process on one CPU) and no store unless
``--workers``/``--store`` say otherwise.  Status lines on stdout are
deterministic ``computed``/``cached`` markers, so a parallel run's stdout
is byte-identical to the serial run's and cache hits are observable; the
elapsed time goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.experiments.experiment_defs import (
    EXPERIMENT_DESCRIPTIONS,
    EXPERIMENT_REGISTRY,
)
from repro.experiments.harness import ExperimentResult
from repro.experiments.report import save_markdown_report, save_results_json
from repro.utils.env import env_overrides


def _positive_int(text: str) -> int:
    """argparse type for ``--workers``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for counts that allow 0 (``serve --workers 0`` = inline)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


#: What ``run``, ``chaos``, ``report --grid`` and ``scenarios`` accept as a
#: name; each expands through :func:`repro.runtime.scenarios.resolve_scenarios`.
_NAMES_HELP = "scenario names, experiment ids, tags, grids (e.g. ADV) or 'all'"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the reproduction experiments for Assadi (PODS 2017).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help=_NAMES_HELP,
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    run_parser.add_argument(
        "--json", type=str, default=None, help="write results to this JSON file"
    )
    run_parser.add_argument(
        "--markdown", type=str, default=None, help="write a markdown report here"
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="do not print the per-experiment tables"
    )
    run_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="shard execution across N worker processes (via repro.runtime; "
        "default: one per CPU this process may run on; 1 runs in-process)",
    )
    run_parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="persistent result-store directory; repeated runs skip cached tasks",
    )
    run_parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="DIR",
        help="capture telemetry and write a trace JSONL file to DIR",
    )
    run_parser.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="activate a deterministic fault-injection plan, e.g. "
        "'seed=7,executor.submit:crash:0.2' (also honoured via REPRO_FAULTS)",
    )
    run_parser.add_argument(
        "--retry",
        type=str,
        default=None,
        metavar="SPEC",
        help="override the retry policy, e.g. 'attempts=5,timeout=30' "
        "(also honoured via REPRO_RETRY)",
    )
    run_parser.add_argument(
        "--instance-file",
        type=str,
        default=None,
        metavar="PATH",
        help="attach an on-disk instance container (see 'repro gen-instance') "
        "to every instance-capable task instead of per-task generation",
    )
    run_parser.add_argument(
        "--instance-backing",
        choices=("mmap", "heap", "shared"),
        default="mmap",
        help="how tasks see --instance-file: mmap (windowed, zero-copy off "
        "disk; default), heap (loaded resident, shipped with each task), or "
        "shared (one shared-memory segment for the whole run)",
    )

    gen_parser = subparsers.add_parser(
        "gen-instance",
        help="generate a random instance straight into a container file "
        "(chunked writer: peak memory is one row window, any m)",
    )
    gen_parser.add_argument("path", help="container file to write")
    gen_parser.add_argument("--n", type=_positive_int, required=True, help="universe size")
    gen_parser.add_argument("--m", type=_positive_int, required=True, help="number of sets")
    gen_parser.add_argument(
        "--density", type=float, default=None,
        help="per-element membership probability (default: the random_set_system default)",
    )
    gen_parser.add_argument(
        "--set-size", type=_nonnegative_int, default=None,
        help="exact elements per set (mutually exclusive with --density)",
    )
    gen_parser.add_argument("--seed", type=int, default=None)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run scenarios under a seeded fault schedule and assert the "
        "result store is byte-identical to a clean serial run",
    )
    chaos_parser.add_argument(
        "scenarios",
        nargs="+",
        help=_NAMES_HELP,
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario seeds"
    )
    chaos_parser.add_argument(
        "--workers", type=_positive_int, default=4,
        help="worker processes for the chaos leg (default: 4)",
    )
    chaos_parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="fault plan for the chaos leg (default: a crash/torn/raise mix)",
    )
    chaos_parser.add_argument(
        "--retry", type=str, default=None, metavar="SPEC",
        help="retry-policy override for the chaos leg",
    )
    chaos_parser.add_argument(
        "--root", type=str, default=None, metavar="DIR",
        help="keep the clean/chaos stores under DIR for inspection "
        "(default: a temporary directory, removed afterwards)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived solver service (shared-memory hot instances, "
        "admission control, per-request deadlines, graceful SIGTERM drain)",
    )
    serve_parser.add_argument("--host", type=str, default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = pick a free one; printed as 'listening on ...')",
    )
    serve_parser.add_argument(
        "--instance", action="append", default=None, metavar="SPEC",
        help="hot instance spec NAME=GENERATOR:key=value,... (repeatable; "
        "default: one small random instance)",
    )
    serve_parser.add_argument(
        "--workers", type=_nonnegative_int, default=2,
        help="solver worker processes (0 = compute inline, no pool)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=_positive_int, default=64,
        help="admission queue bound; beyond it requests are shed explicitly",
    )
    serve_parser.add_argument(
        "--batch-size", type=_positive_int, default=8,
        help="max requests per micro-batch; a request is dispatched as soon "
        "as a worker is free, and only requests that queued while every "
        "worker was busy share its batch",
    )
    serve_parser.add_argument(
        "--cache", type=_nonnegative_int, default=1024, metavar="ENTRIES",
        help="response cache capacity (0 disables caching)",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline when the client sends none",
    )
    serve_parser.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="how long in-flight batches may finish after SIGTERM",
    )
    serve_parser.add_argument(
        "--trace", type=str, default=None, metavar="DIR",
        help="capture telemetry for the serving session (request spans)",
    )
    serve_parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="deterministic fault plan for chaos-under-load, e.g. "
        "'seed=7,service.request:crash:0.05'",
    )
    serve_parser.add_argument(
        "--retry", type=str, default=None, metavar="SPEC",
        help="retry-policy override for worker-side failures",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a running service with seeded concurrent clients and "
        "verify every ok response against locally computed answers",
    )
    loadgen_parser.add_argument("--host", type=str, default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, required=True)
    loadgen_parser.add_argument(
        "--clients", type=_positive_int, default=16,
        help="concurrent closed-loop client connections",
    )
    loadgen_parser.add_argument(
        "--requests", type=_positive_int, default=25,
        help="requests per client (ignored when --duration is given)",
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="run for a fixed wall-clock duration instead of a request count",
    )
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument(
        "--instance", type=str, default=None, metavar="SPEC",
        help="instance spec the server was started with (for verification)",
    )
    loadgen_parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline to attach to every request",
    )
    loadgen_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip computing expected answers locally (pure load mode)",
    )
    loadgen_parser.add_argument(
        "--json", type=str, default=None, metavar="FILE",
        help="write the load report as JSON to FILE",
    )

    validate_parser = subparsers.add_parser(
        "validate-trace",
        help="validate trace JSONL files against the repro.trace/v1 schema",
    )
    validate_parser.add_argument(
        "path", help="a trace .jsonl file, or a directory of them"
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the registered runtime scenarios"
    )
    scenarios_parser.add_argument(
        "name", nargs="?", default=None,
        help=f"what to list: {_NAMES_HELP} (one scenario shows in detail)",
    )

    report_parser = subparsers.add_parser(
        "report", help="render a tradeoff report from a result-store directory"
    )
    report_parser.add_argument(
        "store", help="result-store directory previously filled by 'run --store'"
    )
    report_parser.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="NAME",
        help=f"what to check coverage of: {_NAMES_HELP} (repeatable; default: "
        "auto-detect grids from the stored task keys)",
    )
    report_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed override the store was filled with (mirrors 'run --seed')",
    )
    report_parser.add_argument(
        "--html", type=str, default=None, metavar="DIR",
        help="write a self-contained HTML report to DIR/index.html",
    )
    report_parser.add_argument(
        "--markdown", type=str, default=None, metavar="FILE",
        help="write the markdown report to FILE",
    )
    report_parser.add_argument(
        "--title", type=str, default="Streaming set cover — tradeoff report"
    )
    report_parser.add_argument(
        "--quiet", action="store_true",
        help="print only the summary line, not the whole markdown report",
    )
    return parser


def resolve_experiment_ids(requested: Sequence[str]) -> List[str]:
    """The scenario names ``repro run`` runs for its arguments, in order.

    Each argument expands through
    :func:`~repro.runtime.scenarios.resolve_scenarios`; ``all`` anywhere
    means exactly E1–E12.  An unknown name exits with one line.
    """
    from repro.runtime import resolve_scenarios

    if any(entry.lower() == "all" for entry in requested):
        requested = ["all"]
    try:
        return [spec.name for entry in requested for spec in resolve_scenarios(entry)]
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _runner_accepts_instance(runner_name: str) -> bool:
    """Whether a registered runner takes the ``instance`` keyword.

    Inspected from the signature rather than hardcoded, so new runners opt
    in by just declaring the parameter.
    """
    import inspect

    from repro.experiments.runners import RUNNER_REGISTRY

    runner = RUNNER_REGISTRY.get(runner_name)
    if runner is None:
        return False
    try:
        return "instance" in inspect.signature(runner).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtin/odd callables
        return False


def _open_instance_file(instance_file: str, instance_backing: str):
    """Resolve ``--instance-file``/``--instance-backing`` to a descriptor.

    Returns ``(descriptor, publication)`` — ``publication`` is a live
    :class:`~repro.setcover.source.SharedMemorySource` the caller must close
    after the run for the ``shared`` backing, ``None`` otherwise.
    """
    from repro.exceptions import InstanceSourceLostError
    from repro.setcover.source import MmapSource, SharedMemorySource

    try:
        source = MmapSource.open(instance_file)
    except (ValueError, OSError, InstanceSourceLostError) as exc:
        raise SystemExit(f"cannot open --instance-file {instance_file!r}: {exc}")
    if instance_backing == "mmap":
        descriptor = source.descriptor()
        source.close()
        return descriptor, None
    packed = source.to_packed()
    digest = source.digest()
    source.close()
    if instance_backing == "heap":
        from repro.setcover.source import HeapSource

        return HeapSource.from_packed(packed, digest=digest).descriptor(), None
    publication = SharedMemorySource.publish(packed)
    return publication.descriptor(), publication


def run_experiments(
    experiment_ids: Sequence[str],
    seed: Optional[int] = None,
    workers: int = 1,
    store_dir: Optional[str] = None,
    printer: Callable[[str], None] = print,
    quiet: bool = False,
    instance_file: Optional[str] = None,
    instance_backing: str = "mmap",
) -> List[ExperimentResult]:
    """Run experiments through the runtime executor and return the results.

    Status lines are deterministic ``computed``/``cached`` markers rather
    than wall-clock timings, so the printed output of a ``--workers 4`` run
    is byte-identical to the serial one and cache hits are observable.  The
    one timing line, ``done: N computed, K cached in X.Xs``, goes to stderr.

    ``instance_file`` attaches the referenced container to every
    instance-capable task (currently: runners declaring an ``instance``
    parameter) as a :class:`~repro.setcover.source.SourceDescriptor` in the
    chosen backing.  The descriptor fingerprints by content digest, so the
    same file served mmap / heap / shared hits the same store entries —
    and because the attachment happens before execution, every worker
    count × backing combination reports identical bytes.

    A run cut short by ``KeyboardInterrupt`` prints the tasks that finished
    (a store keeps them, so a rerun resumes), reports
    ``interrupted: K of N tasks finished`` on stderr and re-raises
    :class:`KeyboardInterrupt`.
    """
    from repro.runtime import ResultStore, TaskExecutor, get_scenario, tasks_from_scenario
    from repro.telemetry import clock

    started = clock()
    tasks = []
    for experiment_id in experiment_ids:
        tasks.extend(tasks_from_scenario(get_scenario(experiment_id), seed_override=seed))

    publication = None
    if instance_file is not None:
        from dataclasses import replace as dataclass_replace

        descriptor, publication = _open_instance_file(instance_file, instance_backing)
        capable = {runner for runner in {task.runner for task in tasks}
                   if _runner_accepts_instance(runner)}
        attached = 0
        for index, task in enumerate(tasks):
            if task.runner in capable:
                tasks[index] = dataclass_replace(
                    task, params=task.params + (("instance", descriptor),)
                )
                attached += 1
        digest = descriptor.digest or ""
        printer(
            f"# instance: {instance_file} backing={instance_backing} "
            f"digest={digest[:16]} tasks={attached}/{len(tasks)}"
        )

    store = ResultStore(store_dir) if store_dir else None
    try:
        executor = TaskExecutor(workers=workers, store=store)
        report = executor.run(tasks)
    finally:
        if publication is not None:
            publication.close()
    results: List[ExperimentResult] = []
    for outcome in report.outcomes:
        result = outcome.result()
        results.append(result)
        if quiet:
            printer(f"[{outcome.task.key}] {outcome.status}")
        else:
            printer(result.render())
            printer(f"[{outcome.task.key}] {outcome.status}")
            printer("")
    if report.interrupted:
        print(
            f"interrupted: {len(report)} of {len(tasks)} tasks finished",
            file=sys.stderr,
        )
        raise KeyboardInterrupt
    counts = report.counts()
    print(
        f"done: {counts['computed']} computed, {counts['cached']} cached "
        f"in {clock() - started:.1f}s",
        file=sys.stderr,
    )
    return results


def _scenarios_command(name: Optional[str]) -> int:
    """Implement the ``scenarios`` subcommand: list scenarios, or show one.

    A name expands through
    :func:`~repro.runtime.scenarios.resolve_scenarios`, as in ``run``: one
    scenario prints in detail, several as list lines, and an unknown name
    exits with one line.
    """
    from repro.runtime import iter_scenarios, resolve_scenarios, task_fingerprint, tasks_from_scenario

    if name is None:
        specs = iter_scenarios()
    else:
        try:
            specs = resolve_scenarios(name)
        except KeyError as exc:
            raise SystemExit(exc.args[0])
    if name is not None and len(specs) == 1:
        spec = specs[0]
        print(f"name:         {spec.name}")
        print(f"runner:       {spec.runner}")
        capable = "yes" if _runner_accepts_instance(spec.runner) else "no"
        print(f"instance-capable: {capable}")
        print(f"description:  {spec.description or '-'}")
        print(f"seed:         {spec.seed if spec.seed is not None else 'runner default'}")
        print(f"tags:         {', '.join(spec.tags) or '-'}")
        print(f"params:       {dict(spec.params) or '{}'}")
        print("tasks:")
        for task in tasks_from_scenario(spec):
            print(f"  {task.key}  fingerprint={task_fingerprint(task)[:16]}…")
        return 0
    for spec in specs:
        tags = f" [{','.join(spec.tags)}]" if spec.tags else ""
        print(
            f"{spec.name:>6}  runner={spec.runner:<4}  {spec.description}{tags}"
        )
    return 0


def _report_command(args: argparse.Namespace) -> int:
    """Implement the ``report`` subcommand: store directory → rendered report.

    Shares ``run``'s cache semantics in the read direction: the report is a
    pure function of the store contents, missing grid cells render as
    explicit markers instead of failing, and re-running after a resumed
    ``run`` just fills the gaps in.
    """
    from repro.analysis import build_report, load_store, write_report
    from repro.analysis.render import render_markdown

    try:
        analysis = load_store(args.store, grids=args.grid, seed_override=args.seed)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    figures_dir = Path(args.html) / "figures" if args.html else None
    doc = build_report(analysis, title=args.title, figures_dir=figures_dir)
    written = write_report(doc, html_dir=args.html, markdown_path=args.markdown)
    if not args.quiet:
        print(render_markdown(doc))
    summary = (
        f"report: {len(analysis.records)} cell(s), {len(analysis.missing)} missing"
    )
    if analysis.unreadable:
        summary += f", {len(analysis.unreadable)} unreadable"
    print(summary)
    for kind, path in sorted(written.items()):
        print(f"wrote {kind}: {path}")
    return 0


def _chaos_command(args: argparse.Namespace) -> int:
    """Implement ``chaos``: run under faults, diff against a clean run."""
    from repro.resilience import run_chaos

    try:
        report = run_chaos(
            args.scenarios,
            faults=args.faults,
            seed=args.seed,
            workers=args.workers,
            retry=args.retry,
            root=args.root,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    print(report.render())
    if args.root:
        print(f"stores kept under: {args.root}")
    return 0 if report.parity else 1


def _serve_command(args: argparse.Namespace) -> int:
    """Implement ``serve``: run the solver service until SIGTERM/SIGINT."""
    import asyncio

    from repro.service.instances import DEFAULT_INSTANCE_SPEC, InstanceSpecError
    from repro.service.server import ServiceConfig, serve_main

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            instances=tuple(args.instance or (DEFAULT_INSTANCE_SPEC,)),
            workers=args.workers,
            queue_limit=args.queue_limit,
            batch_size=args.batch_size,
            cache_capacity=args.cache,
            default_deadline_s=args.deadline,
            drain_grace_s=args.drain_grace,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        with env_overrides(_fault_retry_env(args)):
            if args.trace:
                from repro.telemetry import TelemetrySession

                with TelemetrySession(
                    label="serve",
                    trace_dir=args.trace,
                    attrs={"workers": args.workers, "port": args.port},
                ) as session:
                    counters = asyncio.run(serve_main(config))
                print(f"wrote trace: {session.trace_path}")
            else:
                counters = asyncio.run(serve_main(config))
    except InstanceSpecError as exc:
        raise SystemExit(f"bad --instance spec: {exc}")
    except OSError as exc:
        # asyncio's bind error repeats the address; a resolver error
        # (negative errno) carries its own text.
        reason = os.strerror(exc.errno) if (exc.errno or 0) > 0 else exc.strerror or str(exc)
        raise SystemExit(f"cannot listen on {args.host}:{args.port}: {reason}")
    except KeyboardInterrupt:  # pragma: no cover - direct ^C before handler
        return 130
    summary = ", ".join(f"{key}={counters[key]}" for key in sorted(counters))
    print(f"drained: {summary}")
    return 0


def _loadgen_command(args: argparse.Namespace) -> int:
    """Implement ``loadgen``: drive a service, verify, report percentiles.

    Exits non-zero when any verified response was *wrong* — sheds and
    deadline misses are legitimate overload outcomes, an incorrect answer
    never is — and when no request got an answer at all.
    """
    import json as json_module

    from repro.service.instances import DEFAULT_INSTANCE_SPEC
    from repro.service.loadgen import LoadgenConfig, run_load

    try:
        config = LoadgenConfig(
            host=args.host,
            port=args.port,
            clients=args.clients,
            requests_per_client=args.requests,
            duration_s=args.duration,
            seed=args.seed,
            instance_spec=args.instance or DEFAULT_INSTANCE_SPEC,
            deadline_s=args.deadline,
            verify=not args.no_verify,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    report = run_load(config)
    lost = report.statuses.get("transport_error", 0)
    if report.requests and lost == report.requests:
        raise SystemExit(
            f"cannot reach service at {args.host}:{args.port}: "
            f"no request got an answer ({lost} transport errors)"
        )
    payload = report.to_dict()
    print(json_module.dumps(payload, indent=2, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return 1 if report.wrong else 0


def _fault_retry_env(args: argparse.Namespace) -> dict:
    """Validate ``--faults``/``--retry`` and map them to env overrides."""
    env_overrides: dict = {}
    if getattr(args, "faults", None) or getattr(args, "retry", None):
        from repro.resilience import (
            FAULTS_ENV_VAR,
            RETRY_ENV_VAR,
            parse_fault_spec,
            parse_retry_spec,
        )

        try:
            if args.faults:
                parse_fault_spec(args.faults)  # fail fast on a bad spec
                env_overrides[FAULTS_ENV_VAR] = args.faults
            if args.retry:
                parse_retry_spec(args.retry)
                env_overrides[RETRY_ENV_VAR] = args.retry
        except ValueError as exc:
            raise SystemExit(str(exc))
    return env_overrides


def _gen_instance_command(args: argparse.Namespace) -> int:
    """Implement ``gen-instance``: chunked generation straight to a container.

    Prints the content digest so scripts (and the CI out-of-core job) can
    assert the file matches an in-memory generation of the same parameters.
    """
    from repro.workloads.outofcore import generate_to_file

    try:
        descriptor = generate_to_file(
            args.path,
            args.n,
            args.m,
            set_size=args.set_size,
            density=args.density,
            seed=args.seed,
        )
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))
    size = Path(args.path).stat().st_size
    print(
        f"wrote {args.path}: n={descriptor.universe_size} "
        f"m={descriptor.num_sets} ({size} bytes)"
    )
    print(f"digest: {descriptor.digest}")
    return 0


def _validate_trace_command(path_arg: str) -> int:
    """Implement ``validate-trace``: check JSONL files against the schema."""
    from repro.telemetry import validate_trace_dir, validate_trace_file

    path = Path(path_arg)
    if not path.exists():
        raise SystemExit(f"no such file or directory: {path_arg}")
    if path.is_dir():
        reports = validate_trace_dir(path)
    else:
        reports = [(path, validate_trace_file(path))]
    failures = 0
    for file_path, problems in reports:
        if problems:
            failures += 1
            print(f"INVALID {file_path}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"ok {file_path}")
    if failures:
        print(f"{failures} invalid trace file(s)")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "report":
        return _report_command(args)

    if args.command == "chaos":
        return _chaos_command(args)

    if args.command == "validate-trace":
        return _validate_trace_command(args.path)

    if args.command == "gen-instance":
        return _gen_instance_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "loadgen":
        return _loadgen_command(args)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENT_REGISTRY, key=lambda eid: int(eid[1:])):
            description = EXPERIMENT_DESCRIPTIONS.get(experiment_id, "")
            print(f"{experiment_id:>4}  {description}")
        return 0

    if args.command == "scenarios":
        return _scenarios_command(args.name)

    from repro.runtime import default_workers

    fault_retry_env = _fault_retry_env(args)
    experiment_ids = resolve_experiment_ids(args.experiments)
    workers = args.workers or default_workers()

    def _execute() -> Optional[List[ExperimentResult]]:
        """The run's results, or None when SIGINT or SIGTERM interrupted it."""
        from repro.resilience import drain_on_signal

        # Fault/retry specs travel via the environment so pool workers
        # inherit them; restored afterwards to keep the process reusable.
        try:
            with env_overrides(fault_retry_env), drain_on_signal():
                return run_experiments(
                    experiment_ids,
                    seed=args.seed,
                    workers=workers,
                    store_dir=args.store,
                    quiet=args.quiet,
                    instance_file=args.instance_file,
                    instance_backing=args.instance_backing,
                )
        except KeyboardInterrupt:
            return None

    if args.trace:
        from repro.telemetry import TelemetrySession

        session_attrs = {"workers": workers, "seed": args.seed}
        if args.instance_file is not None:
            session_attrs["instance_backing"] = args.instance_backing
        with TelemetrySession(
            label="-".join(args.experiments),
            trace_dir=args.trace,
            attrs=session_attrs,
        ) as session:
            results = _execute()
        print(f"wrote trace: {session.trace_path}")
    else:
        results = _execute()
    if results is None:
        return 130
    if args.json:
        path = save_results_json(results, args.json)
        print(f"wrote {path}")
    if args.markdown:
        path = save_markdown_report(
            results, args.markdown, title="Streaming set cover reproduction report"
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
