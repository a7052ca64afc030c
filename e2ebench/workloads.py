"""The benchmark's workloads: what users run, driven through public entry points.

Each workload is a repeated *unit of work* with an untimed check:

* :meth:`Workload.prepare` is what a user waits for before work starts; it
  is timed and repeated by the runner (``setup_s``), and
  :meth:`Workload.reset` undoes it outside the timed region;
* :meth:`Workload.work` is one timed unit (a ``repro run all`` over one seed,
  an mmap, a heap and a store-answered ADV grid run on one container, one
  open-loop serving session);
* :meth:`Workload.check` verifies the unit's output outside the timed region
  and turns it into latency samples, phase times and operation counts;
* :meth:`Workload.finish` runs the checks that need the whole run (the
  served answers against local computation).

The program only ever sees inputs generated from the benchmark seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: ``repro run all`` seeds a run cycles through: ``SEEDS_PER_WINDOW``
#: consecutive seeds starting at ``window * SEEDS_PER_WINDOW`` where
#: ``window = --seed mod (GOLDEN_SEEDS // SEEDS_PER_WINDOW)``.  Seeds
#: ``0 .. GOLDEN_SEEDS - 1`` have a golden digest.
SEEDS_PER_WINDOW = 6
GOLDEN_SEEDS = 144
GOLDEN_FILE = BENCH_DIR / "golden_repro_all.json"

#: Cells of the adversarial (ADV) scenario grid.
ADV_CELLS = 48
#: Workers and connections: the load comes from one process with two.
WORKERS = 2

#: The instance-plane container the ADV grid is attached to.
GRID_N = 512
GRID_M = 4096


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


@dataclass
class UnitOutcome:
    """What one checked unit contributes to the result."""

    samples_s: List[float]
    attempted: int
    failed: int
    within_limit: int
    problems: List[str] = field(default_factory=list)
    #: Seconds of each named phase of the unit (``mmap``/``heap``/``warm``),
    #: reported next to the unit latency.
    phases: Dict[str, float] = field(default_factory=dict)


class Workload:
    """A named workload; subclasses fill in the hooks."""

    name = ""
    why = ""
    #: The module a user's command imports first (timed in a fresh interpreter).
    entry_module = "repro.cli"
    #: Per-operation latency limit for ``goodput_frac`` (seconds).
    limit_s = 60.0
    #: Worker processes the program runs with (``runtime.busy_frac`` base).
    workers = 1
    #: Whether every unit needs its own :meth:`prepare` (fresh state).
    fresh_per_unit = False
    #: Whether one unit spans the whole measured time (a serving session).
    fills_run = False
    #: Seconds one unit takes on the host the benchmark was tuned on.  It
    #: fixes how many units a batch run does for a given ``--seconds``, so
    #: a run's work does not depend on how fast the host happens to be.
    nominal_unit_s = 1.0
    #: Distinct inputs a batch run cycles through (each gets the same
    #: number of units).
    inputs = 1
    #: The host probes (``run.HOST_PROBES``) whose speed the unit time
    #: follows; ``latency_ms`` is reported at their reference speed (see
    #: ``run.measure``).
    host_probes: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.extras: Dict[str, Any] = {}

    def prepare(self) -> None:
        """User-visible set-up before work starts (timed, repeated)."""

    def reset(self) -> None:
        """Undo the last :meth:`prepare` (untimed; idempotent)."""

    def units(self, seconds: float) -> int:
        """Timed units of a batch run: whole passes over :attr:`inputs`,
        as many as fill ``seconds`` at :attr:`nominal_unit_s`."""
        passes = max(1, round(seconds / (self.nominal_unit_s * self.inputs)))
        return passes * self.inputs

    def work(self) -> Any:
        raise NotImplementedError

    def check(self, result: Any, elapsed: float) -> UnitOutcome:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Cross-unit checks after timing; returns problems found."""
        return []

    def close(self) -> None:
        """Release everything the workload holds (idempotent)."""

    # -- helpers ------------------------------------------------------------
    def _batch_outcome(self, ok: bool, elapsed: float, problem: str) -> UnitOutcome:
        return UnitOutcome(
            samples_s=[elapsed],
            attempted=1,
            failed=0 if ok else 1,
            within_limit=1 if ok and elapsed <= self.limit_s else 0,
            problems=[] if ok else [problem],
        )


def _cli(argv: List[str]) -> Tuple[int, str]:
    """``repro.cli.main(argv)`` with stdout captured; returns (code, stdout)."""
    from repro import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# -- repro run all --------------------------------------------------------------

def repro_all_seeds(seed: int) -> List[int]:
    window = seed % (GOLDEN_SEEDS // SEEDS_PER_WINDOW)
    return list(range(window * SEEDS_PER_WINDOW, (window + 1) * SEEDS_PER_WINDOW))


class ReproAll(Workload):
    name = "repro-all"
    why = "repro run all --quiet (E1-E12, serial) over consecutive seeds: generation, exact solver, samplers"
    limit_s = 20.0
    nominal_unit_s = 1.2
    #: One process running pure Python: its unit time over the host loop
    #: time stayed within 67-72 while the host's speed moved it by 1.5x.
    host_probes = ("loop",)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.seeds = repro_all_seeds(seed)
        self.inputs = len(self.seeds)
        self.golden = json.loads(GOLDEN_FILE.read_text())["digests"]
        self.cursor = 0
        self.out = workdir / "repro-all.json"

    def work(self) -> Tuple[int, int]:
        run_seed = self.seeds[self.cursor % len(self.seeds)]
        self.cursor += 1
        code, _ = _cli(["run", "all", "--quiet", "--seed", str(run_seed), "--json", str(self.out)])
        return run_seed, code

    def check(self, result: Tuple[int, int], elapsed: float) -> UnitOutcome:
        run_seed, code = result
        got = hashlib.sha256(self.out.read_bytes()).hexdigest()
        want = self.golden.get(str(run_seed))
        ok = code == 0 and got == want
        return self._batch_outcome(
            ok, elapsed, f"seed {run_seed}: exit {code}, digest {got[:12]} != golden {str(want)[:12]}"
        )


# -- the ADV grid on one out-of-core container ---------------------------------

class InstanceGrid(Workload):
    name = "instance-grid"
    why = "ADV grid on one 512x4096 REPROSC1 container, --workers 2 --store: mmap and heap runs, then a store-answered re-run"
    limit_s = 60.0
    workers = WORKERS
    nominal_unit_s = 3.6
    #: Two workers running Python and NumPy: over 90 units in five minutes,
    #: the coefficient of variation of the mean time of six units fell from
    #: 0.069 to 0.035 when scaled by the loop and a NumPy probe (0.045 by
    #: the loop alone).
    host_probes = ("loop", "sweep")
    #: ``(phase, backing, store, status)``: the mmap and the heap run each
    #: compute the grid into a fresh store; the warm run repeats it on mmap
    #: against the heap run's store, which answers every cell because task
    #: fingerprints do not depend on the backing.
    PHASES = (
        ("mmap", "mmap", "a", "computed"),
        ("heap", "heap", "b", "computed"),
        ("warm", "mmap", "b", "cached"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.container = workdir / "grid.reprosc"
        self.grid_seed = 1 + seed % 1_000_000
        self.reference: Optional[bytes] = None
        self.runs = 0

    def prepare(self) -> None:
        from repro.setcover.source import MmapSource
        from repro.workloads.outofcore import generate_to_file

        generate_to_file(str(self.container), GRID_N, GRID_M, seed=self.grid_seed)
        source = MmapSource.open(str(self.container))
        try:
            source.to_packed()
        finally:
            source.close()

    def work(self) -> Tuple[Dict[str, Tuple[int, Path, str]], Dict[str, float], Path]:
        self.runs += 1
        stores = self.workdir / f"stores-{self.runs}"
        runs, phases = {}, {}
        for phase, backing, store, _ in self.PHASES:
            out = self.workdir / f"grid-{self.runs}-{phase}.json"
            started = time.perf_counter()
            code, stdout = _cli([
                "run", "adversarial", "--instance-file", str(self.container),
                "--instance-backing", backing, "--workers", str(WORKERS),
                "--store", str(stores / store),
                "--seed", str(self.grid_seed), "--quiet", "--json", str(out),
            ])
            phases[phase] = time.perf_counter() - started
            runs[phase] = (code, out, stdout)
        return runs, phases, stores

    def check(self, result: Tuple[Dict[str, Tuple[int, Path, str]], Dict[str, float], Path], elapsed: float) -> UnitOutcome:
        runs, phases, stores = result
        ok = True
        for phase, _, _, status in self.PHASES:
            code, out, stdout = runs[phase]
            data = out.read_bytes()
            out.unlink()
            if self.reference is None:
                self.reference = data
            # One "[cell] computed|cached" line per cell.
            statuses = [line.rsplit(" ", 1)[-1] for line in stdout.splitlines() if line.startswith("[")]
            ok = ok and code == 0 and data == self.reference and statuses == [status] * ADV_CELLS
        # Removing the stores is clean-up, after the unit's timer stopped.
        shutil.rmtree(stores, ignore_errors=True)
        outcome = self._batch_outcome(
            ok, elapsed,
            f"{self.name}: a run failed, its cells were not all computed (mmap, heap) or all "
            f"cached (warm), or the payloads differ",
        )
        outcome.phases = phases
        return outcome


# -- the solver service under open-loop load -----------------------------------

@dataclass(frozen=True)
class Request:
    due_s: float
    kind: str
    params: Dict[str, Any]


#: Open-loop arrival rate (requests/s) and the request mix.  Every
#: ``SERVE_ESTIMATE_EVERY``-th request is a fresh ``estimate`` (~125 ms of
#: exact-solver work; spacing them keeps two from competing for the two
#: CPUs); the others are dealt from shuffled blocks of 18: one third
#: repeats of an earlier request (answered by the response cache), one
#: ``cover`` (a single fingerprint: computed once, then cached) and fresh
#: ``maxcover`` requests.  The median then falls inside the cache-miss
#: class, and the 95th percentile near the lower quartile of the
#: ``estimate`` class, away from the class edges where a percentile jumps
#: and below the slow tail the host's CPU-speed phases add.
SERVE_RATE = 20.0
SERVE_ESTIMATE_EVERY = 15
SERVE_BLOCK = ("repeat",) * 6 + ("cover",) + ("maxcover",) * 11
SERVE_ALPHAS = (4, 5, 6)
#: A request slower than this misses ``goodput_frac``: about twice the
#: slowest ``estimate`` answers seen on a slow host, so goodput stays 1 in
#: normal runs and drops when the serving tail regresses.
SERVE_LIMIT_S = 0.5


def serve_schedule(seed: int, duration_s: float) -> List[Request]:
    """Seeded Poisson arrivals over ``duration_s`` with the serving mix.

    Fresh requests never share a fingerprint: ``estimate`` draws an unused
    seed and ``maxcover`` an unused ``k``; a repeat copies a uniformly
    chosen earlier request.
    """
    rng = random.Random(f"e2ebench-serve-{seed}")
    schedule: List[Request] = []
    used_k = set()
    plan: List[str] = []
    clock = rng.expovariate(SERVE_RATE)
    while clock < duration_s:
        if len(schedule) % SERVE_ESTIMATE_EVERY == SERVE_ESTIMATE_EVERY // 2:
            choice = "estimate"
        else:
            if not plan:
                plan = list(SERVE_BLOCK)
                rng.shuffle(plan)
            choice = plan.pop()
        if choice == "repeat" and schedule:
            earlier = rng.choice(schedule)
            kind, params = earlier.kind, earlier.params
        elif choice == "estimate":
            kind = "estimate"
            params = {"alpha": rng.choice(SERVE_ALPHAS), "seed": rng.randrange(1 << 30)}
        elif choice == "cover":
            kind, params = "cover", {}
        else:
            k = rng.randrange(1, 1 << 16)
            while k in used_k:
                k = rng.randrange(1, 1 << 16)
            used_k.add(k)
            kind, params = "maxcover", {"k": k}
        schedule.append(Request(clock, kind, params))
        clock += rng.expovariate(SERVE_RATE)
    return schedule


@dataclass
class Answer:
    index: int
    due: float
    sent: float
    done: float
    status: str
    result: Any = None
    cached: bool = False


async def drive_open_loop(
    host: str, port: int, schedule: List[Request], connections: int = WORKERS
) -> Tuple[List[Answer], float]:
    """Send ``schedule`` open-loop over ``connections`` in-order connections.

    A request is due at its schedule offset whatever happened before; the
    next free connection sends it, so a stall delays later requests and
    that wait is part of their latency (``done - due``).  ``sent`` is when
    the generator released the request, so ``sent - due`` is how late the
    generator itself ran.  Returns the answers and the schedule origin.
    """
    from repro.service.client import AsyncServiceClient, ServiceUnavailableError

    clients = [AsyncServiceClient(host, port) for _ in range(connections)]
    for client in clients:
        await client.connect()
    queue: "asyncio.Queue[Optional[Tuple[int, float, float]]]" = asyncio.Queue()
    answers: List[Answer] = []

    async def sender(client: AsyncServiceClient) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, sent = item
            request = schedule[index]
            try:
                response = await client.request(
                    request.kind, params=request.params, request_id=f"b{index}"
                )
                status = response.get("status", "error")
                answers.append(Answer(
                    index, due, sent, time.perf_counter(), status,
                    response.get("result"), bool(response.get("cached")),
                ))
            except (ServiceUnavailableError, OSError):
                answers.append(Answer(index, due, sent, time.perf_counter(), "transport_error"))
                await client.close()
                await client.connect()

    senders = [asyncio.create_task(sender(client)) for client in clients]
    origin = time.perf_counter()
    try:
        for index, request in enumerate(schedule):
            due = origin + request.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, time.perf_counter()))
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
    finally:
        for task in senders:
            task.cancel()
        await asyncio.gather(*senders, return_exceptions=True)
        for client in clients:
            await client.close()
    return answers, origin


def inflight_union(answers: List[Answer]) -> float:
    """Seconds during which at least one request was due and unanswered."""
    total = 0.0
    end = None
    for answer in sorted(answers, key=lambda a: a.due):
        if end is None or answer.due > end:
            total += answer.done - answer.due
            end = answer.done
        elif answer.done > end:
            total += answer.done - end
            end = answer.done
    return total


class Serve(Workload):
    name = "serve"
    why = "in-process SolverService(workers=2): open-loop Poisson 20 req/s over 2 connections, ~38% repeats, every 15th an estimate"
    entry_module = "repro.service.server"
    limit_s = SERVE_LIMIT_S
    fills_run = True

    #: ``maxcover`` with ``k=0`` never appears in a schedule: it warms the
    #: pool (worker spawn and instance attach) as part of set-up.
    WARMUP = ("maxcover", {"k": 0})

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.loop = asyncio.new_event_loop()
        self.service = None
        #: Length of one session; the runner sets it from ``--seconds``.
        self.session_s = 1.0
        #: Consecutive sessions that replay one schedule (2 pairs an
        #: untraced session with a traced one on identical requests).
        self.schedule_reuse = 1
        self.sessions = 0
        self.served: Dict[str, Tuple[str, Dict[str, Any], Any]] = {}

    # The service lives on a private event loop the benchmark drives step
    # by step, so set-up, sessions and drain stay separately timed.
    def _run(self, coroutine: Any) -> Any:
        return self.loop.run_until_complete(coroutine)

    def stop_service(self) -> None:
        if self.service is not None:
            service, self.service = self.service, None
            self._run(service.drain())

    def reset(self) -> None:
        self.stop_service()

    def prepare(self) -> None:
        self._run(self._start())

    async def _start(self) -> None:
        from repro.service.client import AsyncServiceClient
        from repro.service.server import ServiceConfig, SolverService

        service = SolverService(ServiceConfig(workers=WORKERS, port=0))
        host, port = await service.start()
        self.service = service
        async with AsyncServiceClient(host, port) as client:
            response = await client.request(self.WARMUP[0], params=self.WARMUP[1])
        if response.get("status") != "ok":
            raise RuntimeError(f"service warm-up failed: {response}")

    def work(self) -> Tuple[List[Request], List[Answer], float]:
        index = self.sessions // self.schedule_reuse
        self.sessions += 1
        schedule = serve_schedule(self.seed * 1000 + index, self.session_s)
        host, port = self.service.address
        answers, origin = self._run(drive_open_loop(host, port, schedule))
        return schedule, answers, origin

    def check(self, result: Tuple[List[Request], List[Answer], float], elapsed: float) -> UnitOutcome:
        schedule, answers, _ = result
        problems = []
        failed = within = 0
        for answer in answers:
            request = schedule[answer.index]
            if answer.status != "ok":
                failed += 1
                problems.append(f"request {answer.index} ({request.kind}): {answer.status}")
                continue
            key = canonical([request.kind, request.params])
            seen = self.served.setdefault(key, (request.kind, request.params, answer.result))
            if canonical(seen[2]) != canonical(answer.result):
                failed += 1
                problems.append(f"request {answer.index}: answer differs from an earlier answer")
                continue
            if answer.done - answer.due <= self.limit_s:
                within += 1
        missing = len(schedule) - len(answers)
        if missing:
            problems.append(f"{missing} request(s) never answered")
        return UnitOutcome(
            samples_s=[answer.done - answer.due for answer in answers],
            attempted=len(schedule),
            failed=failed + missing,
            within_limit=within,
            problems=problems,
        )

    def finish(self) -> List[str]:
        """Every distinct ``ok`` answer equals ``compute_response`` run here."""
        from repro.service.instances import DEFAULT_INSTANCE_SPEC, build_instance
        from repro.service.requests import canonical_params, compute_response

        self.stop_service()
        _, system = build_instance(DEFAULT_INSTANCE_SPEC)
        problems = []
        for key, (kind, params, result) in sorted(self.served.items()):
            expected = compute_response(system, kind, canonical_params(kind, params))
            if canonical(expected) != canonical(result):
                problems.append(f"served {kind} {params} differs from local compute_response")
        self.extras["verified_distinct"] = len(self.served)
        return problems

    def close(self) -> None:
        try:
            self.stop_service()
        finally:
            self.loop.close()


WORKLOADS = {cls.name: cls for cls in (ReproAll, InstanceGrid, Serve)}

__all__ = [
    "Answer",
    "Request",
    "UnitOutcome",
    "WORKLOADS",
    "Workload",
    "drive_open_loop",
    "inflight_union",
    "repro_all_seeds",
    "serve_schedule",
]
