"""Solver-service tests: parity, admission, dispatch, deadlines, faults, drain.

Most tests run the service with ``workers=0`` (inline compute, no fork):
admission, batching, caching, deadline, and degradation semantics are all
identical to the pooled path — both funnel through ``WorkerPool.run_batch``
— so the fast mode keeps the suite cheap while one pooled test per failure
mode exercises the real process boundary.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import SharedSegmentLostError
from repro.kernels import HAS_NUMPY, KERNEL_ENV_VAR
from repro.resilience.faults import parse_fault_spec
from repro.service import pool as pool_module
from repro.service.client import AsyncServiceClient
from repro.service.instances import (
    DEFAULT_INSTANCE_SPEC,
    InstanceSpecError,
    build_instance,
    instance_digest,
)
from repro.service.pool import WorkerPool
from repro.service.requests import (
    BadRequestError,
    canonical_params,
    compute_response,
    request_fingerprint,
)
from repro.service.server import ServiceConfig, SolverService, _Pending
from repro.setcover.source import SharedMemorySource
from repro.telemetry import TelemetrySession
from repro.utils.env import env_overrides

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy backend not installed")

SPEC = "hot=random:n=32,m=24,seed=5"


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def serve_and(coro_fn, **overrides):
    """Start a service, run ``coro_fn(svc, client)``, drain, return result."""
    options = {"workers": 0, "instances": (SPEC,)}
    options.update(overrides)

    async def go():
        svc = SolverService(ServiceConfig(**options))
        host, port = await svc.start()
        try:
            async with AsyncServiceClient(host, port) as client:
                return await coro_fn(svc, client)
        finally:
            await svc.drain()

    return asyncio.run(go())


def direct_answer(kind, params, spec=SPEC):
    _, system = build_instance(spec)
    return compute_response(system, kind, canonical_params(kind, params))


class TestInstanceSpecs:
    def test_spec_grammar_round_trip(self):
        name, system = build_instance("x=random:n=16,m=8,seed=2")
        assert name == "x" and (system.universe_size, system.num_sets) == (16, 8)

    def test_planted_generator(self):
        name, system = build_instance("p=planted:n=30,m=20,cover=4,seed=1")
        assert name == "p" and system.num_sets == 20

    @pytest.mark.parametrize(
        "spec",
        [
            "noequals",
            "x=unknown:n=4,m=2",
            "x=random:m=2",  # missing n
            "x=random:n=4,m=2,bogus=1",
            "x=random:n=4,m=2,seed=zzz",
            "x=random:n=99999999999,m=1",
            "x=planted:n=16777217,m=2,cover=1",
            "x=random:n=0,m=3000000",
            "x=planted:n=16777216,m=9,cover=1",
            "x=random:n=4,m=2,backend=bogus",
            "x=random:n=4,m=2,backend=numpy",
            "x=file:path=P,backing=heap",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(InstanceSpecError):
            build_instance(spec)

    @pytest.mark.parametrize("key", ["backend=python", "backing=heap"])
    def test_file_spec_refuses_a_kernel_or_backing_key(self, tmp_path, key):
        path = tmp_path / "inst.repro"
        build_instance(SPEC)[1].to_file(path)
        with pytest.raises(InstanceSpecError, match="unknown instance key"):
            build_instance(f"x=file:path={path},{key}")

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_sets_times_universe_refused_before_generation(self):
        # A spec of a few bytes must not reach the generator.  The child caps
        # its address space 1 GiB above what it holds after the imports, so
        # an unbounded build fails with MemoryError there, not on the host.
        code = (
            "import resource\n"
            "from repro.service.instances import build_instance\n"
            "with open('/proc/self/status') as status:\n"
            "    vm_kb = next(int(line.split()[1]) for line in status\n"
            "                 if line.startswith('VmSize:'))\n"
            "limit = vm_kb * 1024 + (1 << 30)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "try:\n"
            "    build_instance('x=random:n=48,m=1000000000')\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.stdout.startswith("InstanceSpecError"), result.stdout + result.stderr
        assert "over the limit" in result.stdout

    def test_corrupt_container_refused(self, tmp_path):
        from repro.setcover.source import read_container_header

        path = tmp_path / "inst.repro"
        build_instance(SPEC)[1].to_file(path)
        _, offset = read_container_header(path)
        data = bytearray(path.read_bytes())
        data[offset] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(InstanceSpecError, match="integrity check"):
            build_instance(f"x=file:path={path}")

    def test_digest_tracks_packed_buffer(self):
        _, a = build_instance(SPEC)
        _, b = build_instance(SPEC)
        _, c = build_instance("hot=random:n=32,m=24,seed=6")
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)


class TestRequestCore:
    def test_canonicalisation_applies_defaults(self):
        assert canonical_params("estimate", {}) == {"alpha": 2, "seed": 0}
        assert canonical_params("cover", {}) == {}

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("cover", {"extra": 1}),
            ("maxcover", {}),  # missing k
            ("maxcover", {"k": "3"}),
            ("maxcover", {"k": True}),
            ("maxcover", {"k": -1}),
            ("estimate", {"alpha": 0}),
            ("estimate", {"seed": -2}),
            ("wat", {}),
        ],
    )
    def test_invalid_requests_rejected(self, kind, params):
        with pytest.raises(BadRequestError):
            canonical_params(kind, params)

    def test_fingerprint_separates_kinds_params_instances(self):
        fp = request_fingerprint
        assert fp("d1", "cover", {}) != fp("d1", "maxcover", {"k": 1})
        assert fp("d1", "maxcover", {"k": 1}) != fp("d1", "maxcover", {"k": 2})
        assert fp("d1", "cover", {}) != fp("d2", "cover", {})
        assert fp("d1", "cover", {}) == fp("d1", "cover", {})

    @needs_numpy
    def test_payload_parity_across_kernel_backends(self):
        answers = {}
        for backend in ("python", "numpy"):
            with env_overrides({KERNEL_ENV_VAR: backend}):
                _, system = build_instance("hot=random:n=40,m=30,seed=9")
                assert system.backend == backend
                answers[backend] = [instance_digest(system)] + [
                    canonical(compute_response(system, kind, canonical_params(kind, params)))
                    for kind, params in (
                        ("cover", {}),
                        ("maxcover", {"k": 4}),
                        ("estimate", {"alpha": 2, "seed": 0}),
                    )
                ]
        assert answers["python"] == answers["numpy"]


class TestRoundTrip:
    def test_cover_matches_direct_solver_byte_for_byte(self):
        async def go(svc, client):
            return await client.request("cover")

        response = serve_and(go)
        assert response["status"] == "ok"
        assert canonical(response["result"]) == canonical(direct_answer("cover", {}))

    def test_maxcover_and_estimate(self):
        async def go(svc, client):
            a = await client.request("maxcover", params={"k": 3})
            b = await client.request("estimate", params={"alpha": 2, "seed": 1})
            return a, b

        a, b = serve_and(go)
        assert canonical(a["result"]) == canonical(direct_answer("maxcover", {"k": 3}))
        assert canonical(b["result"]) == canonical(
            direct_answer("estimate", {"alpha": 2, "seed": 1})
        )

    @needs_numpy
    def test_served_response_identical_across_backends(self):
        async def go(svc, client):
            return await client.request("maxcover", params={"k": 5})

        with env_overrides({KERNEL_ENV_VAR: "python"}):
            py = serve_and(go)
        with env_overrides({KERNEL_ENV_VAR: "numpy"}):
            np_ = serve_and(go)
        assert canonical(py["result"]) == canonical(np_["result"])

    def test_cache_hit_is_flagged_and_counted(self):
        async def go(svc, client):
            first = await client.request("cover")
            second = await client.request("cover")
            return first, second, dict(svc.counters), svc.cache.stats()

        first, second, counters, cache = serve_and(go)
        assert first["cached"] is False and second["cached"] is True
        assert canonical(first["result"]) == canonical(second["result"])
        assert counters["cached"] == 1 and cache["hits"] == 1

    def test_probes_answer_inline(self):
        async def go(svc, client):
            ping = await client.ping()
            health = await client.health()
            return ping, health

        ping, health = serve_and(go)
        assert ping["status"] == "ok" and ping["result"] == {"pong": True}
        payload = health["result"]
        assert payload["queue_limit"] == 64
        assert "hot" in payload["instances"]
        # workers=0 serves inline: the "degraded" path is the configured one.
        assert payload["pool"]["workers"] == 0
        assert payload["pool"]["respawns"] == 0

    @pytest.mark.parametrize(
        "message",
        [
            {"kind": "wat"},
            {"kind": "maxcover", "params": {"k": "three"}},
            {"kind": "cover", "instance": "nope"},
            {"kind": "cover", "deadline_s": -2},
        ],
    )
    def test_invalid_requests_get_bad_request(self, message):
        async def go(svc, client):
            return await client.request(
                message["kind"],
                params=message.get("params"),
                instance=message.get("instance"),
                deadline_s=message.get("deadline_s"),
            )

        assert serve_and(go)["status"] == "bad_request"


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": -1},
            {"cache_capacity": -1},
            {"default_deadline_s": 0},
            {"default_deadline_s": -1},
            {"default_deadline_s": True},
            {"default_deadline_s": "5"},
            {"drain_grace_s": -0.5},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(instances=(SPEC,), **overrides)

    def test_failed_start_unlinks_published_segments(self, monkeypatch):
        descriptors = []
        publish = SharedMemorySource.publish.__func__

        def spy(cls, packed):
            publication = publish(cls, packed)
            descriptors.append(publication.descriptor())
            return publication

        monkeypatch.setattr(SharedMemorySource, "publish", classmethod(spy))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,), port=port))
            with pytest.raises(OSError):
                asyncio.run(svc.start())
        assert svc._publications == {}
        assert len(descriptors) == 1
        with pytest.raises(SharedSegmentLostError):
            SharedMemorySource.attach(descriptors[0])


class TestAdmission:
    def test_queue_full_sheds_explicitly(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, queue_limit=1, instances=(SPEC,)))
            # Admission without a running batcher: the queue can only fill.
            svc._queue = asyncio.Queue(maxsize=1)
            first = asyncio.create_task(
                svc._handle_request("r1", "cover", {"kind": "cover"})
            )
            await asyncio.sleep(0)  # let r1 enqueue
            shed = await svc._handle_request(
                "r2", "maxcover", {"kind": "maxcover", "params": {"k": 1}}
            )
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            return shed

        shed = asyncio.run(go())
        assert shed["status"] == "shed"
        assert "queue full" in shed["error"]

    def test_cache_hits_bypass_admission(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, queue_limit=1, instances=(SPEC,)))
            svc._queue = asyncio.Queue(maxsize=1)
            svc._queue.put_nowait(object())  # queue already full
            digest = svc._digests["hot"]
            fingerprint = request_fingerprint(digest, "cover", {})
            svc.cache.put(fingerprint, {"kind": "cover", "canned": True})
            return await svc._handle_request("r1", "cover", {"kind": "cover"})

        response = asyncio.run(go())
        assert response["status"] == "ok" and response["cached"] is True

    def test_draining_refuses_new_work(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            svc.draining = True
            return await svc._handle_request("r1", "cover", {"kind": "cover"})

        assert asyncio.run(go())["status"] == "draining"

    def test_flush_answers_queued_requests_as_draining(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            svc._queue = asyncio.Queue(maxsize=4)
            loop = asyncio.get_running_loop()
            entries = [
                _Pending(f"r{i}", "hot", "cover", {}, f"fp{i}", None, loop.create_future())
                for i in range(3)
            ]
            for entry in entries:
                svc._queue.put_nowait(entry)
            svc._flush_draining()
            return [entry.future.result()["status"] for entry in entries]

        assert asyncio.run(go()) == ["draining"] * 3


def submit(svc, request_id, kind, params):
    """Admit one request straight into ``svc``; returns its task."""
    message = {"kind": kind, "params": params}
    return asyncio.create_task(svc._handle_request(request_id, kind, message))


class TestDispatch:
    def test_idle_service_dispatches_at_once(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            await svc.start()
            order = []
            dispatch = svc._dispatch

            def spy(batch):
                order.append("dispatch")
                return dispatch(batch)

            svc._dispatch = spy
            try:
                asyncio.get_running_loop().call_later(0.004, order.append, "marker")
                response = await submit(svc, "r1", "cover", {})
                await asyncio.sleep(0.005)
            finally:
                await svc.drain()
            return order, response

        order, response = asyncio.run(go())
        assert response["status"] == "ok"
        assert order == ["dispatch", "marker"]

    def test_requests_queued_behind_a_busy_slot_share_one_deduped_batch(self):
        requests = [
            ("a", "maxcover", {"k": 1}),
            ("b", "maxcover", {"k": 2}),
            ("c", "cover", {}),
            ("d", "cover", {}),
        ]

        async def go():
            # workers=0 gives one slot; the first batch holds it until released.
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            await svc.start()
            loop = asyncio.get_running_loop()
            busy = asyncio.Event()
            release = threading.Event()
            batches = []
            run_batch = svc.pool.run_batch

            def blocking(items):
                batches.append([item[0] for item in items])
                if len(batches) == 1:
                    loop.call_soon_threadsafe(busy.set)
                    release.wait(timeout=30)
                return run_batch(items)

            svc.pool.run_batch = blocking
            try:
                tasks = [submit(svc, *requests[0])]
                await asyncio.wait_for(busy.wait(), timeout=30)
                tasks += [submit(svc, *request) for request in requests[1:]]
                await asyncio.sleep(0)  # b, c and d are admitted while a computes
                release.set()
                responses = await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)
            finally:
                release.set()
                await svc.drain()
            return batches, responses

        batches, responses = asyncio.run(go())
        assert batches == [["a"], ["b", "c"]]
        for (_, kind, params), response in zip(requests, responses):
            assert response["status"] == "ok"
            assert canonical(response["result"]) == canonical(direct_answer(kind, params))

    def test_trace_records_latency_per_request_and_queue_wait_per_compute(self):
        async def go(svc, client):
            for kind, params in (("cover", {}), ("cover", {}), ("maxcover", {"k": 2})):
                assert (await client.request(kind, params=params))["status"] == "ok"

        with TelemetrySession(label="serve-test") as session:
            serve_and(go)
        histograms = session.registry.snapshot()["histograms"]
        assert histograms["service.latency_ms.cover"]["count"] == 2
        assert histograms["service.latency_ms.maxcover"]["count"] == 1
        # The second cover is a cache hit: it never reaches dispatch.
        assert histograms["service.queue_wait_ms"]["count"] == 2


class TestDeadlines:
    def test_expired_deadline_answered_without_compute(self):
        async def go(svc, client):
            return await client.request("estimate", deadline_s=1e-7)

        response = serve_and(go, cache_capacity=0)
        assert response["status"] == "deadline"

    def test_roomy_deadline_flows_through(self):
        async def go(svc, client):
            return await client.request("cover", deadline_s=60.0)

        assert serve_and(go)["status"] == "ok"

    def test_default_deadline_config_applies(self):
        async def go(svc, client):
            return await client.request("estimate")

        response = serve_and(go, cache_capacity=0, default_deadline_s=1e-7)
        assert response["status"] == "deadline"


class TestWorkerFaults:
    def test_transient_fault_is_retried_to_success(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,service.request:raise:1:1")
        monkeypatch.setenv("REPRO_RETRY", "attempts=3,backoff=0.001")

        async def go(svc, client):
            return await client.request("cover")

        response = serve_and(go, cache_capacity=0)
        assert response["status"] == "ok"
        assert canonical(response["result"]) == canonical(direct_answer("cover", {}))

    def test_persistent_fault_becomes_error_not_hang(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,service.request:raise:1:99")
        monkeypatch.setenv("REPRO_RETRY", "attempts=2,backoff=0.001")

        async def go(svc, client):
            return await client.request("cover")

        response = serve_and(go, cache_capacity=0)
        assert response["status"] == "error"
        assert "transient failure persisted" in response["error"]


class TestProcessPool:
    def test_pooled_answers_match_inline(self):
        async def go(svc, client):
            a = await client.request("cover")
            b = await client.request("estimate")
            return a, b

        pooled_a, pooled_b = serve_and(go, workers=1)
        assert pooled_a["status"] == "ok" and pooled_b["status"] == "ok"
        assert canonical(pooled_a["result"]) == canonical(direct_answer("cover", {}))
        assert canonical(pooled_b["result"]) == canonical(
            direct_answer("estimate", {})
        )

    def test_worker_crashes_degrade_but_still_answer(self, monkeypatch):
        # Crashes persist across respawns (until=99): the pool is lost, the
        # respawn budget (0) is exhausted, the service degrades inline where
        # the crash decays to a transient raise — which still fails every
        # attempt, so the request ends as a typed error.  Bounded, no hang.
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,service.request:crash:1:99")
        monkeypatch.setenv(
            "REPRO_RETRY", "attempts=2,backoff=0.001,respawns=0,breaker=5"
        )

        async def go(svc, client):
            response = await client.request("cover")
            return response, svc.pool.degraded

        response, degraded = serve_and(go, workers=1, cache_capacity=0)
        assert degraded is True
        assert response["status"] == "error"

    def test_crash_on_first_attempt_recovers_via_respawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,service.request:crash:1:1")
        monkeypatch.setenv("REPRO_RETRY", "attempts=3,backoff=0.001,respawns=3")

        async def go(svc, client):
            response = await client.request("cover")
            return response, svc.pool.respawns, svc.pool.degraded

        response, respawns, degraded = serve_and(go, workers=1, cache_capacity=0)
        assert response["status"] == "ok"
        assert canonical(response["result"]) == canonical(direct_answer("cover", {}))
        assert respawns >= 1 and degraded is False


    def test_one_crash_costs_one_respawn_and_spares_the_other_batch(self, monkeypatch):
        # Worker A computes a long batch of estimates while worker B dies
        # under a maxcover.  Only B is replaced, and only its batch re-runs.
        faults = "seed=5,service.request:crash:0.5:1"
        monkeypatch.setenv("REPRO_FAULTS", faults)
        monkeypatch.setenv("REPRO_RETRY", "attempts=3,backoff=0.001,respawns=3")
        plan = parse_fault_spec(faults)

        def crashes(request_id):
            return plan.decide("service.request", request_id, 0) == "crash"

        safe = [rid for rid in (f"s{i}" for i in range(100)) if not crashes(rid)]
        doomed = next(rid for rid in (f"c{i}" for i in range(100)) if crashes(rid))
        estimates = [canonical_params("estimate", {"alpha": 5, "seed": 11 + i}) for i in range(4)]
        maxcover = canonical_params("maxcover", {"k": 2})
        with pool_on(DEFAULT_INSTANCE_SPEC) as (name, system, pool):
            pool.run_batch([(safe[0], name, "maxcover", {"k": 0}, None, 0)])
            outcomes = {}
            long_batch = [
                (rid, name, "estimate", params, None, 0)
                for rid, params in zip(safe[1:], estimates)
            ]
            a = threading.Thread(
                target=lambda: outcomes.setdefault("a", pool.run_batch(long_batch))
            )
            b = threading.Thread(
                target=lambda: outcomes.setdefault(
                    "b", pool.run_batch([(doomed, name, "maxcover", maxcover, None, 0)])
                )
            )
            a.start()
            time.sleep(0.003)
            b.start()
            a.join(60)
            b.join(60)
            respawns, degraded = pool.respawns, pool.degraded
        for outcome, params in zip(outcomes["a"], estimates):
            assert outcome["status"] == "ok"
            assert canonical(outcome["result"]) == canonical(
                compute_response(system, "estimate", params)
            )
        assert canonical(outcomes["b"][0]["result"]) == canonical(
            compute_response(system, "maxcover", maxcover)
        )
        assert respawns == 1 and degraded is False

    def test_timed_out_worker_is_replaced_then_the_pool_degrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY", "timeout=0.001,respawns=1")
        params = canonical_params("estimate", {})
        with pool_on(SPEC) as (name, system, pool):
            (outcome,) = pool.run_batch([("r1", name, "estimate", params, None, 0)])
            respawns, degraded = pool.respawns, pool.degraded
        assert respawns == 1 and degraded is True
        assert outcome["status"] == "ok"
        assert canonical(outcome["result"]) == canonical(
            compute_response(system, "estimate", params)
        )

    def test_patched_entry_points_see_every_served_batch(self, monkeypatch):
        # The seams a tracer wraps: the worker loop calls the module global
        # per batch, and the server looks run_batch up at dispatch time.
        served = []
        execute = pool_module.execute_request_batch
        run_batch = WorkerPool.run_batch

        @functools.wraps(execute)
        def worker_side(items):
            outcomes = execute(items)
            outcomes[0]["pid"] = os.getpid()
            return outcomes

        @functools.wraps(run_batch)
        def parent_side(pool, items):
            outcomes = run_batch(pool, items)
            served.append(outcomes[0].pop("pid", None))
            return outcomes

        monkeypatch.setattr(pool_module, "execute_request_batch", worker_side)
        monkeypatch.setattr(WorkerPool, "run_batch", parent_side)

        async def go(svc, client):
            response = await client.request("maxcover", params={"k": 2})
            return response, {child.pid for child in multiprocessing.active_children()}

        response, pids = serve_and(go, workers=2, cache_capacity=0)
        assert canonical(response["result"]) == canonical(direct_answer("maxcover", {"k": 2}))
        assert len(served) == 1 and served[0] in pids and served[0] != os.getpid()

    def test_recovery_telemetry_reaches_the_served_trace(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,service.request:crash:1:1")
        monkeypatch.setenv("REPRO_RETRY", "attempts=3,backoff=0.001,respawns=3")

        async def go(svc, client):
            response = await client.request("cover")
            return response, svc.pool.respawns

        with TelemetrySession(label="serve-test") as session:
            response, respawns = serve_and(go, workers=1, cache_capacity=0)
        counters = session.registry.snapshot()["counters"]
        assert response["status"] == "ok" and respawns == 1
        assert counters["service.pool_losses"] == respawns
        assert counters["service.pool_respawns"] == respawns
        assert any(span["name"] == "service.pool_lost" for span in session.tracer.spans)


@contextlib.contextmanager
def pool_on(spec):
    """A two-worker pool over ``spec``'s published instance, shut down after."""
    name, system = build_instance(spec)
    publication = SharedMemorySource.publish(system.to_packed())
    pool = WorkerPool({name: publication.descriptor()}, {name: system}, workers=2)
    try:
        yield name, system, pool
    finally:
        pool.shutdown()
        publication.close()


def alive(pid):
    """Whether ``pid`` runs; a zombie awaiting its reaper does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def children_since(before):
    return [child for child in multiprocessing.active_children() if child not in before]


class TestPoolShutdown:
    def test_no_worker_outlives_shutdown(self):
        before = set(multiprocessing.active_children())
        with pool_on(SPEC) as (name, _, pool):
            pool.run_batch([("r1", name, "maxcover", {"k": 1}, None, 0)])
            assert len(children_since(before)) == 2
        assert children_since(before) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_exit_when_the_server_dies(self, tmp_path):
        # A server killed without a drain leaves its workers reading a pipe
        # whose other end is gone: each must see EOF and exit.
        code = (
            "import os\n"
            "from repro.service.instances import build_instance\n"
            "from repro.service.pool import WorkerPool\n"
            "from repro.setcover.source import SharedMemorySource\n"
            f"name, system = build_instance({SPEC!r})\n"
            "publication = SharedMemorySource.publish(system.to_packed())\n"
            "pool = WorkerPool({name: publication.descriptor()}, {name: system}, workers=2)\n"
            "pool.run_batch([('r1', name, 'maxcover', {'k': 1}, None, 0)])\n"
            "print(*(worker.process.pid for worker in pool._live), flush=True)\n"
            "os._exit(0)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # A file, not a pipe: a worker that outlives the server holds the
        # server's stdout open, and reading a pipe to EOF would wait for it.
        out = tmp_path / "pids"
        with open(out, "w") as stdout:
            subprocess.run(
                [sys.executable, "-c", code],
                stdout=stdout,
                stderr=subprocess.DEVNULL,
                env=env,
                check=True,
            )
        pids = [int(pid) for pid in out.read_text().split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 20
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        stray = [pid for pid in pids if alive(pid)]
        for pid in stray:
            os.kill(pid, signal.SIGKILL)
        assert stray == []

    @pytest.mark.parametrize("round_", range(3))
    def test_abandon_in_flight_then_shutdown_leaves_no_worker(self, round_):
        params = canonical_params("estimate", {"alpha": 5, "seed": 11})
        before = set(multiprocessing.active_children())
        with pool_on(DEFAULT_INSTANCE_SPEC) as (name, _, pool):
            pool.run_batch([("w", name, "maxcover", {"k": 0}, None, 0)])
            outcomes = []
            batch = [(f"e{i}", name, "estimate", params, None, 0) for i in range(3)]
            flight = threading.Thread(target=lambda: outcomes.extend(pool.run_batch(batch)))
            flight.start()
            time.sleep(0.005 * (round_ + 1))
            pool.abandon()
            pool.shutdown()
            assert children_since(before) == []
            flight.join(60)
            assert not flight.is_alive()
            assert [o["status"] in ("ok", "error") for o in outcomes] == [True] * 3
            (late,) = pool.run_batch([("late", name, "maxcover", {"k": 1}, None, 0)])
            assert late["status"] == "error"
            assert children_since(before) == []


class TestDrain:
    def test_drain_unlinks_segments_and_is_idempotent(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            host, port = await svc.start()
            async with AsyncServiceClient(host, port) as client:
                assert (await client.request("cover"))["status"] == "ok"
            await svc.drain()
            assert svc._publications == {}
            await svc.drain()  # second drain is a no-op
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return svc.counters["ok"]

        assert asyncio.run(go()) == 1

    def test_probes_report_draining(self):
        async def go():
            svc = SolverService(ServiceConfig(workers=0, instances=(SPEC,)))
            host, port = await svc.start()
            async with AsyncServiceClient(host, port) as client:
                before = await client.ping()
                svc.draining = True
                during = await client.ping()
            await svc.drain()
            return before["status"], during["status"]

        assert asyncio.run(go()) == ("ok", "draining")


class TestImportFootprint:
    def test_server_import_leaves_runtime_unloaded(self):
        """Serving publishes through the instance plane, so it never loads
        the batch runtime or the experiment definitions behind it."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys, repro.service.server; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.runtime')))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]"
