"""Solver-service tests: parity, admission, deadlines, faults, drain.

Most tests run the service with ``workers=0`` (inline compute, no fork):
admission, batching, caching, deadline, and degradation semantics are all
identical to the pooled path — both funnel through ``WorkerPool.run_batch``
— so the fast mode keeps the suite cheap while one pooled test per failure
mode exercises the real process boundary.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import HAS_NUMPY
from repro.service.client import AsyncServiceClient
from repro.service.instances import InstanceSpecError, build_instance, instance_digest
from repro.service.requests import (
    BadRequestError,
    canonical_params,
    compute_response,
    request_fingerprint,
)
from repro.service.server import ServiceConfig, SolverService, _Pending

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
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(InstanceSpecError):
            build_instance(spec)

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
        base = "hot=random:n=40,m=30,seed=9,backend="
        _, py_system = build_instance(base + "python")
        _, np_system = build_instance(base + "numpy")
        assert instance_digest(py_system) == instance_digest(np_system)
        for kind, params in (
            ("cover", {}),
            ("maxcover", {"k": 4}),
            ("estimate", {"alpha": 2, "seed": 0}),
        ):
            canon = canonical_params(kind, params)
            assert canonical(compute_response(py_system, kind, canon)) == canonical(
                compute_response(np_system, kind, canon)
            )


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

        py = serve_and(go, instances=(SPEC + ",backend=python",))
        np_ = serve_and(go, instances=(SPEC + ",backend=numpy",))
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
