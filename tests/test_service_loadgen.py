"""Load-generator tests: determinism, verification, report math, end-to-end."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.instances import build_instance
from repro.service.loadgen import (
    POPULATION,
    LoadgenConfig,
    LoadReport,
    _pick,
    expected_payloads,
    run_load_async,
)
from repro.service.requests import canonical_params, compute_response
from repro.service.server import ServiceConfig, SolverService

SPEC = "hot=random:n=32,m=24,seed=5"


def load_against_service(load_overrides=None, **service_overrides):
    """Run one in-process service + loadgen pair; return (report, service)."""
    options = {"workers": 0, "instances": (SPEC,)}
    options.update(service_overrides)

    async def go():
        svc = SolverService(ServiceConfig(**options))
        host, port = await svc.start()
        try:
            load = {"host": host, "port": port, "instance_spec": SPEC}
            load.update(load_overrides or {})
            report = await run_load_async(LoadgenConfig(**load))
        finally:
            await svc.drain()
        return report, svc

    return asyncio.run(go())


class TestConfig:
    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0, 0.0])
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="duration_s must be positive and finite"):
            LoadgenConfig(duration_s=duration)


class TestDeterminism:
    def test_population_covers_every_kind(self):
        assert {kind for kind, _ in POPULATION} == {"cover", "maxcover", "estimate"}

    def test_pick_is_stable_and_seed_sensitive(self):
        trace = [_pick(0, client, step) for client in range(4) for step in range(8)]
        assert trace == [_pick(0, c, s) for c in range(4) for s in range(8)]
        assert all(0 <= index < len(POPULATION) for index in trace)
        other = [_pick(1, c, s) for c in range(4) for s in range(8)]
        assert trace != other

    def test_expected_payloads_match_direct_compute(self):
        expectations = expected_payloads(SPEC)
        assert sorted(expectations) == list(range(len(POPULATION)))
        _, system = build_instance(SPEC)
        for index, (kind, params) in enumerate(POPULATION):
            direct = compute_response(system, kind, canonical_params(kind, params))
            assert expectations[index] == json.dumps(
                direct, sort_keys=True, separators=(",", ":")
            )


class TestReportMath:
    def test_record_partitions_statuses(self):
        report = LoadReport()
        report.record("ok", 0.5)
        report.record("ok", 0.1)
        report.record("shed")
        report.record("deadline")
        assert report.requests == 4 and report.ok == 2
        assert report.shed_rate == 0.25
        assert report.latencies_s == [0.5, 0.1]

    def test_nearest_rank_percentiles(self):
        report = LoadReport()
        for latency in (0.01 * i for i in range(1, 101)):
            report.record("ok", latency)
        # Nearest-rank over indices 0..99: p maps to round(p/100 * 99).
        assert report.percentile(50) == pytest.approx(0.51)
        assert report.percentile(99) == pytest.approx(0.99)
        assert report.percentile(100) == pytest.approx(1.00)

    def test_empty_report_is_all_zeros(self):
        payload = LoadReport().to_dict()
        assert payload["requests"] == 0
        assert payload["shed_rate"] == 0.0
        assert payload["latency_s"]["p99"] == 0.0


class TestEndToEnd:
    def test_all_ok_and_verified(self):
        report, svc = load_against_service(
            {"clients": 4, "requests_per_client": 6, "seed": 3}
        )
        assert report.requests == 24
        assert report.wrong == 0
        # Population has 7 entries, cache 1024: every request is answered ok
        # (first computes, the rest are cache hits) and verification passes.
        assert report.ok == 24
        assert svc.counters["requests"] == 24

    def test_overload_sheds_explicitly_but_never_lies(self):
        report, _ = load_against_service(
            {"clients": 12, "requests_per_client": 8, "seed": 1},
            queue_limit=1,
            cache_capacity=0,
            batch_size=1,
        )
        assert report.requests == 96
        assert report.wrong == 0  # degraded availability, never wrong answers
        assert report.ok + report.statuses.get("shed", 0) == report.requests
        assert report.ok > 0

    def test_duration_mode_terminates(self):
        report, _ = load_against_service(
            {"clients": 2, "duration_s": 0.2, "seed": 0}
        )
        assert report.requests > 0
        assert report.wall_s >= 0.2
