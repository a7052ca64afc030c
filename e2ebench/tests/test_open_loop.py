"""Open-loop latency is counted from each request's due time."""

import asyncio

import pytest

from e2ebench.workloads import Answer, Request, drive_open_loop, inflight_union, serve_schedule

DELAY_S = 0.15


async def _slow_server():
    """A protocol-speaking stub that answers every request after DELAY_S."""
    from repro.service.protocol import make_response, read_message, write_message

    async def handle(reader, writer):
        while True:
            message = await read_message(reader)
            if message is None:
                break
            await asyncio.sleep(DELAY_S)
            await write_message(writer, make_response(message["id"], "ok", result={"echo": message["kind"]}))
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_a_stall_delays_later_requests_and_counts_from_due():
    schedule = [Request(0.0, "cover", {}), Request(0.01, "cover", {}), Request(0.02, "cover", {})]

    async def scenario():
        server = await _slow_server()
        port = server.sockets[0].getsockname()[1]
        try:
            return await drive_open_loop("127.0.0.1", port, schedule, connections=1)
        finally:
            server.close()
            await server.wait_closed()

    answers, origin = asyncio.run(scenario())
    by_index = sorted(answers, key=lambda a: a.index)
    latencies = [a.done - a.due for a in by_index]
    # One connection: each request waits for the ones before it.
    assert latencies[0] == pytest.approx(DELAY_S, abs=0.05)
    assert latencies[1] >= 2 * DELAY_S - 0.01 - 0.005
    assert latencies[2] >= 3 * DELAY_S - 0.02 - 0.005
    for answer, request in zip(by_index, schedule):
        assert answer.due == pytest.approx(origin + request.due_s)
        assert 0.0 <= answer.sent - answer.due < 0.05
        assert answer.status == "ok"


def test_two_connections_overlap():
    schedule = [Request(0.0, "cover", {}), Request(0.0, "cover", {})]

    async def scenario():
        server = await _slow_server()
        port = server.sockets[0].getsockname()[1]
        try:
            return await drive_open_loop("127.0.0.1", port, schedule, connections=2)
        finally:
            server.close()
            await server.wait_closed()

    answers, _ = asyncio.run(scenario())
    assert max(a.done - a.due for a in answers) < 2 * DELAY_S


def test_schedule_is_seeded_and_mixed():
    first = serve_schedule(5, 30.0)
    assert first == serve_schedule(5, 30.0)
    assert first != serve_schedule(6, 30.0)
    kinds = {request.kind for request in first}
    assert kinds == {"cover", "maxcover", "estimate"}
    assert all(b.due_s >= a.due_s for a, b in zip(first, first[1:]))
    keys = [(r.kind, tuple(sorted(r.params.items()))) for r in first]
    repeats = len(keys) - len(set(keys))
    assert 0.3 < repeats / len(keys) < 0.6
    assert all(r.params.get("k", 1) >= 1 for r in first)


def test_inflight_union_merges_overlaps():
    answers = [
        Answer(0, due=0.0, sent=0.0, done=2.0, status="ok"),
        Answer(1, due=1.0, sent=1.0, done=3.0, status="ok"),
        Answer(2, due=5.0, sent=5.0, done=6.0, status="ok"),
    ]
    assert inflight_union(answers) == pytest.approx(4.0)
