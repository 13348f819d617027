"""The HTTP endpoint end to end: daemon up, submit, cache, stream.

Each test runs a real :class:`BackgroundServer` (its own thread and
event loop, ephemeral port) and talks to it through the stdlib
:class:`ServiceClient` -- the same stack ``repro.cli serve`` /
``submit`` use. The acceptance scenario lives here: submitting a
semantically identical but differently-spelled spec returns the cached
result without running any new trial.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.scenario import resolve
from repro.service import BackgroundServer, ServiceClient, ServiceError
from repro.service.server import ServiceServer

SPEC = "algorithm: dac@1(n=6); rounds: 40"
RESPELLED = "algorithm: dac@1(epsilon=1e-3, n=6); seed: 9; rounds: 40"


@pytest.fixture()
def service():
    with BackgroundServer(workers=2) as server:
        yield ServiceClient(server.host, server.port)


def test_health_and_stats(service):
    assert service.health() == {"ok": True}
    stats = service.stats()
    assert stats["jobs"]["accepted"] == 0
    assert stats["dispatch"] == {"workers": 2, "batch": 1, "pool": "persist"}


def test_resubmission_of_respelled_spec_is_served_from_cache(service):
    first = service.submit(SPEC, seeds=[0, 1])
    assert [row["status"] for row in first["results"]] == ["computed"] * 2
    second = service.submit(RESPELLED, seeds=[0, 1])
    assert second["scenario"] == first["scenario"]
    assert [row["status"] for row in second["results"]] == ["hit"] * 2
    assert json.dumps(
        [row["result"] for row in second["results"]], sort_keys=True
    ) == json.dumps([row["result"] for row in first["results"]], sort_keys=True)
    # No new trial ran for the second submission.
    stats = service.stats()
    assert stats["trials"]["computed"] == 2
    assert stats["cache"]["hits"] == 2


def test_service_results_match_direct_execution(service):
    payload = service.submit(SPEC, seeds=[3])
    direct = resolve(SPEC).run(3)
    assert payload["results"][0]["result"] == direct


def test_spec_json_object_and_envelope_forms(service):
    spec_dict = resolve(SPEC).canonical_spec().to_dict()
    bare = service.submit(spec_dict, seeds=[0])
    enveloped = service.submit(SPEC, seeds=[0])
    assert bare["scenario"] == enveloped["scenario"]
    # The bare run computed; the enveloped resubmission hit its cache.
    assert enveloped["results"][0]["status"] == "hit"


def test_cached_endpoint_round_trip(service):
    payload = service.submit(SPEC, seeds=[7])
    scenario = payload["scenario"]
    cached = service.cached(scenario, 7)
    assert cached["result"] == payload["results"][0]["result"]
    assert service.cached(scenario, 999) is None


def test_streamed_submission_orders_lifecycle_and_events(service):
    entries = []
    payload = service.submit(SPEC, seeds=[0, 1], on_event=entries.append)
    assert payload["kind"] == "result"
    assert [row["status"] for row in payload["results"]] == ["computed"] * 2
    kinds = [entry["kind"] for entry in entries]
    assert kinds[0] == "job" and entries[0]["status"] == "accepted"
    assert "trial" in kinds
    trial_seeds = [e["seed"] for e in entries if e["kind"] == "trial"]
    assert trial_seeds == [0, 1]
    # Streaming injects observe for event forwarding, but the payload
    # must stay identical to a bare (unobserved) direct run.
    assert payload["results"][0]["result"] == resolve(SPEC).run(0)
    assert [e["event"] for e in entries if e["kind"] == "event"] == [
        "RunFinished"
    ] * 2


def test_bad_spec_maps_to_http_400(service):
    with pytest.raises(ServiceError) as excinfo:
        service.submit("algorithm: no-such-family@1(n=6)")
    assert excinfo.value.status == 400
    assert "no-such-family" in str(excinfo.value)


def test_unknown_route_maps_to_http_404(service):
    with pytest.raises(ServiceError) as excinfo:
        service._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_malformed_envelope_fields_are_rejected(service):
    with pytest.raises(ServiceError) as excinfo:
        service._request(
            "POST", "/jobs", json.dumps({"spec": SPEC, "sneeds": [1]})
        )
    assert excinfo.value.status == 400
    assert "sneeds" in str(excinfo.value)
    with pytest.raises(ServiceError) as excinfo:
        service._request(
            "POST", "/jobs", json.dumps({"spec": SPEC, "seeds": ["one"]})
        )
    assert excinfo.value.status == 400


def _post(body: bytes, length: bytes | None = None) -> bytes:
    size = str(len(body)).encode("ascii") if length is None else length
    return b"POST /jobs HTTP/1.1\r\nContent-Length: " + size + b"\r\n\r\n" + body


@pytest.mark.parametrize(
    "request_bytes, message",
    [
        (_post(b"", length=b"abc"), b"Content-Length must be an integer"),
        (_post(b"\xff\xfe algorithm: dac@1(n=6)"), b"not UTF-8"),
        (
            _post(json.dumps({"spec": SPEC, "seeds": []}).encode("utf-8")),
            b"seeds must name at least one seed",
        ),
        (_post(b"[" * 100_000), b"nests too deeply"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", b"too long"),
        (
            _post(json.dumps({"algorithm": {"name": 5}}).encode("utf-8")),
            b"algorithm.name",
        ),
        # Content-Length is 1*DIGIT (RFC 9110 section 8.6), though int()
        # takes every one of these spellings.
        (_post(b"hello", length=b"-5"), b"ASCII digits only"),
        (_post(b"hello", length=b"+5"), b"ASCII digits only"),
        (_post(b"helloworld", length=b"1_0"), b"ASCII digits only"),
        (_post(b"hello", length="\u0665".encode("utf-8")), b"ASCII digits only"),
        # A size past its declared ceiling is refused before anything is
        # built (without the ceiling the daemon built it and was killed).
        (
            _post(json.dumps({"spec": f"algorithm: dac@1(n={10**30})"}).encode("utf-8")),
            b"algorithm.n",
        ),
        # Outside the declared domain, not only past a ceiling: the
        # builder used to raise a plain ValueError (a 500).
        (
            _post(b'{"algorithm": {"name": "dac", "params": {"n": 5, "epsilon": NaN}}}'),
            b"algorithm.epsilon",
        ),
        (_post(b"algorithm: dac@1(n=4, f=2)"), b"algorithm.f"),
    ],
    ids=[
        "content-length-abc",
        "body-not-utf8",
        "empty-seed-list",
        "deeply-nested-json",
        "header-over-line-limit",
        "component-name-not-text",
        "content-length-negative",
        "content-length-plus-sign",
        "content-length-underscore",
        "content-length-arabic-indic-digit",
        "n-past-its-ceiling",
        "epsilon-nan",
        "dac-n-at-most-2f",
    ],
)
def test_malformed_requests_get_a_400_not_a_500(service, request_bytes, message):
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(request_bytes)
        raw = _recv_until_close(sock)
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:200]
    assert message in raw
    assert service.health() == {"ok": True}  # the daemon keeps serving


def test_content_length_past_the_int_digit_limit_gets_a_413(service):
    length = b"9" * 5000  # int() refuses strings over 4300 digits
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(_post(b"", length=length))
        raw = _recv_until_close(sock)
    assert raw.startswith(b"HTTP/1.1 413 "), raw[:200]
    assert service.health() == {"ok": True}


def _recv_until_close(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def test_concurrent_connections_keep_headers_isolated(service):
    # Connection A stalls mid-head while connection B completes a
    # request that carries a Content-Length. A's body read must use
    # A's (empty) headers, not B's -- per-request state is
    # connection-local, never stored on the shared server instance.
    slow = socket.create_connection((service.host, service.port), timeout=10)
    fast = socket.create_connection((service.host, service.port), timeout=10)
    try:
        slow.sendall(b"GET /healthz HTTP/1.1\r\n")  # head unfinished
        time.sleep(0.2)  # let the server park inside A's header loop
        fast.sendall(b"POST /nope HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
        response_fast = _recv_until_close(fast)
        assert response_fast.startswith(b"HTTP/1.1 404")
        slow.sendall(b"\r\n")  # A's head ends with no Content-Length
        response_slow = _recv_until_close(slow)
        assert response_slow.startswith(b"HTTP/1.1 200")
        assert b'"ok": true' in response_slow
    finally:
        slow.close()
        fast.close()


def test_streamed_failure_keeps_a_single_status_line(service, monkeypatch):
    import repro.service.jobs as jobs_module

    def exploding_run_trials(*args, **kwargs):
        raise RuntimeError("worker blew up")

    monkeypatch.setattr(jobs_module, "run_trials", exploding_run_trials)
    body = json.dumps({"spec": SPEC, "stream": True}).encode("utf-8")
    head = (
        "POST /jobs?stream=1 HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n"
        "\r\n"
    ).encode("latin-1")
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(head + body)
        raw = _recv_until_close(sock)
    # One 200 head, then the failure travels in-stream -- never a
    # second HTTP status line appended to the chunked body.
    assert raw.count(b"HTTP/1.1") == 1
    assert raw.startswith(b"HTTP/1.1 200")
    assert b'"kind": "error"' in raw
    assert b"worker blew up" in raw
    assert raw.endswith(b"0\r\n\r\n")


def test_stream_errors_after_head_stay_in_stream():
    # Even a failure while tailing the log (after the chunked head is
    # on the wire) is reported as an in-stream error chunk plus the
    # terminal chunk, not as a fresh status line.
    class _Writer:
        def __init__(self) -> None:
            self.data = bytearray()

        def write(self, data: bytes) -> None:
            self.data += data

        async def drain(self) -> None:
            pass

        def is_closing(self) -> bool:
            return False

    class _ExplodingLog:
        async def tail(self):
            yield {"kind": "job", "status": "accepted"}
            raise RuntimeError("log exploded")

    class _Job:
        id = "job-1"
        log = _ExplodingLog()

        async def result(self):
            return {}

    async def scenario():
        writer = _Writer()
        marks: list[bool] = []
        server = ServiceServer(manager=None)  # _stream touches no manager
        await server._stream(writer, _Job(), lambda: marks.append(True))
        return bytes(writer.data), marks

    raw, marks = asyncio.run(scenario())
    assert marks == [True]
    assert raw.count(b"HTTP/1.1") == 1
    assert b'"kind": "error"' in raw
    assert b"log exploded" in raw
    assert raw.endswith(b"0\r\n\r\n")


def test_cache_survives_daemon_restart(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with BackgroundServer(cache_path=path) as server:
        client = ServiceClient(server.host, server.port)
        before = client.submit(SPEC, seeds=[0, 1])
        assert [row["status"] for row in before["results"]] == ["computed"] * 2
    with BackgroundServer(cache_path=path) as server:
        client = ServiceClient(server.host, server.port)
        after = client.submit(RESPELLED, seeds=[0, 1])
        assert [row["status"] for row in after["results"]] == ["hit"] * 2
        assert [row["result"] for row in after["results"]] == [
            row["result"] for row in before["results"]
        ]
        stats = client.stats()
        assert stats["trials"]["computed"] == 0
