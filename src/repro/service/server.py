"""The thin HTTP/JSON endpoint over the async job manager.

A deliberately small, dependency-free HTTP/1.1 server on
``asyncio.start_server`` -- enough surface for the service contract
(``docs/service.md``) and nothing more:

- ``POST /jobs`` -- submit a scenario. The body is either a raw spec
  (DSL text or a spec JSON object) or an envelope
  ``{"spec": ..., "seeds": [...], "stream": bool, "events": bool}``.
  Without ``stream`` the response is one JSON payload (per-seed
  results tagged ``computed`` / ``hit`` / ``coalesced``); with it the
  response is chunked ``application/x-ndjson``: the job's event log
  tailed line by line, then a final ``{"kind": "result", ...}`` line.
- ``GET /cache/<scenario>/<seed>`` -- cached-result lookup by content
  hash (no side effects, counters untouched).
- ``GET /stats`` -- the manager's deterministic counters.
- ``GET /healthz`` -- liveness.

Spec errors map to 400 (the :class:`~repro.scenario.spec.SpecError`
message names the offending field), computation failures to 500;
failed trials are never cached. Every connection is handled
``Connection: close`` -- submissions are long-lived relative to
connection setup, and one socket per job keeps the server trivially
correct. Payloads contain no wall-clock values: identical request
sequences produce byte-identical responses.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any
from urllib.parse import parse_qs, unquote, urlsplit

from repro.scenario.spec import SpecError
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobManager

__all__ = ["BackgroundServer", "ServiceServer", "serve"]

_MAX_BODY = 1 << 20  # one-line specs; a megabyte is already generous


class _RequestError(Exception):
    """A client error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_submission(
    body: str, query: dict[str, list[str]]
) -> tuple[Any, list[int] | None, bool, bool]:
    """``(spec, seeds, stream, events)`` from a POST /jobs request.

    ``spec`` is DSL text or a spec JSON object; the manager converts
    and resolves it (and memoizes the result by its text).
    """
    spec: Any = body
    seeds: list[int] | None = None
    stream = query.get("stream", ["0"])[-1] not in ("0", "", "false")
    events = query.get("events", ["0"])[-1] not in ("0", "", "false")
    try:
        data = json.loads(body)
    except json.JSONDecodeError:
        data = None  # DSL text; resolve() parses it
    except RecursionError:
        raise _RequestError(400, "request JSON nests too deeply") from None
    if isinstance(data, dict) and "spec" in data:
        unknown = set(data) - {"spec", "seeds", "stream", "events"}
        if unknown:
            raise _RequestError(
                400, f"unknown submission fields {sorted(unknown)!r}"
            )
        spec = data["spec"]
        raw_seeds = data.get("seeds")
        if raw_seeds is not None:
            if not isinstance(raw_seeds, list) or not all(
                isinstance(seed, int) and not isinstance(seed, bool)
                for seed in raw_seeds
            ):
                raise _RequestError(400, "seeds must be a list of integers")
            if not raw_seeds:
                raise _RequestError(400, "seeds must name at least one seed")
            seeds = raw_seeds
        stream = bool(data.get("stream", stream))
        events = bool(data.get("events", events))
    elif isinstance(data, dict):
        spec = data  # a bare ScenarioSpec JSON object
    if not isinstance(spec, (str, dict)):
        raise _RequestError(400, "spec must be DSL text or a JSON object")
    if isinstance(spec, str) and not spec.strip():
        raise _RequestError(400, "empty request body; POST a scenario spec")
    return spec, seeds, stream, events


class ServiceServer:
    """One listening endpoint bound to one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start serving; ``port`` is updated for ``port=0``."""
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self, shutdown_pool: bool = True) -> None:
        """Stop listening, then close the manager (and optionally the pool)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close(shutdown_pool=shutdown_pool)

    # -- plumbing ---------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        streamed = False

        def mark_streamed() -> None:
            # Called by _stream once the chunked 200 head is on the
            # wire; from then on errors may only travel in-stream.
            nonlocal streamed
            streamed = True

        try:
            method, path, query, headers = await self._read_head(reader)
            body = await self._read_body(reader, headers)
            await self._route(method, path, query, body, writer, mark_streamed)
        except _RequestError as exc:
            self._respond(writer, exc.status, {"error": str(exc)})
        except SpecError as exc:
            self._respond(writer, 400, {"error": str(exc), "field": exc.field})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - defensive catch-all
            if not streamed:
                self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, list[str]], dict[str, str]]:
        request = (await self._read_line(reader)).decode("latin-1").strip()
        parts = request.split()
        if len(parts) != 3:
            raise _RequestError(400, f"malformed request line {request!r}")
        method, target, _version = parts
        split = urlsplit(target)
        # Headers stay connection-local: one ServiceServer handles
        # concurrent connections, so nothing per-request lives on self.
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), unquote(split.path), parse_qs(split.query), headers

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the reader's line limit (64 KiB) was overrun
            raise _RequestError(400, "request line or header too long") from None

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> str:
        raw_length = headers.get("content-length", "0") or "0"
        # RFC 9110 section 8.6: 1*DIGIT. int() would also take a sign,
        # underscores and non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _RequestError(
                400,
                "Content-Length must be an integer of ASCII digits only, "
                f"got {raw_length!r}",
            )
        try:
            length = int(raw_length)
        except ValueError:  # past int()'s digit limit, so far over the cap
            length = _MAX_BODY + 1
        if length > _MAX_BODY:
            raise _RequestError(413, f"request body over {_MAX_BODY} bytes")
        if length == 0:
            return ""
        try:
            return (await reader.readexactly(length)).decode("utf-8")
        except UnicodeDecodeError:
            raise _RequestError(400, "request body is not UTF-8 text") from None

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, list[str]],
        body: str,
        writer: asyncio.StreamWriter,
        mark_streamed: Any = None,
    ) -> None:
        segments = [part for part in path.split("/") if part]
        if method == "GET" and segments == ["healthz"]:
            self._respond(writer, 200, {"ok": True})
            return
        if method == "GET" and segments == ["stats"]:
            self._respond(writer, 200, self.manager.stats())
            return
        if method == "GET" and len(segments) == 3 and segments[0] == "cache":
            _, scenario, raw_seed = segments
            try:
                seed = int(raw_seed)
            except ValueError:
                raise _RequestError(400, f"seed must be an integer, got {raw_seed!r}")
            result = self.manager.cache.peek((scenario, seed))
            if result is None:
                self._respond(
                    writer, 404, {"error": f"no cached result for {scenario}/{seed}"}
                )
                return
            self._respond(
                writer,
                200,
                {"scenario": scenario, "seed": seed, "result": result},
            )
            return
        if method == "POST" and segments == ["jobs"]:
            spec, seeds, stream, events = _parse_submission(body, query)
            job = await self.manager.submit(spec, seeds=seeds, events=events or stream)
            if stream:
                await self._stream(writer, job, mark_streamed)
            else:
                try:
                    payload = await job.result()
                except Exception as exc:
                    self._respond(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}", "job": job.id},
                    )
                    return
                self._respond(writer, 200, payload)
            return
        raise _RequestError(404, f"no route for {method} {path}")

    # -- response writing -------------------------------------------------

    def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        if writer.is_closing():
            return
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        job: Job,
        mark_streamed: Any = None,
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        if mark_streamed is not None:
            mark_streamed()
        await writer.drain()
        try:
            async for entry in job.log.tail():
                self._chunk(writer, entry)
                await writer.drain()
            payload = await job.result()
            self._chunk(writer, {"kind": "result", **payload})
        except (ConnectionError, asyncio.IncompleteReadError):
            raise  # client went away; the terminal chunk has no reader
        except Exception as exc:
            self._chunk(
                writer,
                {
                    "kind": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "job": job.id,
                },
            )
        writer.write(b"0\r\n\r\n")

    @staticmethod
    def _chunk(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


async def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    cache_path: str | None = None,
    workers: int = 1,
    batch: int = 1,
    queue_size: int = 16,
    ready: Any | None = None,
    shutdown: asyncio.Event | None = None,
) -> None:
    """Run the daemon until cancelled (or ``shutdown`` is set).

    The coroutine behind ``python -m repro.cli serve``: builds the
    cache + manager + server stack, optionally reports the bound
    address through ``ready`` (any object with a
    ``set_result``-compatible ``callback(host, port)`` signature is
    overkill -- a plain callable is called as ``ready(host, port)``),
    then parks until cancellation. Teardown closes the endpoint, the
    manager, and the persistent pool deterministically.
    """
    manager = JobManager(
        cache=ResultCache(cache_path),
        workers=workers,
        batch=batch,
        queue_size=queue_size,
    )
    server = ServiceServer(manager, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server.host, server.port)
    waiter = shutdown if shutdown is not None else asyncio.Event()
    try:
        await waiter.wait()
    finally:
        await server.close()


class BackgroundServer:
    """A daemon on its own thread + event loop (tests, benches, CLIs).

    Context-manager surface: entering starts the thread, runs
    :func:`serve` on a private loop, and blocks until the port is
    bound; exiting requests shutdown and joins. The persistent pool is
    closed by the daemon's teardown path, so a ``with`` block leaves
    no worker processes behind.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_path: str | None = None,
        workers: int = 1,
        batch: int = 1,
        queue_size: int = 16,
    ) -> None:
        self.host = host
        self.port = port
        self._kwargs = {
            "cache_path": cache_path,
            "workers": workers,
            "batch": batch,
            "queue_size": queue_size,
        }
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._failure: BaseException | None = None

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()

            def bound(host: str, port: int) -> None:
                self.host, self.port = host, port
                self._ready.set()

            await serve(
                host=self.host,
                port=self.port,
                ready=bound,
                shutdown=self._shutdown,
                **self._kwargs,
            )

        try:
            asyncio.run(main())
        except BaseException as exc:  # startup/teardown failures surface on join
            self._failure = exc
            self._ready.set()

    def __enter__(self) -> BackgroundServer:
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise RuntimeError("service failed to start") from self._failure
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Request shutdown and join the daemon thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join()
        self._thread = None
        if self._failure is not None and not isinstance(
            self._failure, (KeyboardInterrupt, SystemExit)
        ):
            raise RuntimeError("service exited abnormally") from self._failure
