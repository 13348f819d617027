"""A reference service: the shape of a cached request, in stdlib code only.

A service request spends its time in the interpreter (parsing, hashing,
JSON) and in the kernel's loopback TCP path, one connection per
request. The host's speed drifts, and it does not slow both alike:
between its fast and slow spells the pure-Python loop of
:mod:`perfbench.calibrate` moved about 1.8x, a cached request about
1.3x, so scaling service latencies by that loop over-corrected them.
This server answers a fixed request with the same kinds of work as a
cache hit -- an asyncio TCP server, DSL-like tokenising, canonical
JSON, blake2b, a JSON reply, ``Connection: close`` -- so timing a few
round trips to it tracks the speed a service request sees. None of it
is program code, so a change to the program cannot move it.

``python -m perfbench.refservice`` serves on a free local port and
prints it; :class:`RefService` starts it and times round trips.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import re
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass

# Wall seconds ROUND_TRIPS requests take at the reference speed: about
# their median on the 2-vCPU development VM, so scaled figures stay
# near raw ones there.
REFERENCE_S = 0.020
ROUND_TRIPS = 24
# SO_LINGER on, zero timeout: close() resets the connection (no TIME_WAIT).
ABORTIVE_CLOSE = struct.pack("ii", 1, 0)
STARTUP_TIMEOUT_S = 60.0

TOKEN = re.compile(r"\s*([A-Za-z_][\w.]*|@\d+|[-+]?\d[\w.+-]*|[(),;:=])")
REQUEST = json.dumps({
    "spec": "algorithm: dac@1(epsilon=1e-4, n=7); network: dynadegree@1(selector=nearest, "
            "window=2); adversary: quorum@1; faults: crash@1",
    "seeds": [11, 22, 33, 44],
})


@dataclass(frozen=True)
class Part:
    name: str
    params: tuple[str, ...]


def parse(text: str) -> list[Part]:
    """Split a spec-like text into named parts with their parameter tokens."""
    parts: list[Part] = []
    name: str | None = None
    params: list[str] = []
    for token in TOKEN.findall(text):
        if token == ";":
            parts.append(Part(name or "", tuple(params)))
            name, params = None, []
        elif name is None and token != ":":
            name = token
        elif token not in "(),:=@":
            params.append(token)
    if name is not None:
        parts.append(Part(name, tuple(params)))
    return parts


def answer(body: bytes) -> bytes:
    """The reply to one request: canonical key, then a payload per seed."""
    request = json.loads(body)
    parts = parse(request["spec"])
    canonical = json.dumps({"parts": [[part.name, list(part.params)] for part in parts],
                            "seeds": request["seeds"]}, sort_keys=True)
    key = hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()
    results = [{"seed": seed, "status": "hit",
                "result": {"key": key, "rounds": 12, "correct": True,
                           "values": [0.125 * i for i in range(7)]}}
               for seed in request["seeds"]]
    return json.dumps({"key": key, "results": results, "hit": len(results)}).encode()


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    reply = answer(await reader.readexactly(length))
    writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(reply) + reply)
    await writer.drain()
    writer.close()


async def serve() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await server.serve_forever()


class RefService:
    """The reference server in its own process, and a timer for it.

    As a context manager it starts the server on entry and stops it,
    waiting for it to end, on exit.
    """

    def __init__(self) -> None:
        self._server: subprocess.Popen | None = None
        self._port = 0

    def start(self) -> None:
        self._server = subprocess.Popen([sys.executable, "-m", "perfbench.refservice"],
                                        stdout=subprocess.PIPE, text=True)
        line = self._server.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"reference service did not start: {line!r}")
        self._port = int(line)
        self.calibrate()  # first connections warm both sides up

    def calibrate(self) -> float:
        """Wall seconds ``ROUND_TRIPS`` requests take now."""
        start = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            connection = http.client.HTTPConnection("127.0.0.1", self._port,
                                                    timeout=STARTUP_TIMEOUT_S)
            connection.connect()
            connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, ABORTIVE_CLOSE)
            connection.request("POST", "/", REQUEST, {"Content-Type": "application/json"})
            json.loads(connection.getresponse().read())
            connection.close()
        return time.perf_counter() - start

    def __enter__(self) -> RefService:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop the server and wait for it."""
        server, self._server = self._server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=STARTUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()


if __name__ == "__main__":
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
