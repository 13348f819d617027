"""The service-mix workload: the daemon in its own process, two connections.

The daemon is ``python -m repro.cli serve`` (``perfbench.daemon`` in a
traced run) with one worker and an on-disk cache in a fresh directory.
Two client threads drive it closed-loop from one shared op list; a
``coalesce`` op is sent by both threads at once, each on its own
connection.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

from perfbench import grid

CONNECTIONS = 2
STARTUP_TIMEOUT_S = 60.0
# SO_LINGER on, zero timeout: close() resets the connection.
ABORTIVE_CLOSE = struct.pack("ii", 1, 0)


def client(port: int) -> Any:
    """A :class:`repro.service.ServiceClient` whose connections end in a reset.

    The daemon answers every request with ``Connection: close``, so each
    request is one TCP connection. Closed normally, each would leave a
    socket in TIME_WAIT for a minute, and back-to-back runs got slower
    one after another. A reset leaves none, so every run starts from the
    same socket state.
    """
    from repro.service import ServiceClient

    class ResettingClient(ServiceClient):
        def _connect(self):
            connection = super()._connect()
            connection.connect()
            connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, ABORTIVE_CLOSE)
            return connection

    return ResettingClient("127.0.0.1", port, timeout=STARTUP_TIMEOUT_S)


@dataclass
class Outcome:
    """One completed request as the client saw it."""

    op: grid.Op
    latency_s: float
    payload: dict[str, Any] | None
    events: int = 0


class _Dispatcher:
    """Hands ops to the connections; pairs up the twins of ``coalesce`` ops."""

    def __init__(self, ops: Iterator[grid.Op], deadline: float) -> None:
        self._ops = ops
        self._deadline = deadline
        self._lock = threading.Lock()
        self._twin: grid.Op | None = None
        self.barrier = threading.Barrier(CONNECTIONS, timeout=STARTUP_TIMEOUT_S)

    def next(self) -> tuple[grid.Op | None, bool]:
        """``(op, paired)``; ``op`` is None once the window has closed."""
        with self._lock:
            if self._twin is not None:
                op, self._twin = self._twin, None
                return op, True
            if time.perf_counter() >= self._deadline:
                return None, False
            op = next(self._ops)
            if op.copies == 2:
                self._twin = op
                return op, True
            return op, False


@dataclass
class Window:
    """Everything one timed window produced."""

    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    # CPU seconds the connection threads used; they have exited by the
    # time the window ends, so the process's task list no longer has them.
    client_cpu: float = 0.0


class ServiceWorkload:
    """Start the daemon, prime its cache, drive the mix, check payloads."""

    def __init__(self, seed: int, workdir: str, traced: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.trace_file = os.path.join(workdir, "daemon-trace.json")
        self._ops = grid.op_stream(seed)
        self._daemon: subprocess.Popen | None = None
        self.client_factory: Any = None

    def setup(self) -> dict[str, float]:
        """Start the daemon up to ``/healthz``, then prime the cache."""
        os.makedirs(self.workdir, exist_ok=True)
        cache = os.path.join(self.workdir, "cache.jsonl")
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                 "--cache", cache]
        if self.traced:
            command = [sys.executable, "-m", "perfbench.daemon", self.trace_file, *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        self._daemon = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self._daemon.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client_factory = lambda: client(port)
        first = self.client_factory()
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        while True:
            try:
                if first.health().get("ok"):
                    break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
        for scenario, spellings in enumerate(grid.SERVICE_SCENARIOS):
            first.submit(spellings[0], seeds=grid.primed_seeds(self.seed, scenario))
        return {}

    @property
    def daemon_pid(self) -> int:
        return self._daemon.pid

    def daemon_peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``), in MB."""
        with open(f"/proc/{self._daemon.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line for the daemon")

    def run_window(self, seconds: float, tracer: Any = None) -> Window:
        """Drive both connections closed-loop for ``seconds``.

        Successive windows continue one op list, so fresh seeds stay fresh.
        """
        start = time.perf_counter()
        dispatcher = _Dispatcher(self._ops, start + seconds)
        per_thread: list[list[Outcome]] = [[] for _ in range(CONNECTIONS)]
        thread_cpu = [0.0] * CONNECTIONS
        errors: list[BaseException] = []

        def connection(slot: int) -> None:
            client = self.client_factory()
            try:
                while True:
                    op, paired = dispatcher.next()
                    if op is None:
                        return
                    if paired:
                        dispatcher.barrier.wait()
                    per_thread[slot].append(self._send(client, op, tracer))
            except BaseException as exc:  # surfaces below, after join
                errors.append(exc)
                dispatcher.barrier.abort()
            finally:
                thread_cpu[slot] = time.thread_time()

        threads = [threading.Thread(target=connection, args=(slot,), name=f"conn-{slot}")
                   for slot in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = Window(time.perf_counter() - start, client_cpu=sum(thread_cpu))
        if errors:
            raise errors[0]
        window.outcomes = sorted(
            (outcome for outcomes in per_thread for outcome in outcomes),
            key=lambda outcome: outcome.op.index,
        )
        return window

    @staticmethod
    def _send(client: Any, op: grid.Op, tracer: Any) -> Outcome:
        from repro.service import ServiceError

        events = 0

        def on_event(entry: dict[str, Any]) -> None:
            nonlocal events
            if entry.get("kind") == "event":
                events += 1

        span = tracer.span("service.client.request", op.index) if tracer else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                payload = client.submit(op.spec(), seeds=list(op.seeds),
                                        on_event=on_event if op.stream else None,
                                        events=op.stream)
            except (ServiceError, OSError):
                payload = None  # a failed request; the gate counts it
            latency = time.perf_counter() - start
        return Outcome(op, latency, payload, events)

    def check(self, window: Window, cache: dict[tuple[int, int], dict]) -> int:
        """Failed requests: any per-seed result unlike a direct run.

        ``cache`` maps ``(scenario, seed)`` to the direct
        ``resolve(spec).run(seed)`` result and is filled as needed,
        so repeated pairs are run once. Resubmissions of primed pairs
        must also come back as cache hits.
        """
        from repro.scenario import resolve

        resolved = {}
        failed = 0
        for outcome in window.outcomes:
            op, payload = outcome.op, outcome.payload
            ok = payload is not None and [r["seed"] for r in payload["results"]] == list(op.seeds)
            if ok:
                for entry in payload["results"]:
                    key = (op.scenario, entry["seed"])
                    if key not in cache:
                        if op.scenario not in resolved:
                            resolved[op.scenario] = resolve(grid.SERVICE_SCENARIOS[op.scenario][0])
                        cache[key] = resolved[op.scenario].run(entry["seed"])
                    primed = op.kind in ("hit", "respelled")
                    if entry["result"] != cache[key] or (primed and entry["status"] != "hit"):
                        ok = False
            failed += not ok
        return failed

    def close(self) -> None:
        """Stop the daemon (SIGINT runs its own teardown) and wait for it."""
        daemon, self._daemon = self._daemon, None
        if daemon is None:
            return
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGINT)
        try:
            daemon.communicate(timeout=STARTUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()
