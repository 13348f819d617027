"""Shared-memory topology arenas: structure tables keyed by content hash.

The batch kernels (:mod:`repro.sim.batch`) derive one boolean
delivered-from matrix per topology in an adversary's replay cycle.
Before this module every worker process rebuilt those matrices from
scratch, and every per-engine cache grew without bound. The arena
layer fixes both with one canonical table and two tiers of reuse:

- :func:`delivered_table` -- a process-wide memo of **read-only**
  receiver-major ``(n, n)`` bool arrays, keyed by
  ``Topology.content_hash`` (stable across processes, unlike
  ``hash()``). The table is the pure graph: row ``v`` flags the
  senders ``v`` hears from, no diagonal -- live-set diagonals are a
  per-execution concern applied on copies downstream.
- :class:`ArenaRegistry` -- the dispatching process packs the tables a
  sweep will need into ``multiprocessing.shared_memory`` segments,
  once per content hash, and ships workers a tiny **manifest**
  ``{content_hash: (segment, offset, n)}`` instead of re-pickled
  arrays. Workers :func:`attach_manifest` and serve
  :func:`delivered_table` hits zero-copy straight out of the segment.

Cleanup is deterministic: the registry unlinks its segments on
``close()`` (wired to ``repro.sim.parallel.close_pool``), and an
``atexit`` hook plus a best-effort ``SIGTERM`` relay cover abnormal
exits (KeyboardInterrupt included -- the interpreter still runs
``atexit`` handlers). Everything degrades gracefully: without numpy or
``shared_memory``, publication is skipped, attachment is a no-op, and
callers silently keep the plain pickle path -- results are identical
either way, only the copies differ.
"""

from __future__ import annotations

import atexit
import os
import signal
from typing import Any

from repro.net.topology import Topology

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shared memory
    _shm = None

def arenas_available() -> bool:
    """Whether shared-memory arenas can operate in this interpreter."""
    return _np is not None and _shm is not None


# -- Tier 1: process-wide table memo ------------------------------------

# Bounded like the Topology intern table: cleared wholesale when full.
# An adversary cycle needs at most n tables per live set, so steady
# state for realistic sweeps sits far below the cap.
_TABLE_MEMO_MAX = 1024
_table_memo: dict[int, Any] = {}

# Worker-side state populated by attach_manifest(): open segments by
# name, and zero-copy read-only views by content hash. Both live for
# the worker's lifetime (persistent pools keep workers warm) and are
# released in dependency order by the atexit hook below.
_attached_segments: dict[str, Any] = {}
_attached_tables: dict[int, Any] = {}


def delivered_table(topology: Topology) -> Any:
    """The read-only receiver-major ``(n, n)`` bool table for ``topology``.

    ``table[v, u]`` is True iff edge ``(u, v)`` exists (v hears u); no
    diagonal. Served from, in order: a shared-memory view attached via
    :func:`attach_manifest` (warm workers), the process-wide memo, or
    a fresh build from :meth:`Topology.delivered_bytes`. Returns
    ``None`` when numpy is unavailable (the serial fallback
    never asks). The array is never writable -- kernels that need a
    diagonal or a transpose copy it first.
    """
    if _np is None:
        return None
    key = topology.content_hash
    cached = _attached_tables.get(key)
    if cached is not None:
        return cached
    cached = _table_memo.get(key)
    if cached is None:
        n = topology.n
        # frombuffer over immutable bytes yields a non-writable array;
        # reshape preserves that, so the view is read-only end to end.
        cached = _np.frombuffer(topology.delivered_bytes(), dtype=bool).reshape(n, n)
        if len(_table_memo) >= _TABLE_MEMO_MAX:
            _table_memo.clear()
        _table_memo[key] = cached
    return cached


# -- Tier 2: shared-memory publication ----------------------------------

# Registries needing cleanup at interpreter exit. Registered lazily so
# importing this module has no side effects.
_live_registries: list["ArenaRegistry"] = []
_cleanup_installed = False
_segment_counter = 0


def _segment_name() -> str:
    """A collision-resistant, recognizably-ours segment name."""
    global _segment_counter
    _segment_counter += 1
    return f"repro_arena_{os.getpid()}_{_segment_counter}"


def _cleanup_all() -> None:
    """atexit/signal hook: unlink every live registry's segments."""
    for registry in list(_live_registries):
        registry.close()


def _install_cleanup() -> None:
    global _cleanup_installed
    if _cleanup_installed:
        return
    _cleanup_installed = True
    atexit.register(_cleanup_all)
    try:
        # Only claim SIGTERM when nobody else has: a host harness with
        # its own handler keeps it (its shutdown path reaches atexit).
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:

            def _on_term(signum: int, frame: Any) -> None:
                _cleanup_all()
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

            signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


class ArenaRegistry:
    """Parent-side ledger of published shared-memory table segments.

    ``publish`` packs the delivered tables of novel topologies (by
    content hash) into one fresh segment per call and extends the
    manifest; ``close`` unlinks everything and resets, after which the
    registry is reusable. All failure modes degrade to ``None``
    manifests -- callers fall back to plain pickled dispatch.
    """

    def __init__(self) -> None:
        self._segments: list[Any] = []
        self._manifest: dict[int, tuple[str, int, int]] = {}

    @property
    def manifest(self) -> dict[int, tuple[str, int, int]]:
        """A snapshot of ``{content_hash: (segment_name, offset, n)}``."""
        return dict(self._manifest)

    def segment_names(self) -> list[str]:
        """Names of the currently-published segments (tests/diagnostics)."""
        return [segment.name for segment in self._segments]

    def publish(self, topologies: list[Topology]) -> dict[int, tuple[str, int, int]] | None:
        """Publish any not-yet-published tables; return the manifest.

        Returns ``None`` when arenas are unavailable or nothing has
        ever been published (callers then skip manifest shipping).
        """
        if not arenas_available():
            return None
        novel: list[tuple[int, Topology]] = []
        seen: set[int] = set()
        for topology in topologies:
            key = topology.content_hash
            if key in self._manifest or key in seen:
                continue
            seen.add(key)
            novel.append((key, topology))
        if novel:
            total = sum(topology.n * topology.n for _, topology in novel)
            segment = None
            try:
                segment = _shm.SharedMemory(create=True, size=max(total, 1), name=_segment_name())
            except Exception:
                try:
                    segment = _shm.SharedMemory(create=True, size=max(total, 1))
                except Exception:
                    segment = None
            if segment is None:
                return self._manifest.copy() if self._manifest else None
            if self not in _live_registries:
                _live_registries.append(self)
                _install_cleanup()
            offset = 0
            for key, topology in novel:
                data = topology.delivered_bytes()
                segment.buf[offset : offset + len(data)] = data
                self._manifest[key] = (segment.name, offset, topology.n)
                offset += len(data)
            self._segments.append(segment)
        return self._manifest.copy() if self._manifest else None

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        segments, self._segments = self._segments, []
        self._manifest = {}
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            try:
                segment.unlink()
            except Exception:
                # Already unlinked (e.g. a worker's resource tracker
                # raced us at exit) -- the goal state is reached.
                pass
        if self in _live_registries:
            _live_registries.remove(self)


# -- Worker-side attachment ---------------------------------------------


def attach_manifest(manifest: dict[int, tuple[str, int, int]] | None) -> bool:
    """Map a manifest's tables into this process's attached-table cache.

    Called on the worker side before a batched trial runs; idempotent
    and incremental (hashes already attached are skipped, segments are
    opened once). Returns True when every entry is served zero-copy;
    any failure leaves the affected hashes to the local build path --
    results are unaffected, only the copy count.
    """
    if not manifest or not arenas_available():
        return False
    complete = True
    for key, (name, offset, n) in manifest.items():
        if key in _attached_tables:
            continue
        segment = _attached_segments.get(name)
        if segment is None:
            try:
                segment = _shm.SharedMemory(name=name)
            except Exception:
                complete = False
                continue
            # Attaching re-registers the name with the resource
            # tracker, but pool workers (forked *and* spawned -- the
            # tracker fd ships in the spawn preparation data) share the
            # dispatching process's tracker, so this is a set no-op:
            # ownership and unlinking stay with the parent registry.
            _attached_segments[name] = segment
            _ensure_attach_cleanup()
        try:
            view = _np.frombuffer(
                segment.buf, dtype=bool, count=n * n, offset=offset
            ).reshape(n, n)
            view.flags.writeable = False
            _attached_tables[key] = view
        except Exception:
            complete = False
    return complete


_attach_cleanup_installed = False


def _ensure_attach_cleanup() -> None:
    global _attach_cleanup_installed
    if not _attach_cleanup_installed:
        _attach_cleanup_installed = True
        atexit.register(_release_attachments)


def _release_attachments() -> None:
    """Worker atexit: drop views before closing segments (ordering
    matters -- closing shared memory with live exported views raises
    ``BufferError``)."""
    _attached_tables.clear()
    _table_memo.clear()
    segments = list(_attached_segments.values())
    _attached_segments.clear()
    for segment in segments:
        try:
            segment.close()
        except Exception:  # pragma: no cover - stray external view
            pass
