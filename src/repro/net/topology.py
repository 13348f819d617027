"""Immutable, hash-consed topologies: the one graph value type.

Every layer of the reproduction -- generators and dynamic-graph
sources in :mod:`repro.net`, the eight adversary modules, the round
engine, the batched executor, the bounded model checker and the trace
persistence layer -- trades in the same frozen graph representation
defined here. Related work on rooted dynamic networks (Winkler et al.,
arXiv:1602.05852) and anonymous fault-tolerant consensus
(Delporte-Gallet et al., arXiv:0903.3461) frames an execution as a
sequence of immutable per-round digraphs; :class:`Topology` makes that
representation first-class so the hot paths can exploit it:

- **canonical storage** -- the edge set is a sorted, deduplicated
  tuple of ``(u, v)`` pairs. Normalizing once at construction means
  equality, hashing, pickling and the content hash all read one flat
  tuple instead of rebuilding set views;
- **hash-consing** -- construction interns instances in a bounded
  table keyed by ``(n, edges)``, so the graph an enforcing adversary
  replays every ``n`` rounds, the graph a periodic schedule cycles
  through, and the graph two explorer branches both propose are *the
  same object*. Identity makes downstream memo hits O(1) and removes
  the per-round re-wrapping the pre-Topology code paid;
- **lazily cached adjacency arrays** -- :meth:`out_rows` /
  :meth:`in_rows` are tuples of sorted neighbor tuples, built at most
  once per unique graph. The engine's routing loop and the batched
  port-derivation path index these directly instead of iterating
  per-node frozensets;
- **a stable content hash** -- :attr:`content_hash` is a 128-bit
  BLAKE2b digest of ``(n, edges)``, identical across processes and
  interpreter runs (unlike ``hash()``), usable in memo keys, trace
  dedup tables and cross-run comparisons.

Topologies are strictly immutable (``__slots__``, no mutators); all
"mutation" APIs (:meth:`union`, :meth:`without_sources`, ...) return
new interned instances. Self-loops are excluded by the model (Section
II-A): self-delivery is the engine's job, never an edge.

:class:`repro.net.graph.DirectedGraph` is kept as a deprecated alias
of this class so existing call sites and external examples keep
running unchanged.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from typing import Any

Edge = tuple[int, int]

# Bounded intern table: cleared wholesale when full (like the adversary
# rotate memo) so adversaries drawing unbounded streams of fresh random
# graphs cannot grow it without limit. Clearing only costs future
# lookups their identity fast path -- equality stays structural.
_INTERN_MAX = 8192


def _restore(n: int, edges: tuple[Edge, ...]) -> "Topology":
    """Pickle/copy entry point: re-intern on load (module-level helper)."""
    return Topology.from_sorted_edges(n, edges)


class Topology:
    """An immutable, interned directed graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes; nodes are the integers ``0..n-1``.
    edges:
        Iterable of directed edges ``(u, v)`` with ``u != v``.
        Duplicates collapse; order is irrelevant (edges are stored
        sorted).

    Raises
    ------
    ValueError
        If an edge endpoint is out of range or a self-loop is supplied.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_edge_set",
        "_out_rows",
        "_in_rows",
        "_hash",
        "_content_hash",
        "_route_cache",
    )

    _intern: dict[tuple[int, tuple[Edge, ...]], "Topology"] = {}
    _complete_cache: dict[int, "Topology"] = {}
    _empty_cache: dict[int, "Topology"] = {}

    def __new__(cls, n: int, edges: Iterable[Edge] = ()) -> "Topology":
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        unique: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed by the model")
            unique.add((u, v))
        return cls._lookup(n, tuple(sorted(unique)))

    @classmethod
    def from_sorted_edges(cls, n: int, edges: Iterable[Edge]) -> "Topology":
        """Trusted fast path: ``edges`` already valid, sorted and deduped.

        Used by the layers that *derive* edge sets from structures that
        are correct by construction (rotate quorum picks, schedule
        tables, filtered copies of existing topologies), skipping the
        per-edge validation of the public constructor.
        """
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        return cls._lookup(n, tuple(edges))

    @classmethod
    def _lookup(cls, n: int, edge_tuple: tuple[Edge, ...]) -> "Topology":
        key = (n, edge_tuple)
        table = Topology._intern
        cached = table.get(key)
        if cached is not None:
            return cached
        self = object.__new__(Topology)
        self._n = n
        self._edges = edge_tuple
        self._edge_set = None
        self._out_rows = None
        self._in_rows = None
        self._hash = None
        self._content_hash = None
        self._route_cache = None
        if len(table) >= _INTERN_MAX:
            table.clear()
        table[key] = self
        return self

    @classmethod
    def from_receiver_lists(
        cls, n: int, senders_per_receiver: Iterable[Iterable[int]]
    ) -> "Topology":
        """Build from per-receiver sender lists (trusted, e.g. quorum picks).

        ``senders_per_receiver[v]`` are the distinct senders delivering
        to ``v`` (no self-links). Edges are canonicalized by bucketing
        senders -- O(m + n), no comparison sort over the edge list --
        and on an intern miss the adjacency rows are seeded directly
        from the buckets, so the common adversary path (picks in, rows
        out) never materializes intermediate sets.
        """
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        buckets: list[list[int]] = [[] for _ in range(n)]
        rows_in: list[tuple[int, ...]] = []
        for receiver, senders in enumerate(senders_per_receiver):
            ordered = sorted(senders)
            rows_in.append(tuple(ordered))
            for u in ordered:
                buckets[u].append(receiver)
        if len(rows_in) != n:
            raise ValueError(f"need {n} receiver lists, got {len(rows_in)}")
        # Receivers were visited in ascending order, so each bucket is
        # already sorted: concatenating buckets yields the canonical
        # (u, v)-lexicographic edge tuple.
        edge_tuple = tuple(
            (u, v) for u, receivers in enumerate(buckets) for v in receivers
        )
        self = cls._lookup(n, edge_tuple)
        if self._out_rows is None:
            self._out_rows = tuple(tuple(receivers) for receivers in buckets)
            self._in_rows = tuple(rows_in)
        return self

    @classmethod
    def complete(cls, n: int) -> "Topology":
        """The complete directed graph (every ordered pair, no self-loops)."""
        cached = cls._complete_cache.get(n)
        if cached is None:
            cached = cls.from_sorted_edges(
                n, ((u, v) for u in range(n) for v in range(n) if u != v)
            )
            cls._complete_cache[n] = cached
        return cached

    @classmethod
    def empty(cls, n: int) -> "Topology":
        """The graph with no edges at all."""
        cached = cls._empty_cache.get(n)
        if cached is None:
            cached = cls.from_sorted_edges(n, ())
            cls._empty_cache[n] = cached
        return cached

    # -- Core views --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_list(self) -> tuple[Edge, ...]:
        """The canonical edge representation: sorted ``(u, v)`` tuples."""
        return self._edges

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set as a frozen set (compatibility / set-algebra view)."""
        cached = self._edge_set
        if cached is None:
            cached = frozenset(self._edges)
            # lint: ignore[topology-mutation] — single-fill lazy cache of a pure derived view
            self._edge_set = cached
        return cached

    @property
    def content_hash(self) -> int:
        """A stable 128-bit hash of ``(n, edges)``.

        Unlike ``hash()`` this is identical across interpreter runs and
        worker processes, so it is safe in memo keys that outlive the
        process, in persisted trace dedup tables, and in cross-run
        comparisons. Equal topologies have equal content hashes; the
        128-bit width makes collisions between distinct topologies
        negligible for memoization purposes.
        """
        cached = self._content_hash
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(str(self._n).encode())
            for u, v in self._edges:
                digest.update(b"%d,%d;" % (u, v))
            cached = int.from_bytes(digest.digest(), "big")
            # lint: ignore[topology-mutation] — single-fill lazy cache of the stable digest
            self._content_hash = cached
        return cached

    def _build_rows(self) -> None:
        out: list[list[int]] = [[] for _ in range(self._n)]
        incoming: list[list[int]] = [[] for _ in range(self._n)]
        for u, v in self._edges:  # sorted by (u, v): rows come out sorted
            out[u].append(v)
            incoming[v].append(u)
        self._out_rows = tuple(tuple(row) for row in out)
        self._in_rows = tuple(tuple(row) for row in incoming)

    def out_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per-node outgoing adjacency arrays (sorted), built lazily once.

        ``out_rows()[u]`` are the receivers of ``u``. This is the view
        the engine's routing loop and the batched port-derivation path
        read directly.
        """
        if self._out_rows is None:
            self._build_rows()
        return self._out_rows

    def in_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per-node incoming adjacency arrays (sorted), built lazily once."""
        if self._in_rows is None:
            self._build_rows()
        return self._in_rows

    def routing_plan(self, token: object) -> Any | None:
        """The routing plan cached on this instance for ``token``, if any.

        Single-slot per-topology cache backing the engine's port-major
        delivery sweep: a plan derives from ``(graph, ports)``, so the
        engine stores its per-receiver plan here under a private token
        object (compared by identity) and gets an O(1) hit every round
        that replays this graph -- including alternating or cyclic
        schedules, where each interned topology in the cycle holds its
        own plan. A different token (another execution's engine)
        simply overwrites the slot, bounding the cache at one plan per
        interned topology.
        """
        cached = self._route_cache
        if cached is not None and cached[0] is token:
            return cached[1]
        return None

    def set_routing_plan(self, token: object, plan: Any) -> None:
        """Store ``plan`` for ``token``, replacing any previous entry.

        Tokens should be small dedicated objects (never the engine
        itself): interned topologies outlive executions, and the slot
        keeps its token and plan alive until overwritten.
        """
        self._route_cache = (token, plan)

    def delivered_bytes(self) -> bytes:
        """The receiver-major delivered-from table as packed bytes.

        ``n*n`` bytes where byte ``v * n + u`` is 1 iff the edge
        ``(u, v)`` exists -- i.e. row ``v`` lists the senders receiver
        ``v`` hears from, matching :meth:`in_rows`. No diagonal: the
        model excludes self-loops, and reliable self-delivery is the
        engine's concern, applied per live set downstream.

        This feeds the kernels' table memo
        (:func:`repro.sim.arena.delivered_table`), which views the
        bytes read-only. The result is rebuilt per call -- callers are
        expected to memo it by content hash, not per instance.
        """
        n = self._n
        packed = bytearray(n * n)
        for u, v in self._edges:
            packed[v * n + u] = 1
        return bytes(packed)

    def out_row(self, u: int) -> tuple[int, ...]:
        """Receivers of ``u`` as a sorted tuple."""
        return self.out_rows()[u]

    def in_row(self, v: int) -> tuple[int, ...]:
        """Senders heard by ``v`` as a sorted tuple."""
        return self.in_rows()[v]

    def in_neighbors(self, v: int) -> frozenset[int]:
        """Nodes ``u`` with a link ``(u, v)``: the senders ``v`` hears from."""
        return frozenset(self.in_rows()[v])

    def out_neighbors(self, u: int) -> frozenset[int]:
        """Nodes ``v`` with a link ``(u, v)``: the receivers of ``u``."""
        return frozenset(self.out_rows()[u])

    def in_degree(self, v: int) -> int:
        """Number of distinct incoming neighbors of ``v``."""
        return len(self.in_rows()[v])

    def out_degree(self, u: int) -> int:
        """Number of distinct outgoing neighbors of ``u``."""
        return len(self.out_rows()[u])

    def in_degrees(self) -> tuple[int, ...]:
        """All in-degrees, indexed by node (a degree view for analysis)."""
        return tuple(len(row) for row in self.in_rows())

    def out_degrees(self) -> tuple[int, ...]:
        """All out-degrees, indexed by node."""
        return tuple(len(row) for row in self.out_rows())

    # -- Container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Topology):
            return NotImplemented
        # Structural fallback: two equal graphs are usually the same
        # interned object, but the bounded table may have been cleared
        # (or an instance unpickled) in between.
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._n, self._edges))
            # lint: ignore[topology-mutation] — single-fill lazy cache of a pure derived value
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return f"Topology(n={self._n}, m={len(self._edges)})"

    def __reduce__(self):
        # Re-intern on unpickle/copy so identity-based fast paths keep
        # holding after a graph crosses a process boundary.
        return (_restore, (self._n, self._edges))

    # -- Derived topologies ------------------------------------------------

    def union(self, other: "Topology") -> "Topology":
        """Edge-union of two graphs over the same node set."""
        if self._n != other._n:
            raise ValueError(f"cannot union graphs with n={self._n} and n={other._n}")
        if other is self:
            return self
        return Topology.from_sorted_edges(
            self._n, sorted(self.edges | other.edges)
        )

    def restrict_targets(self, targets: Iterable[int]) -> "Topology":
        """Keep only edges whose head is in ``targets`` (same node set)."""
        keep = set(targets)
        return Topology.from_sorted_edges(
            self._n, (e for e in self._edges if e[1] in keep)
        )

    def without_sources(self, sources: Iterable[int]) -> "Topology":
        """Drop all edges whose tail is in ``sources`` (e.g. crashed senders)."""
        drop = set(sources)
        return Topology.from_sorted_edges(
            self._n, (e for e in self._edges if e[0] not in drop)
        )

    def is_subgraph_of(self, other: "Topology") -> bool:
        """True when every edge of this graph is also an edge of ``other``."""
        if self._n != other._n:
            return False
        return self is other or self.edges <= other.edges

    # -- Reachability ------------------------------------------------------

    def reachable_from(self, source: int) -> frozenset[int]:
        """All nodes reachable from ``source`` along directed edges
        (including ``source`` itself)."""
        if not (0 <= source < self._n):
            raise ValueError(f"source {source} out of range for n={self._n}")
        out = self.out_rows()
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nxt in out[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def roots(self) -> frozenset[int]:
        """Nodes that reach every other node (the paper's "coordinators").

        A graph "contains a directed rooted spanning tree" (the prior
        stability property of [10], [17], [38]) iff this is non-empty.
        """
        return frozenset(
            v for v in range(self._n) if len(self.reachable_from(v)) == self._n
        )

    def has_root(self) -> bool:
        """Whether some node reaches all others this round."""
        return bool(self.roots())

    def is_strongly_connected(self) -> bool:
        """Every node reaches every other node."""
        if self._n == 1:
            return True
        if len(self.reachable_from(0)) != self._n:
            return False
        # Reverse reachability from 0: everyone reaches 0.
        reverse = Topology.from_sorted_edges(
            self._n, sorted((v, u) for u, v in self._edges)
        )
        return len(reverse.reachable_from(0)) == self._n


def intern_table_size() -> int:
    """Current number of interned topologies (diagnostics / tests)."""
    return len(Topology._intern)
