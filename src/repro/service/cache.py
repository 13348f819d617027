"""Content-addressed result cache with an append-only JSONL tier.

The cache memoizes trial results under ``(scenario_key, seed)`` where
``scenario_key`` is the content hash of the job's **canonical** spec
(:meth:`~repro.scenario.resolve.ResolvedScenario.canonical_spec`) with
the seed field normalized out. The canonical form is a fixpoint of
``parse -> resolve -> encode`` (PR 9), so two semantically identical
submissions -- defaults elided vs. spelled out, parameters in any
order, DSL text vs. JSON -- produce the same canonical encoding and
therefore hit the same cache entry; the seed rides separately in the
key so ``seed: 7`` inside the spec and ``seeds=[7]`` in the request
are the same trial.

Persistence follows the trace-v3 idiom of
:mod:`repro.sim.persistence`: one JSON header line, then one
append-only entry line per cached result, flushed as written. A
daemon killed mid-append loses at most the final partial line --
:meth:`ResultCache.open` tolerates a truncated tail (and a trailing
corrupt line) but raises on mid-file corruption, exactly the
:class:`~repro.sim.persistence.TraceReader` recovery contract. Cached
payloads are plain JSON scalars (the picklable ``run_*_trial``
summary dicts), so a round-trip through the file is value-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.scenario.resolve import ResolvedScenario

__all__ = ["ResultCache", "cache_key", "scenario_identity", "scenario_key"]

_CACHE_VERSION = 1

#: The seed value the scenario identity is normalized to: the spec's
#: own seed field is excluded from the scenario key (the trial seed is
#: the second key component), so differently-seeded submissions of one
#: scenario share a single identity hash.
_IDENTITY_SEED = 0


def scenario_key(resolved: ResolvedScenario) -> str:
    """The seed-independent content hash identifying a scenario.

    Computed over the canonical spec (every default explicit, every
    parameter sorted) with the seed field pinned, so it is stable
    across spellings, processes, and requested seeds.
    """
    return scenario_identity(resolved)[0]


def scenario_identity(resolved: ResolvedScenario) -> tuple[str, dict[str, Any]]:
    """``(scenario_key, canonical spec dict)`` from one canonical build.

    The dict is the seed-pinned canonical spec whose content hash is
    the key: what job payloads and the persisted cache record.
    """
    canonical = resolved.canonical_spec().with_seed(_IDENTITY_SEED)
    return canonical.content_hash, canonical.to_dict()


def cache_key(resolved: ResolvedScenario, seed: int) -> tuple[str, int]:
    """The full cache key for one trial: ``(scenario_key, seed)``."""
    return (scenario_key(resolved), int(seed))


class ResultCache:
    """In-memory result store with an optional append-only JSONL tier.

    Without a path the cache is purely in-memory (tests, ephemeral
    daemons). With one, every :meth:`put` appends a JSONL entry and
    flushes, and construction replays the file so the cache state
    survives daemon restarts. ``hits``/``misses``/``stores`` counters
    are deterministic functions of the request sequence.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, int], dict[str, Any]] = {}
        self._specs: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._file: Any = None
        if self.path is not None:
            self._open()

    # -- persistence ------------------------------------------------------

    def _open(self) -> None:
        assert self.path is not None
        if self.path.exists():
            self._load(self.path)
            self._file = self.path.open("a")
        else:
            self._file = self.path.open("w")
            header = {"version": _CACHE_VERSION, "kind": "service-cache"}
            self._file.write(json.dumps(header) + "\n")
            self._file.flush()

    def _load(self, path: Path) -> None:
        with path.open() as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty cache file (missing header)")
        header = json.loads(lines[0])
        if header.get("kind") != "service-cache" or header.get("version") != _CACHE_VERSION:
            raise ValueError(
                f"{path}: not a version-{_CACHE_VERSION} service cache "
                f"(header {header!r})"
            )
        for position, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
                scenario, seed = entry["key"]
                result = entry["result"]
                # Coerce inside the recovery block: a final line whose
                # JSON parses but whose seed is not int-like is still a
                # truncated tail, not mid-file corruption.
                key = (str(scenario), int(seed))
            except (ValueError, KeyError, TypeError) as exc:
                if position == len(lines):
                    # Truncated tail: the daemon died mid-append and
                    # lost at most this one entry. Recover what loaded.
                    break
                raise ValueError(
                    f"{path}: corrupt cache entry on line {position}"
                ) from exc
            self._entries[key] = result
            spec = entry.get("spec")
            if spec is not None:
                self._specs[key[0]] = spec

    def close(self) -> None:
        """Close the persistence file (idempotent; in-memory state stays)."""
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> ResultCache:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the store --------------------------------------------------------

    def get(self, key: tuple[str, int]) -> dict[str, Any] | None:
        """The cached result for ``key``, or ``None`` (counted either way)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek(self, key: tuple[str, int]) -> dict[str, Any] | None:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self._entries.get(key)

    def spec_for(self, scenario: str) -> dict[str, Any] | None:
        """The canonical spec dict recorded for a scenario key, if any."""
        return self._specs.get(scenario)

    def put(
        self,
        key: tuple[str, int],
        result: dict[str, Any],
        spec: dict[str, Any] | None = None,
    ) -> None:
        """Store one result (last write wins) and append it to the tier.

        ``spec`` is the canonical spec dict, recorded once per scenario
        key so a persisted cache is self-describing.
        """
        scenario, seed = key
        novel_spec = spec is not None and scenario not in self._specs
        # Serialize before mutating: if the result cannot encode, the
        # put fails with nothing cached, keeping the in-memory store
        # and the append-only tier consistent (failed trials are never
        # cached, and neither are unpersistable ones).
        line: str | None = None
        if self._file is not None and not self._file.closed:
            entry: dict[str, Any] = {"key": [scenario, int(seed)], "result": result}
            if novel_spec:
                entry["spec"] = spec
            line = json.dumps(entry, sort_keys=True) + "\n"
        self._entries[(scenario, int(seed))] = result
        if novel_spec:
            self._specs[scenario] = spec  # type: ignore[assignment]
        self.stores += 1
        if line is not None:
            self._file.write(line)
            self._file.flush()

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Deterministic counters for the service's stats endpoint."""
        return {
            "entries": len(self._entries),
            "scenarios": len(self._specs),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }
