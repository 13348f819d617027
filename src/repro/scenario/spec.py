"""Frozen, serializable, content-hashed scenario specifications.

A :class:`ScenarioSpec` is the declarative description of one
experiment: which algorithm family runs (``algorithm: dbac@1(n=6)``),
over which dynamic-graph source (``network: dynadegree@1(window=2)``),
under which adversary and fault plan, from which seed, for how many
rounds. The spec is pure data -- frozen dataclasses over scalars --
so it pickles, hashes, and round-trips through both a canonical JSON
form and a one-line text DSL. Resolution against the pluggable
registry (what the names *mean*) lives in
:mod:`repro.scenario.resolve`; this module knows nothing about
algorithms and depends only on the standard library.

Text DSL grammar (one statement per line; ``;`` also separates
statements, ``#`` starts a comment)::

    algorithm: dbac@1(n=6, epsilon=1e-3)
    network:   dynadegree@1(window=2, selector=nearest)
    faults:    byzantine@1(strategy=extreme)
    seed:      7
    rounds:    2000

Values are scalar literals: integers, floats, ``true``/``false``,
``none``, quoted strings, or barewords (``nearest`` reads as the
string ``"nearest"``). The canonical encoding is deterministic --
sections in a fixed order, parameters sorted by name -- so
``parse_spec(spec.encode()) == spec`` and :attr:`ScenarioSpec.content_hash`
is stable across processes and insertion orders.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "SpecError",
    "ComponentRef",
    "ScenarioSpec",
    "parse_spec",
]

#: Scalar parameter value types a spec may carry.
Scalar = int | float | str | bool | None

_SECTIONS = ("algorithm", "network", "adversary", "faults")
_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_BAREWORD_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*$")
_RESERVED_BAREWORDS = frozenset({"true", "false", "none"})


class SpecError(ValueError):
    """A scenario spec failed to parse, validate, or resolve.

    ``field`` names the offending part of the spec (for example
    ``"algorithm.n"`` or ``"faults.strategy"``) so callers -- and the
    error message itself -- can point at exactly what to fix.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _check_scalar(field_name: str, value: Any) -> Scalar:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        field_name,
        f"parameter values must be scalars (int, float, str, bool, none), "
        f"got {type(value).__name__}",
    )


@dataclass(frozen=True)
class ComponentRef:
    """A reference to one registered component: ``name@version(params)``.

    ``params`` is a tuple of ``(key, value)`` pairs sorted by key, so
    two refs built from the same parameters in any insertion order
    compare (and hash) equal.
    """

    name: str
    version: int = 1
    params: tuple[tuple[str, Scalar], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise SpecError(
                "name",
                f"component name {self.name!r} must match {_NAME_RE.pattern}",
            )
        if not isinstance(self.version, int) or isinstance(self.version, bool) or self.version < 1:
            raise SpecError(
                "version",
                f"version of {self.name!r} must be a positive integer, "
                f"got {self.version!r}",
            )
        canon = tuple(sorted(self.params, key=lambda kv: kv[0]))
        for key, value in canon:
            _check_scalar(f"{self.name}.{key}", value)
        object.__setattr__(self, "params", canon)

    @classmethod
    def make(cls, name: str, version: int = 1, **params: Scalar) -> ComponentRef:
        """Build a ref from keyword parameters."""
        return cls(name, version, tuple(params.items()))

    def kwargs(self) -> dict[str, Scalar]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def with_params(self, **params: Scalar) -> ComponentRef:
        """A copy with the given parameters merged in (overriding)."""
        merged = {**self.kwargs(), **params}
        return ComponentRef(self.name, self.version, tuple(merged.items()))

    def encode(self) -> str:
        """Canonical one-token text form, e.g. ``dbac@1(n=6)``."""
        body = ", ".join(f"{k}={_encode_literal(v)}" for k, v in self.params)
        return f"{self.name}@{self.version}({body})" if body else f"{self.name}@{self.version}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment, as frozen data.

    Only ``algorithm`` is mandatory; omitted component sections take
    the registered family's defaults at resolution time. ``rounds``
    overrides the family's round budget (its meaning -- hard cap or
    fixed horizon -- is the family's ``rounds_param``).
    """

    algorithm: ComponentRef
    network: ComponentRef | None = None
    adversary: ComponentRef | None = None
    faults: ComponentRef | None = None
    seed: int = 0
    rounds: int | None = field(default=None)

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, ComponentRef):
            raise SpecError("algorithm", "algorithm section is required")
        for section in ("network", "adversary", "faults"):
            value = getattr(self, section)
            if value is not None and not isinstance(value, ComponentRef):
                raise SpecError(section, f"expected a component reference, got {value!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError("seed", f"seed must be an integer, got {self.seed!r}")
        if self.rounds is not None and (
            not isinstance(self.rounds, int) or isinstance(self.rounds, bool) or self.rounds < 1
        ):
            raise SpecError("rounds", f"rounds must be a positive integer, got {self.rounds!r}")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (the JSON wire format)."""
        out: dict[str, Any] = {}
        for section in _SECTIONS:
            ref = getattr(self, section)
            if ref is not None:
                out[section] = {
                    "name": ref.name,
                    "version": ref.version,
                    "params": dict(ref.params),
                }
        out["seed"] = self.seed
        if self.rounds is not None:
            out["rounds"] = self.rounds
        return out

    @classmethod
    def from_dict(cls, data: Any) -> ScenarioSpec:
        """Inverse of :meth:`to_dict`, validating shapes along the way."""
        if not isinstance(data, dict):
            raise SpecError("spec", f"expected a JSON object, got {type(data).__name__}")
        known = set(_SECTIONS) | {"seed", "rounds"}
        for key in data:
            if key not in known:
                raise SpecError(str(key), "unknown spec field")
        refs: dict[str, ComponentRef | None] = {}
        for section in _SECTIONS:
            raw = data.get(section)
            if raw is None:
                refs[section] = None
                continue
            if not isinstance(raw, dict) or "name" not in raw:
                raise SpecError(section, f"expected {{name, version, params}}, got {raw!r}")
            extra = set(raw) - {"name", "version", "params"}
            if extra:
                raise SpecError(section, f"unknown component fields {sorted(extra)!r}")
            params = raw.get("params", {})
            if not isinstance(params, dict):
                raise SpecError(section, f"params must be an object, got {params!r}")
            try:
                refs[section] = ComponentRef(
                    raw["name"], raw.get("version", 1), tuple(params.items())
                )
            except SpecError as exc:
                raise SpecError(f"{section}.{exc.field}", str(exc).split(": ", 1)[-1]) from exc
        if refs["algorithm"] is None:
            raise SpecError("algorithm", "algorithm section is required")
        return cls(
            algorithm=refs["algorithm"],
            network=refs["network"],
            adversary=refs["adversary"],
            faults=refs["faults"],
            seed=data.get("seed", 0),
            rounds=data.get("rounds"),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> ScenarioSpec:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("spec", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def encode(self) -> str:
        """Canonical text-DSL form; ``parse_spec`` inverts it."""
        lines = [f"{section}: {getattr(self, section).encode()}"
                 for section in _SECTIONS if getattr(self, section) is not None]
        lines.append(f"seed: {self.seed}")
        if self.rounds is not None:
            lines.append(f"rounds: {self.rounds}")
        return "\n".join(lines)

    @property
    def content_hash(self) -> str:
        """Stable hex digest of the canonical JSON form."""
        return hashlib.blake2b(self.to_json().encode("utf-8"), digest_size=16).hexdigest()

    def with_seed(self, seed: int) -> ScenarioSpec:
        """A copy differing only in ``seed``."""
        return replace(self, seed=seed)


# -- literal syntax ------------------------------------------------------


def _encode_literal(value: Scalar) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if (
        _BAREWORD_RE.match(value)
        and value.lower() not in _RESERVED_BAREWORDS
        and _parse_literal("", value) == value
    ):
        return value
    return json.dumps(value)


def _parse_literal(field_name: str, token: str) -> Scalar:
    token = token.strip()
    if not token:
        raise SpecError(field_name, "empty parameter value")
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    if token[0] in "\"'":
        if len(token) < 2 or token[-1] != token[0]:
            raise SpecError(field_name, f"unterminated string literal {token!r}")
        if token[0] == '"':
            try:
                return json.loads(token)
            except json.JSONDecodeError as exc:
                raise SpecError(field_name, f"bad string literal {token!r}: {exc}") from exc
        return token[1:-1]
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if _BAREWORD_RE.match(token):
        return token
    raise SpecError(field_name, f"cannot parse literal {token!r}")


_COMPONENT_RE = re.compile(
    r"^(?P<name>[a-z][a-z0-9_-]*)(?:@(?P<version>\d+))?(?:\((?P<body>.*)\))?$",
    re.DOTALL,
)


def _split_args(body: str) -> list[str]:
    """Split ``a=1, b="x, y"`` on commas outside quotes."""
    parts: list[str] = []
    depth_quote: str | None = None
    current: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if depth_quote is not None:
            current.append(ch)
            if ch == "\\" and depth_quote == '"' and i + 1 < len(body):
                current.append(body[i + 1])
                i += 1
            elif ch == depth_quote:
                depth_quote = None
        elif ch in "\"'":
            depth_quote = ch
            current.append(ch)
        elif ch == ",":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if current or parts:
        parts.append("".join(current))
    return parts


def _parse_component(section: str, text: str) -> ComponentRef:
    text = text.strip()
    match = _COMPONENT_RE.match(text)
    if not match:
        raise SpecError(section, f"cannot parse component reference {text!r}")
    name = match.group("name")
    version = int(match.group("version") or 1)
    body = match.group("body")
    params: list[tuple[str, Scalar]] = []
    seen: set[str] = set()
    if body is not None and body.strip():
        for part in _split_args(body):
            part = part.strip()
            if not part:
                raise SpecError(section, f"empty parameter in {text!r}")
            if "=" not in part:
                raise SpecError(section, f"expected key=value, got {part!r}")
            key, _, raw = part.partition("=")
            key = key.strip()
            if not key.isidentifier():
                raise SpecError(section, f"bad parameter name {key!r}")
            if key in seen:
                raise SpecError(f"{section}.{key}", "duplicate parameter")
            seen.add(key)
            params.append((key, _parse_literal(f"{section}.{key}", raw)))
    try:
        return ComponentRef(name, version, tuple(params))
    except SpecError as exc:
        raise SpecError(f"{section}.{exc.field}", str(exc).split(": ", 1)[-1]) from exc


def parse_spec(text: str) -> ScenarioSpec:
    """Parse a spec from the text DSL (or canonical JSON).

    A leading ``{`` selects the JSON reader; anything else is treated
    as DSL statements separated by newlines or ``;``.
    """
    stripped = text.strip()
    if not stripped:
        raise SpecError("spec", "empty spec")
    if stripped.startswith("{"):
        return ScenarioSpec.from_json(stripped)
    sections: dict[str, ComponentRef] = {}
    seed = 0
    rounds: int | None = None
    seen: set[str] = set()
    statements = [
        stmt
        for line in stripped.splitlines()
        for stmt in line.split("#", 1)[0].split(";")
        if stmt.strip()
    ]
    for stmt in statements:
        if ":" not in stmt:
            raise SpecError("spec", f"expected 'section: value', got {stmt.strip()!r}")
        section, _, rest = stmt.partition(":")
        section = section.strip().lower()
        rest = rest.strip()
        if section in seen:
            raise SpecError(section, "duplicate section")
        seen.add(section)
        if section in _SECTIONS:
            sections[section] = _parse_component(section, rest)
        elif section == "seed":
            value = _parse_literal("seed", rest)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError("seed", f"seed must be an integer, got {rest!r}")
            seed = value
        elif section == "rounds":
            value = _parse_literal("rounds", rest)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError("rounds", f"rounds must be an integer, got {rest!r}")
            rounds = value
        else:
            raise SpecError(
                section,
                f"unknown section (expected one of {', '.join(_SECTIONS)}, seed, rounds)",
            )
    if "algorithm" not in sections:
        raise SpecError("algorithm", "algorithm section is required")
    return ScenarioSpec(
        algorithm=sections["algorithm"],
        network=sections.get("network"),
        adversary=sections.get("adversary"),
        faults=sections.get("faults"),
        seed=seed,
        rounds=rounds,
    )
