"""Core domain types: identifiers, endpoints, type descriptors, remote references.

Everything in this module is immutable after construction and safe to share
across threads. Type identity is the globally unique ``type_name`` text; two
nodes agree on a type iff the names match.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping
from urllib.parse import quote

# Semantic type names understood without registration.
PRIMITIVE_TYPES = frozenset({"i64", "f64", "bool", "string"})
VOID = "void"
NULL_TYPE = "null"
SEQUENCE_TYPE = "list"

PUBLIC = "public"
NON_PUBLIC = "non-public"

_HEX32 = re.compile(r"^[0-9a-f]{32}$")


class _Unbounded:
    """Singleton depth marker: traverse the whole closure when passing by value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

Depth = int | _Unbounded


class PolicyKind(Enum):
    BY_VALUE = "BY_VALUE"
    BY_REFERENCE = "BY_REFERENCE"


#: ``winning_rule`` marker for decisions that fell through to the default policy.
DEFAULT_RULE = "default"


@dataclass(frozen=True, order=True)
class GUID:
    """128-bit opaque identifier; canonical text is 32 lowercase hex chars."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, bytes) or len(self.value) != 16:
            raise ValueError("GUID requires exactly 16 bytes")
        # The canonical text, built once: every per-node table is keyed by
        # it. Not a field, so equality, hashing, order and repr see only value.
        object.__setattr__(self, "hex", self.value.hex())

    @classmethod
    def parse(cls, text: str) -> "GUID":
        if not isinstance(text, str) or not _HEX32.match(text):
            raise ValueError(f"not a canonical GUID: {text!r}")
        return cls(bytes.fromhex(text))

    def __str__(self) -> str:
        return self.hex


GuidSource = Callable[[], bytes]


def guid_new(source: GuidSource | None = None) -> GUID:
    """Return a fresh uniformly random 128-bit GUID.

    ``source`` may supply the 16 random bytes (tests inject seeded sources);
    the default draws from the OS cryptographic generator, as
    ``secrets.token_bytes`` does, without the ``hmac`` and OpenSSL imports.
    """
    raw = source() if source is not None else os.urandom(16)
    return GUID(bytes(raw))


@dataclass(frozen=True)
class Endpoint:
    """Network location of a node: host text plus TCP port."""

    host: str
    port: int

    def __post_init__(self):
        if not self.host:
            raise ValueError("endpoint host must be non-empty")
        if not (1 <= int(self.port) <= 65535):
            raise ValueError(f"endpoint port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


def service_url(endpoint: Endpoint, name_or_guid: str) -> str:
    """Address of a deployed service: http://<host>:<port>/<quoted name or GUID>."""
    if not name_or_guid:
        raise ValueError("service name or GUID must be non-empty")
    return f"http://{endpoint.host}:{endpoint.port}/{quote(name_or_guid, safe='')}"


@dataclass(frozen=True)
class FieldDescriptor:
    name: str
    type_name: str
    mutable: bool = True

    def __post_init__(self):
        if not self.name or not self.type_name:
            raise ValueError("field descriptor requires name and type")


@dataclass(frozen=True)
class MethodDescriptor:
    """One invokable method: name, parameter types, return type, fault clause."""

    name: str
    params: tuple[str, ...] = ()
    return_type: str = VOID
    declares_network_fault: bool = False
    visibility: str = PUBLIC

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not self.name:
            raise ValueError("method descriptor requires a name")
        if any(not p for p in self.params):
            raise ValueError(f"method {self.name}: empty parameter type name")
        if not self.return_type:
            raise ValueError(f"method {self.name}: empty return type")
        if self.visibility not in (PUBLIC, NON_PUBLIC):
            raise ValueError(f"method {self.name}: bad visibility {self.visibility!r}")

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def ident(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class TypeDescriptor:
    """Registered metadata about an application type and its remote surface.

    Method names plus arity are unique within one descriptor. The supertype
    is named; the type registry resolves the chain when the type registers,
    which requires every supertype to be registered first.
    """

    type_name: str
    supertype_name: str | None = None
    fields: tuple[FieldDescriptor, ...] = ()
    methods: tuple[MethodDescriptor, ...] = ()
    is_interface: bool = False

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.type_name:
            raise ValueError("type descriptor requires a name")
        methods: dict[tuple[str, int], MethodDescriptor] = {}
        for m in self.methods:
            key = (m.name, m.arity)
            if key in methods:
                raise ValueError(f"{self.type_name}: duplicate method {m.ident}")
            methods[key] = m
        fields: dict[str, FieldDescriptor] = {}
        for f in self.fields:
            if f.name in fields:
                raise ValueError(f"{self.type_name}: duplicate field {f.name}")
            fields[f.name] = f
        # Indexes built once: they are not dataclass fields, so equality,
        # hashing and repr still see only the declared ones.
        object.__setattr__(self, "_methods", methods)
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "method_names", frozenset(m.name for m in self.methods))
        object.__setattr__(self, "field_names", frozenset(fields))
        # Call plans by (name, arity), each built by ``registry.call_plan`` at
        # the method's first call. Not a field either.
        object.__setattr__(self, "plans", {})

    def find_method(self, name: str, arity: int) -> MethodDescriptor | None:
        return self._methods.get((name, arity))

    def field(self, name: str) -> FieldDescriptor | None:
        return self._fields.get(name)


@dataclass(frozen=True)
class RIOR:
    """Interoperable remote reference: where a service lives and how to talk to it.

    ``cached_field_snapshot`` maps each cached interface field to the wire
    document of its value, recorded immediately before the reference was sent.
    """

    # The canonical JSON text every message carrying the reference writes,
    # built from the fields (``codec.reference_text``), and the document a
    # received one is compared with (``codec.ReferenceMemo.parse``): built by
    # the codec alone at their first use and shared, so no one may change
    # them. Not fields: equality and repr ignore them.
    _doc = None
    _text = None

    endpoint: Endpoint
    guid: GUID
    service_name: str | None = None
    interface_descriptor: TypeDescriptor = field(default_factory=lambda: TypeDescriptor("object"))
    cached_field_snapshot: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "cached_field_snapshot", dict(self.cached_field_snapshot))
        unknown = self.cached_field_snapshot.keys() - self.interface_descriptor.field_names
        if unknown:
            raise ValueError(f"cached fields not on interface: {sorted(unknown)}")

    @property
    def url(self) -> str:
        return service_url(self.endpoint, self.service_name or self.guid.hex)


class RemoteProxyBase:
    """Marker base for client-side handles; the codec sends these as references."""

    rior: RIOR


@dataclass(frozen=True)
class TransmissionDecision:
    """Resolved transmission outcome for one value position.

    ``depth`` is present only for by-value transmission. ``level`` is the
    precedence slot (1..6) of the winning rule, or None when the default
    policy applied.
    """

    kind: PolicyKind
    depth: Depth | None = None
    winning_rule: int | str = DEFAULT_RULE
    level: int | None = None

    def __post_init__(self):
        if self.kind is PolicyKind.BY_VALUE:
            if self.depth is None:
                raise ValueError("by-value decision requires a depth")
            if not isinstance(self.depth, _Unbounded) and self.depth < 1:
                raise ValueError("depth must be positive")
        elif self.depth is not None:
            raise ValueError("depth is meaningful only for by-value decisions")

    @property
    def level_text(self) -> str:
        return DEFAULT_RULE if self.level is None else str(self.level)


def by_value(depth: Depth = UNBOUNDED, winning_rule: int | str = DEFAULT_RULE,
             level: int | None = None) -> TransmissionDecision:
    return TransmissionDecision(PolicyKind.BY_VALUE, depth, winning_rule, level)


def by_reference(winning_rule: int | str = DEFAULT_RULE,
                 level: int | None = None) -> TransmissionDecision:
    return TransmissionDecision(PolicyKind.BY_REFERENCE, None, winning_rule, level)
