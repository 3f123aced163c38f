"""Bit-exact wire representation of values, references, requests and responses.

A wire value is its canonical v1 document: a dict whose ``k`` discriminator
names a primitive, an inlined object with an intra-message id, a
back-reference (which keeps aliasing and cycles), a sequence, or a remote
reference. The encoder walks a live graph straight into these documents and
the decoder builds live objects straight from parsed ones. Every document
has a fixed key order, so identical inputs always produce identical bytes.

The stdlib JSON encoder and decoder recurse, so objects and sequences nest at
most ``MAX_NESTING`` levels deep: past it, encoding raises
``WireFormatError`` and decoding raises ``ProtocolError``.

The codec is stateless between messages; per-message state (the seen-object
table, the id counter) is confined to one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .errors import ProtocolError, WireFormatError
from .model import (
    GUID,
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    PUBLIC,
    PolicyKind,
    RIOR,
    RemoteProxyBase,
    TransmissionDecision,
    TypeDescriptor,
    UNBOUNDED,
)

RRT_VERSION = 1

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

PRIM_TAGS = frozenset({"i64", "f64", "bool", "str", "null"})

#: Deepest nesting of objects and sequences in one value, either direction.
MAX_NESTING = 200
#: Largest invoke body a node accepts; larger requests are refused unsent.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

_TAG_OF_TYPE = {type(None): "null", bool: "bool", int: "i64", float: "f64", str: "str"}


def _prim_doc(value: object) -> dict | None:
    """The document of a primitive value, or None when the value is not one."""
    tag = _TAG_OF_TYPE.get(type(value))
    if tag is None:  # subclasses of int, float and str travel as their base
        if not isinstance(value, (int, float, str)):
            return None
        if isinstance(value, int):
            tag = "i64"
        else:
            tag = "f64" if isinstance(value, float) else "str"
    if tag == "null":
        return {"k": "prim", "t": "null"}
    if tag == "i64" and not I64_MIN <= value <= I64_MAX:
        raise WireFormatError(f"integer out of 64-bit range: {value}")
    return {"k": "prim", "t": tag, "v": value}


@dataclass(frozen=True)
class Fault:
    kind: str  # "application" | "network" | "protocol"
    fault_class: str
    message: str


@dataclass(frozen=True)
class Request:
    target: str
    method: str
    args: tuple[dict, ...] = ()
    peer_kind: str = "rrt"

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.peer_kind not in ("rrt", "plain"):
            raise ValueError(f"bad peer kind {self.peer_kind!r}")


@dataclass(frozen=True)
class Response:
    ok: bool
    result: dict | None = None
    fault: Fault | None = None

    def __post_init__(self):
        shape_ok = (
            (self.result is not None and self.fault is None)
            if self.ok
            else (self.fault is not None and self.result is None)
        )
        if not shape_ok:
            raise ValueError("response carries exactly one of result/fault")


# A deploy callback turns an escaping object into a remote reference:
# deploy_ref(obj, signature_type_name) -> RIOR.
DeployRef = Callable[[object, str | None], RIOR]
ResolveRef = Callable[[RIOR], object]


class MessageEncoder:
    """Encodes the value positions of one message under a shared object table.

    Wire-object ids are unique within the message and assigned in
    first-encounter preorder starting at 0, so an object repeated across
    positions (or within one graph) becomes a back-reference and aliasing
    survives the wire.
    """

    def __init__(self, registry, deploy_ref: DeployRef | None = None):
        self._registry = registry
        self._deploy_ref = deploy_ref
        self._seen: dict[int, int] = {}  # id(live object) -> wire-object id
        self._open_seqs: set[int] = set()

    def encode(
        self,
        value: object,
        decision: TransmissionDecision,
        declared_type: str | None = None,
    ) -> dict:
        if decision.kind is PolicyKind.BY_REFERENCE:
            return _prim_doc(value) or self._as_ref(value, declared_type, 0)
        return _prim_doc(value) or self._inline(value, 1, decision.depth, declared_type, 0)

    # _as_ref and _inline take non-primitive values: callers try _prim_doc first.

    def _as_ref(self, value: object, signature: str | None, nesting: int) -> dict:
        if isinstance(value, (list, tuple)):
            return self._seq(
                value, nesting, lambda v, n: _prim_doc(v) or self._as_ref(v, None, n)
            )
        return self._ref(value, signature)

    def _inline(
        self, value, level: int, depth, signature: str | None, nesting: int
    ) -> dict:
        if isinstance(value, RemoteProxyBase):
            return self._ref(value, signature)
        if isinstance(value, (list, tuple)):
            return self._seq(
                value,
                nesting,
                lambda v, n: _prim_doc(v) or self._inline(v, level, depth, None, n),
            )
        prior = self._seen.get(id(value))
        if prior is not None:
            return {"k": "backref", "id": prior}
        descriptor = self._registry.type_of(value).descriptor
        if depth is not UNBOUNDED and level > depth:
            return self._ref(value, signature or descriptor.type_name)
        _check_nesting(nesting, WireFormatError)
        oid = len(self._seen)
        self._seen[id(value)] = oid
        fields = {}
        for f in descriptor.fields:
            try:
                raw = getattr(value, f.name)
            except AttributeError:
                raise WireFormatError(
                    f"{descriptor.type_name}.{f.name}: live object has no such field"
                ) from None
            fields[f.name] = _prim_doc(raw) or self._inline(
                raw, level + 1, depth, f.type_name, nesting + 1
            )
        return {"k": "obj", "class": descriptor.type_name, "id": oid, "fields": fields}

    def _seq(self, value, nesting: int, item: Callable[[object, int], dict]) -> dict:
        if id(value) in self._open_seqs:
            raise WireFormatError("sequences may not contain themselves")
        _check_nesting(nesting, WireFormatError)
        self._open_seqs.add(id(value))
        try:
            return {"k": "seq", "elements": [item(v, nesting + 1) for v in value]}
        finally:
            self._open_seqs.discard(id(value))

    def _ref(self, value: object, signature: str | None) -> dict:
        if isinstance(value, RemoteProxyBase):
            rior = value.rior
        elif self._deploy_ref is None:
            raise WireFormatError(
                "by-reference transmission needs a deployment callback"
            )
        else:
            rior = self._deploy_ref(value, signature)
        return {"k": "ref", "rior": rior_to_doc(rior)}


def _check_nesting(nesting: int, error: type[Exception]) -> None:
    """Refuse one more level of object or sequence past ``MAX_NESTING``."""
    if nesting >= MAX_NESTING:
        raise error(f"value nests more than {MAX_NESTING} objects and sequences deep")


def encode_value(
    value: object,
    decision: TransmissionDecision,
    *,
    registry,
    deploy_ref: DeployRef | None = None,
    declared_type: str | None = None,
) -> dict:
    """Encode one standalone value position under a transmission decision.

    By-reference positions become remote references through the deploy
    callback. By-value positions inline the object closure: the root sits at
    nesting level 1, objects at levels beyond the decision depth degrade to
    references, and repeated objects become back-references so aliasing and
    cycles survive. Sequences are transparent containers (copied, elements
    encoded at the enclosing level). Primitives always travel as primitives.
    """
    return MessageEncoder(registry, deploy_ref).encode(value, decision, declared_type)


class MessageDecoder:
    """Rebuilds live values from wire documents, sharing the object table
    across the positions of one message.

    Every document is checked as it is read. Inlined objects are created
    from their registered classes, without running a constructor, and
    populated field by field; back-references restore aliasing and cycles.
    Remote references go through the resolver (loop-back, proxy cache, or a
    new handle).
    """

    def __init__(self, registry, resolve_ref: ResolveRef | None = None):
        self._registry = registry
        self._resolve_ref = resolve_ref
        self._table: dict[int, object] = {}

    def decode(self, doc: object) -> object:
        return self._decode(doc, 0)

    def _decode(self, doc: object, nesting: int) -> object:
        if not isinstance(doc, dict) or "k" not in doc:
            raise ProtocolError("wire value must be an object with a 'k' discriminator")
        kind = doc["k"]
        if kind == "prim":
            return _prim_value(doc)
        if kind == "obj":
            return self._object(doc, nesting)
        if kind == "backref":
            oid = _req(doc, "id", int)
            if oid not in self._table:
                raise ProtocolError(f"back-reference to unknown object id {oid}")
            return self._table[oid]
        if kind == "seq":
            elements = _req(doc, "elements", list)
            _check_nesting(nesting, ProtocolError)
            return [self._decode(e, nesting + 1) for e in elements]
        if kind == "ref":
            rior = doc_to_rior(_req(doc, "rior", dict), self._registry)
            if self._resolve_ref is None:
                raise ProtocolError("remote reference arrived without a resolver")
            return self._resolve_ref(rior)
        raise ProtocolError(f"unknown wire discriminator {kind!r}")

    def _object(self, doc: dict, nesting: int) -> object:
        class_name = _req(doc, "class", str)
        oid = _req(doc, "id", int)
        fields = _req(doc, "fields", dict)
        _check_nesting(nesting, ProtocolError)
        rt = self._registry.lookup(class_name)
        if rt is None:
            raise ProtocolError(f"unknown class on the wire: {class_name}")
        if oid in self._table:
            raise ProtocolError(f"duplicate object id {oid}")
        if rt.py_type is None:
            raise ProtocolError(f"class {class_name} is not instantiable")
        declared = rt.descriptor.field_names
        instance = object.__new__(rt.py_type)
        self._table[oid] = instance
        for fname, fdoc in fields.items():
            if fname not in declared:
                raise ProtocolError(f"{class_name}: undeclared field {fname!r}")
            setattr(instance, fname, self._decode(fdoc, nesting + 1))
        return instance


def _prim_value(doc: dict) -> object:
    tag = _req(doc, "t", str)
    if tag not in PRIM_TAGS:
        raise ProtocolError(f"unknown primitive tag {tag!r}")
    if tag == "null":
        if doc.get("v") is not None:
            raise ProtocolError("null primitive carries no value")
        return None
    if "v" not in doc:
        raise ProtocolError(f"{tag} primitive requires a value")
    v = doc["v"]
    if tag == "str":
        if not isinstance(v, str):
            raise ProtocolError(f"str primitive requires text, got {v!r}")
        return v
    if tag == "i64":
        if isinstance(v, bool) or not isinstance(v, int):
            raise ProtocolError(f"i64 primitive requires an integer, got {v!r}")
        if not I64_MIN <= v <= I64_MAX:
            raise ProtocolError(f"integer overflows 64 bits: {v}")
        return v
    if tag == "f64":
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProtocolError(f"f64 primitive requires a number, got {v!r}")
        return float(v)
    if not isinstance(v, bool):
        raise ProtocolError(f"bool primitive requires a boolean, got {v!r}")
    return v


def decode_value(
    doc: object,
    *,
    registry,
    resolve_ref: ResolveRef | None = None,
) -> object:
    """Rebuild one standalone value from its wire document."""
    return MessageDecoder(registry, resolve_ref).decode(doc)


# -- canonical JSON ----------------------------------------------------------


def canonical_bytes(doc: object) -> bytes:
    try:
        return json.dumps(
            doc, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")
    except ValueError as exc:
        raise WireFormatError(f"value not representable in JSON: {exc}") from exc
    except RecursionError as exc:
        raise WireFormatError(f"document nests too deeply for JSON: {exc}") from exc


def _parse_json(data: bytes) -> object:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProtocolError(f"JSON nests too deeply: {exc}") from exc


def descriptor_to_doc(desc: TypeDescriptor) -> dict:
    return {
        "name": desc.type_name,
        "supertype": desc.supertype_name,
        "interface": desc.is_interface,
        "fields": [
            {"name": f.name, "type": f.type_name, "mutable": f.mutable}
            for f in desc.fields
        ],
        "methods": [
            {
                "name": m.name,
                "params": list(m.params),
                "returns": m.return_type,
                "network_fault": m.declares_network_fault,
                "visibility": m.visibility,
            }
            for m in desc.methods
        ],
    }


def doc_to_descriptor(doc: object) -> TypeDescriptor:
    """Parse a type document; every name is text and every flag a boolean."""
    if not isinstance(doc, dict):
        raise ProtocolError("type descriptor must be an object")
    try:
        fields = tuple(
            FieldDescriptor(
                _req(f, "name", str), _req(f, "type", str), _req(f, "mutable", bool)
            )
            for f in _req(doc, "fields", list)
        )
        methods = tuple(
            MethodDescriptor(
                _req(m, "name", str),
                tuple(_text(p, "parameter type") for p in _req(m, "params", list)),
                _req(m, "returns", str),
                _req(m, "network_fault", bool),
                m.get("visibility", PUBLIC),
            )
            for m in _req(doc, "methods", list)
        )
        return TypeDescriptor(
            type_name=_req(doc, "name", str),
            supertype_name=_text(doc.get("supertype"), "supertype", null=True),
            fields=fields,
            methods=methods,
            is_interface=_req(doc, "interface", bool),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed type descriptor: {exc}") from exc


def rior_to_doc(rior: RIOR) -> dict:
    # Cache keys are emitted sorted so equal references always yield equal bytes.
    names = sorted(rior.cached_field_snapshot)
    return {
        "host": rior.endpoint.host,
        "port": rior.endpoint.port,
        "guid": rior.guid.hex,
        "name": rior.service_name,
        "iface": descriptor_to_doc(rior.interface_descriptor),
        "cache": {
            "fields": {n: rior.cached_field_snapshot[n] for n in names},
            "accessors": names,
        },
    }


def doc_to_rior(doc: object, registry=None) -> RIOR:
    """Parse a reference document. Its snapshot documents are kept as they
    are and checked when decoded. With a registry, an interface document equal
    to a registered type's own yields that registered descriptor."""
    if not isinstance(doc, dict):
        raise ProtocolError("remote reference must be an object")
    try:
        cache = doc.get("cache", {"fields": {}, "accessors": []})
        if not isinstance(cache, dict):
            raise ProtocolError("cache section must be an object")
        snapshot = _req(cache, "fields", dict)
        if frozenset(_req(cache, "accessors", list)) != snapshot.keys():
            raise ProtocolError("cache accessors must name exactly the cached fields")
        return RIOR(
            endpoint=Endpoint(_req(doc, "host", str), _req(doc, "port", int)),
            guid=GUID.parse(_req(doc, "guid", str)),
            service_name=_text(doc.get("name"), "service name", null=True),
            interface_descriptor=_interface(_req(doc, "iface", dict), registry),
            cached_field_snapshot=snapshot,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed remote reference: {exc}") from exc


def _interface(doc: dict, registry) -> TypeDescriptor:
    rt = registry.lookup(doc.get("name")) if registry is not None else None
    # JSON's 1 equals true, so the strictly boolean keys are also checked by
    # type: a document the full parse would refuse is never reused.
    if (
        rt is not None
        and doc == rt.descriptor_doc
        and type(doc["interface"]) is bool
        and all(type(f["mutable"]) is bool for f in doc["fields"])
        and all(type(m["network_fault"]) is bool for m in doc["methods"])
    ):
        return rt.descriptor
    return doc_to_descriptor(doc)


def _text(value: object, what: str, null: bool = False) -> str | None:
    if isinstance(value, str) or (null and value is None):
        return value
    raise ProtocolError(f"{what} must be text{' or null' if null else ''}, got {value!r}")


def _req(doc: dict, key: str, typ: type):
    if key not in doc:
        raise ProtocolError(f"missing key {key!r}")
    value = doc[key]
    if typ is int and isinstance(value, bool):
        raise ProtocolError(f"key {key!r} must be an integer")
    if not isinstance(value, typ):
        raise ProtocolError(f"key {key!r} has wrong type {type(value).__name__}")
    return value


# -- envelopes ---------------------------------------------------------------


def encode_request(req: Request) -> bytes:
    """The request's bytes; over ``MAX_REQUEST_BYTES`` no node would accept them."""
    data = canonical_bytes(
        {
            "rrt": RRT_VERSION,
            "target": req.target,
            "method": req.method,
            "args": list(req.args),
            "peer": req.peer_kind,
        }
    )
    if len(data) > MAX_REQUEST_BYTES:
        raise WireFormatError(
            f"request of {len(data)} bytes is over the {MAX_REQUEST_BYTES}-byte limit"
        )
    return data


def decode_request(data: bytes) -> Request:
    doc = _parse_json(data)
    if not isinstance(doc, dict):
        raise ProtocolError("request envelope must be a JSON object")
    version = _req(doc, "rrt", int)
    if version != RRT_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    peer = _req(doc, "peer", str)
    if peer not in ("rrt", "plain"):
        raise ProtocolError(f"unknown peer kind {peer!r}")
    return Request(
        target=_req(doc, "target", str),
        method=_req(doc, "method", str),
        args=tuple(_req(doc, "args", list)),
        peer_kind=peer,
    )


def encode_response(resp: Response) -> bytes:
    if resp.ok:
        return canonical_bytes({"ok": True, "result": resp.result})
    return canonical_bytes(
        {
            "ok": False,
            "fault": {
                "kind": resp.fault.kind,
                "class": resp.fault.fault_class,
                # Text UTF-8 cannot carry (a lone surrogate) must not lose the answer.
                "message": resp.fault.message.encode("utf-8", "replace").decode("utf-8"),
            },
        }
    )


def decode_response(data: bytes) -> Response:
    doc = _parse_json(data)
    if not isinstance(doc, dict):
        raise ProtocolError("response envelope must be a JSON object")
    ok = _req(doc, "ok", bool)
    if ok:
        return Response(ok=True, result=_req(doc, "result", dict))
    fault = _req(doc, "fault", dict)
    kind = _req(fault, "kind", str)
    if kind not in ("application", "network", "protocol"):
        raise ProtocolError(f"unknown fault kind {kind!r}")
    return Response(
        ok=False,
        fault=Fault(kind, _req(fault, "class", str), _req(fault, "message", str)),
    )
