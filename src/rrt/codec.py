"""Bit-exact wire representation of values, references, requests and responses.

A wire value is its canonical v1 document: a JSON object whose ``k``
discriminator names a primitive, an inlined object with an intra-message id,
a back-reference (which keeps aliasing and cycles), a sequence, or a remote
reference. The encoder walks a live graph and writes the document's
canonical JSON text as it goes, and the envelope functions write their heads
around those texts; the decoder builds live objects straight from parsed
documents. Every document has a fixed key order, so identical inputs always
produce identical bytes.

The encoder and the stdlib JSON decoder recurse, so objects and sequences
nest at most ``MAX_NESTING`` levels deep: past it, encoding raises
``WireFormatError`` and decoding raises ``ProtocolError``.

The codec is stateless between messages; per-message state (the seen-object
table, the id counter) is confined to one call. Only a reference's canonical
JSON text outlives a message: the codec alone builds it, from the ``RIOR``'s
parts, the first time the reference is sent, and keeps it on the immutable
``RIOR``, so every message that carries the reference shares it.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring
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
#: References a node remembers, its own and its peers' together, by GUID.
REFERENCE_MEMO_LIMIT = 64
#: Longest host or service name of a reference document a node remembers.
REMEMBERED_TEXT_LIMIT = 256


def _prim_text(value: object) -> str | None:
    """The text of a primitive value's document, or None when the value is
    not one. Subclasses of int, float and str travel as their base, written
    as the JSON encoder writes them."""
    if value is None:
        return '{"k":"prim","t":"null"}'
    if value is True:
        return '{"k":"prim","t":"bool","v":true}'
    if value is False:
        return '{"k":"prim","t":"bool","v":false}'
    if isinstance(value, str):
        return '{"k":"prim","t":"str","v":%s}' % encode_basestring(value)
    if isinstance(value, int):
        if not I64_MIN <= value <= I64_MAX:
            raise WireFormatError(f"integer out of 64-bit range: {value}")
        return '{"k":"prim","t":"i64","v":%s}' % int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            canonical_text(value)  # raises the JSON encoder's own error
        return '{"k":"prim","t":"f64","v":%s}' % float.__repr__(value)
    return None


@dataclass(frozen=True)
class Fault:
    kind: str  # "application" | "network" | "protocol"
    fault_class: str
    message: str


@dataclass(frozen=True)
class Request:
    target: str
    method: str
    args: tuple[dict | str, ...] = ()  # wire documents, or texts MessageEncoder wrote
    peer_kind: str = "rrt"

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.peer_kind not in ("rrt", "plain"):
            raise ValueError(f"bad peer kind {self.peer_kind!r}")


@dataclass(frozen=True)
class Response:
    ok: bool
    result: dict | str | None = None  # as in Request.args
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
# A resolver turns an incoming reference into a live value:
# resolve_ref(rior, nesting) -> object, where ``nesting`` is the level its
# snapshot's values are decoded at.
ResolveRef = Callable[[RIOR, int], object]


class MessageEncoder:
    """Writes the value positions of one message under a shared object table.

    ``encode`` returns a position's canonical JSON text, written while the
    live graph is walked. Wire-object ids are unique within the message and
    assigned in first-encounter preorder starting at 0, so an object
    repeated across positions (or within one graph) becomes a back-reference
    and aliasing survives the wire. A reference is written as the text its
    ``RIOR`` keeps. The first fault met in walk order is the one raised.
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
    ) -> str:
        text = _prim_text(value)
        if text is not None:
            return text
        out: list[str] = []
        if decision.kind is PolicyKind.BY_REFERENCE:
            self._as_ref(value, declared_type, 0, out)
        else:
            self._inline(value, 1, decision.depth, declared_type, 0, out)
        return "".join(out)

    # _as_ref and _inline take non-primitive values and append their text to
    # ``out``: callers try _prim_text first.

    def _as_ref(self, value: object, signature: str | None, nesting: int, out: list) -> None:
        if isinstance(value, (list, tuple)):
            self._seq(value, nesting, out, lambda v, n: self._as_ref(v, None, n, out))
        else:
            self._ref(value, signature, out)

    def _inline(
        self, value, level: int, depth, signature: str | None, nesting: int, out: list
    ) -> None:
        if isinstance(value, RemoteProxyBase):
            return self._ref(value, signature, out)
        if isinstance(value, (list, tuple)):
            return self._seq(
                value, nesting, out, lambda v, n: self._inline(v, level, depth, None, n, out)
            )
        prior = self._seen.get(id(value))
        if prior is not None:
            out.append('{"k":"backref","id":%d}' % prior)
            return
        rt = self._registry.type_of(value)
        if depth is not UNBOUNDED and level > depth:
            return self._ref(value, signature or rt.descriptor.type_name, out)
        _check_nesting(nesting, WireFormatError)
        oid = len(self._seen)
        self._seen[id(value)] = oid
        head, fields = rt.object_texts
        out += (head, str(oid), ',"fields":{')
        for name, key, type_name in fields:
            try:
                raw = getattr(value, name)
            except AttributeError:
                raise WireFormatError(
                    f"{rt.descriptor.type_name}.{name}: live object has no such field"
                ) from None
            kind = type(raw)  # the commonest primitives, written as _prim_text would
            if kind is str:
                out += (key, '{"k":"prim","t":"str","v":%s}' % encode_basestring(raw))
            elif kind is int and I64_MIN <= raw <= I64_MAX:
                out += (key, '{"k":"prim","t":"i64","v":%d}' % raw)
            else:
                out.append(key)
                text = _prim_text(raw)
                if text is None:
                    self._inline(raw, level + 1, depth, type_name, nesting + 1, out)
                else:
                    out.append(text)
        out.append("}}")

    def _seq(self, value, nesting: int, out: list, item: Callable[[object, int], None]) -> None:
        """Write a sequence; ``item(element, nesting)`` writes each element
        that is not a primitive."""
        if id(value) in self._open_seqs:
            raise WireFormatError("sequences may not contain themselves")
        _check_nesting(nesting, WireFormatError)
        self._open_seqs.add(id(value))
        try:
            out.append('{"k":"seq","elements":[')
            for i, v in enumerate(value):
                if i:
                    out.append(",")
                text = _prim_text(v)
                if text is None:
                    item(v, nesting + 1)
                else:
                    out.append(text)
            out.append("]}")
        finally:
            self._open_seqs.discard(id(value))

    def _ref(self, value: object, signature: str | None, out: list) -> None:
        if isinstance(value, RemoteProxyBase):
            rior = value.rior
        elif self._deploy_ref is None:
            raise WireFormatError(
                "by-reference transmission needs a deployment callback"
            )
        else:
            rior = self._deploy_ref(value, signature)
        out += ('{"k":"ref","rior":', rior._text or reference_text(rior, self._registry), "}")


def reference_text(rior: RIOR, registry) -> str:
    """The canonical JSON of the RIOR's document, written at its first use
    from its parts, in ``rior_to_doc``'s key order, and kept on it
    (``RIOR._text``); a registered interface's text is its type's. Of two
    threads that build it at once, both get the first one kept."""
    text = rior._text
    if text is None:
        iface = rior.interface_descriptor
        rt = registry.lookup(iface.type_name)
        text = '{"host":%s,"port":%s,"guid":%s,"name":%s,"iface":%s,"cache":%s}' % (
            canonical_text(rior.endpoint.host),
            canonical_text(rior.endpoint.port),
            canonical_text(rior.guid.hex),
            canonical_text(rior.service_name),
            rt.descriptor_text if rt is not None and rt.descriptor is iface
            else canonical_text(descriptor_to_doc(iface)),
            canonical_text(_cache_doc(rior.cached_field_snapshot)),
        )
        text = _keep(rior, "_text", text)
    return text


_KEEP_LOCK = threading.Lock()


def _keep(rior: RIOR, name: str, value):
    """Publish a value on the RIOR once and return the one kept. Set with
    ``object.__setattr__``, not through ``rior.__dict__``, so that CPython
    keeps the RIOR's attribute values inline, where reads are faster."""
    with _KEEP_LOCK:
        kept = getattr(rior, name)
        if kept is None:
            object.__setattr__(rior, name, value)
            kept = value
    return kept


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
    """Encode one standalone value position under a transmission decision,
    as the document parsed from the text ``MessageEncoder`` writes.

    By-reference positions become remote references through the deploy
    callback. By-value positions inline the object closure: the root sits at
    nesting level 1, objects at levels beyond the decision depth degrade to
    references, and repeated objects become back-references so aliasing and
    cycles survive. Sequences are transparent containers (copied, elements
    encoded at the enclosing level). Primitives always travel as primitives.
    """
    return json.loads(MessageEncoder(registry, deploy_ref).encode(value, decision, declared_type))


class MessageDecoder:
    """Rebuilds live values from wire documents, sharing the object table
    across the positions of one message.

    Every document is checked as it is read. Inlined objects are created
    from their registered classes, without running a constructor, and
    populated field by field; back-references restore aliasing and cycles.
    Remote references are parsed through ``references`` when given, else in
    full, and then go through the resolver (loop-back, proxy cache, or a new
    handle). A reference's snapshot values nest two levels below it, in its
    cache section, so references cached in each other's snapshots count
    against ``MAX_NESTING`` too.
    """

    def __init__(
        self,
        registry,
        resolve_ref: ResolveRef | None = None,
        references: ReferenceMemo | None = None,
    ):
        self._registry = registry
        self._resolve_ref = resolve_ref
        self._references = references
        self._table: dict[int, object] = {}

    def decode(self, doc: object, nesting: int = 0) -> object:
        return self._decode(doc, nesting)

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
            rior_doc = _req(doc, "rior", dict)
            if self._references is not None:
                rior = self._references.parse(rior_doc)
            else:
                rior = doc_to_rior(rior_doc, self._registry)
            if self._resolve_ref is None:
                raise ProtocolError("remote reference arrived without a resolver")
            if rior.cached_field_snapshot:
                _check_nesting(nesting + 1, ProtocolError)
            return self._resolve_ref(rior, nesting + 2)
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
            if type(fdoc) is dict and fdoc.get("k") == "prim":
                # Text and in-range integers, checked as _prim_value checks them.
                tag, v = fdoc.get("t"), fdoc.get("v")
                if (tag == "str" and type(v) is str) or (
                    tag == "i64" and type(v) is int and I64_MIN <= v <= I64_MAX
                ):
                    setattr(instance, fname, v)
                    continue
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
        try:
            return float(v)
        except OverflowError:
            raise ProtocolError("f64 primitive out of the float range") from None
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


# One encoder for every message: encoding keeps no state in it. Its text
# escaping is encode_basestring's, as ensure_ascii is off.
_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def canonical_text(doc: object) -> str:
    try:
        return _JSON.encode(doc)
    except ValueError as exc:
        raise WireFormatError(f"value not representable in JSON: {exc}") from exc
    except RecursionError as exc:
        raise WireFormatError(f"document nests too deeply for JSON: {exc}") from exc


def canonical_bytes(doc: object) -> bytes:
    return _utf8(canonical_text(doc))


def _utf8(text: str) -> bytes:
    """The text as UTF-8; text UTF-8 cannot carry (a lone surrogate) fails
    as the JSON encoder's text would."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise WireFormatError(f"value not representable in JSON: {exc}") from exc


def _parse_json(data: bytes) -> object:
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to convert
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


def rior_to_doc(rior: RIOR, iface_doc: dict | None = None) -> dict:
    """The reference's wire document, built anew. ``iface_doc`` is the
    interface's document, if already built; the result then shares it."""
    return {
        "host": rior.endpoint.host,
        "port": rior.endpoint.port,
        "guid": rior.guid.hex,
        "name": rior.service_name,
        "iface": iface_doc or descriptor_to_doc(rior.interface_descriptor),
        "cache": _cache_doc(rior.cached_field_snapshot),
    }


def _cache_doc(snapshot: dict) -> dict:
    # Cache keys are emitted sorted so equal references always yield equal bytes.
    names = sorted(snapshot)
    return {"fields": {n: snapshot[n] for n in names}, "accessors": names}


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
    if rt is not None and doc == rt.descriptor_doc and _flags_typed(doc):
        return rt.descriptor
    return doc_to_descriptor(doc)


def _flags_typed(iface: dict) -> bool:
    """Whether an interface document equal to a checked one holds each flag
    as a boolean. JSON's 1 equals true, so equality alone would let through
    a document the full parse refuses."""
    if type(iface["interface"]) is not bool:
        return False
    for f in iface["fields"]:
        if type(f["mutable"]) is not bool:
            return False
    for m in iface["methods"]:
        if type(m["network_fault"]) is not bool:
            return False
    return True


class Recent(dict):
    """A dict of its newest ``limit`` entries. ``put`` is the one writer;
    readers take no lock, as a read is one dict lookup."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self._lock = threading.Lock()

    def put(self, key, value) -> None:
        with self._lock:
            self.pop(key, None)  # so a replaced entry counts as newest
            self[key] = value
            if len(self) > self.limit:
                del self[next(iter(self))]


class ReferenceMemo(Recent):
    """A node's one reference table: the RIOR last sent or accepted per GUID.

    A document equal to the remembered RIOR's own, with an integer port and
    boolean flags (JSON's 8000 equals 8000.0, and 1 equals true), yields
    that RIOR unparsed, so a node gets back the very RIOR it sent; any other
    takes the full ``doc_to_rior``. A peer's is remembered only without a
    snapshot (whose values equality cannot check either), of a registered
    interface, and with a host and name within ``REMEMBERED_TEXT_LIMIT``.
    The RIOR's own document is the one it would send, built at the first
    repeat and kept on it (``RIOR._doc``), not the one received.
    """

    def __init__(self, registry):
        super().__init__(REFERENCE_MEMO_LIMIT)
        self._registry = registry

    def parse(self, doc: object) -> RIOR:
        guid = doc.get("guid") if type(doc) is dict else None
        kept = self.get(guid) if type(guid) is str else None
        if kept is not None:
            kept_doc = kept._doc
            if kept_doc is None:  # a registered interface shares its type's document
                rt = self._registry.lookup(kept.interface_descriptor.type_name)
                registered = rt is not None and rt.descriptor is kept.interface_descriptor
                kept_doc = rior_to_doc(kept, rt.descriptor_doc if registered else None)
                kept_doc = _keep(kept, "_doc", kept_doc)
            if kept_doc == doc and type(doc["port"]) is int and _flags_typed(doc["iface"]):
                return kept
        rior = doc_to_rior(doc, self._registry)
        rt = self._registry.lookup(rior.interface_descriptor.type_name)
        if (
            rt is not None
            and rt.descriptor is rior.interface_descriptor
            and not rior.cached_field_snapshot
            and len(rior.endpoint.host) <= REMEMBERED_TEXT_LIMIT
            and len(rior.service_name or "") <= REMEMBERED_TEXT_LIMIT
        ):
            self.put(rior.guid.hex, rior)
        return rior


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
    target, method = req.target, req.method
    args = []
    for value in req.args:
        args.append(value if type(value) is str else canonical_text(value))
    data = _utf8('{"rrt":%d,"target":%s,"method":%s,"args":[%s],"peer":%s}' % (
        RRT_VERSION,
        encode_basestring(target) if type(target) is str else canonical_text(target),
        encode_basestring(method) if type(method) is str else canonical_text(method),
        ",".join(args),
        encode_basestring(req.peer_kind),
    ))
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
        result = resp.result
        return _utf8('{"ok":true,"result":%s}' % (
            result if type(result) is str else canonical_text(result)))
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
