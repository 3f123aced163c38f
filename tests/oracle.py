"""The reference the one-pass writer is checked against: a walk of the live
graph into wire documents (dicts), then ``canonical_bytes`` of the whole
envelope. This is how rrt encoded before ``MessageEncoder`` wrote text.

One rule is the writer's, not the old walk's: a fault JSON cannot carry (a
float that is not finite, in a value or in a reference's snapshot) is raised
where the walk meets it, so the first fault in walk order wins. Text UTF-8
cannot carry still fails when the whole envelope is encoded.
"""

from __future__ import annotations

from rrt.codec import (
    I64_MAX,
    I64_MIN,
    RRT_VERSION,
    _check_nesting,
    canonical_bytes,
    canonical_text,
    rior_to_doc,
)
from rrt.errors import WireFormatError
from rrt.model import UNBOUNDED, PolicyKind, RemoteProxyBase


def prim_doc(value: object) -> dict | None:
    """The document of a primitive value, or None when the value is not one."""
    if value is None:
        return {"k": "prim", "t": "null"}
    if isinstance(value, bool):
        return {"k": "prim", "t": "bool", "v": value}
    if isinstance(value, str):
        return {"k": "prim", "t": "str", "v": value}
    if isinstance(value, int):
        if not I64_MIN <= value <= I64_MAX:
            raise WireFormatError(f"integer out of 64-bit range: {value}")
        return {"k": "prim", "t": "i64", "v": value}
    if isinstance(value, float):
        canonical_text(value)  # raises for a float that is not finite
        return {"k": "prim", "t": "f64", "v": value}
    return None


class DocumentEncoder:
    """Walks the value positions of one message into documents, under one
    object table, as ``MessageEncoder`` walks them into text."""

    def __init__(self, registry, deploy_ref=None):
        self._registry = registry
        self._deploy_ref = deploy_ref
        self._seen: dict[int, int] = {}
        self._open_seqs: set[int] = set()

    def encode(self, value, decision, declared_type=None) -> dict:
        if decision.kind is PolicyKind.BY_REFERENCE:
            return prim_doc(value) or self._as_ref(value, declared_type, 0)
        return prim_doc(value) or self._inline(value, 1, decision.depth, declared_type, 0)

    def _as_ref(self, value, signature, nesting) -> dict:
        if isinstance(value, (list, tuple)):
            return self._seq(value, nesting, lambda v, n: prim_doc(v) or self._as_ref(v, None, n))
        return self._ref(value, signature)

    def _inline(self, value, level, depth, signature, nesting) -> dict:
        if isinstance(value, RemoteProxyBase):
            return self._ref(value, signature)
        if isinstance(value, (list, tuple)):
            return self._seq(
                value, nesting,
                lambda v, n: prim_doc(v) or self._inline(v, level, depth, None, n),
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
            fields[f.name] = prim_doc(raw) or self._inline(
                raw, level + 1, depth, f.type_name, nesting + 1
            )
        return {"k": "obj", "class": descriptor.type_name, "id": oid, "fields": fields}

    def _seq(self, value, nesting, item) -> dict:
        if id(value) in self._open_seqs:
            raise WireFormatError("sequences may not contain themselves")
        _check_nesting(nesting, WireFormatError)
        self._open_seqs.add(id(value))
        try:
            return {"k": "seq", "elements": [item(v, nesting + 1) for v in value]}
        finally:
            self._open_seqs.discard(id(value))

    def _ref(self, value, signature) -> dict:
        if isinstance(value, RemoteProxyBase):
            rior = value.rior
        elif self._deploy_ref is None:
            raise WireFormatError("by-reference transmission needs a deployment callback")
        else:
            rior = self._deploy_ref(value, signature)
        doc = rior_to_doc(rior)
        canonical_text(doc)  # raises for a snapshot JSON cannot carry
        return {"k": "ref", "rior": doc}


def request_bytes(target: str, method: str, args: list, peer: str = "rrt") -> bytes:
    return canonical_bytes(
        {"rrt": RRT_VERSION, "target": target, "method": method, "args": args, "peer": peer}
    )


def response_bytes(result: dict) -> bytes:
    return canonical_bytes({"ok": True, "result": result})
