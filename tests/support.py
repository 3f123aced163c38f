"""Shared test machinery: random graph and envelope generators, the
pointer-shape equality oracle used to judge codec round trips, the supertype
walk that registration-time lineages are checked against, and a counter of
the requests a node sends."""

from __future__ import annotations

import random
import string
from typing import Mapping

from rrt.codec import Fault, Request, Response, rior_to_doc
from rrt.errors import RegistryIntegrityError
from rrt.model import (
    RIOR,
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    TypeDescriptor,
    guid_new,
)
from rrt.registry import TypeRegistry


class GNode:
    """Generic graph node for codec tests: two object links, prim payload."""

    def __init__(self, tag="", num=0, left=None, right=None, items=None):
        self.tag = tag
        self.num = num
        self.left = left
        self.right = right
        self.items = items if items is not None else []


GNODE_TYPE = TypeDescriptor(
    "GNode",
    fields=(
        FieldDescriptor("tag", "string"),
        FieldDescriptor("num", "i64"),
        FieldDescriptor("left", "GNode"),
        FieldDescriptor("right", "GNode"),
        FieldDescriptor("items", "list"),
    ),
)


def register_graph_types(types: TypeRegistry) -> None:
    types.register_type(GNODE_TYPE, py_type=GNode, factory=GNode)


def graph_registry() -> TypeRegistry:
    types = TypeRegistry()
    register_graph_types(types)
    return types


def gen_graph(
    rnd: random.Random,
    max_nodes: int = 50,
    cycle_p: float = 0.2,
    alias_p: float = 0.3,
) -> GNode:
    """Random object graph with controlled cycle and alias probabilities."""
    target = rnd.randint(1, max_nodes)
    nodes: list[GNode] = []

    def rand_tag() -> str:
        return "".join(rnd.choice(string.ascii_lowercase) for _ in range(4))

    def build(ancestors: list[GNode]) -> GNode:
        node = GNode(tag=rand_tag(), num=rnd.randint(-(2**40), 2**40))
        nodes.append(node)
        for slot in ("left", "right"):
            if rnd.random() < 0.25:
                continue  # leave the slot null
            roll = rnd.random()
            if roll < cycle_p and ancestors:
                setattr(node, slot, rnd.choice(ancestors + [node]))
            elif roll < cycle_p + alias_p and len(nodes) > 1:
                setattr(node, slot, rnd.choice(nodes))
            elif len(nodes) < target:
                setattr(node, slot, build(ancestors + [node]))
        if rnd.random() < 0.5:
            node.items = [
                rnd.choice([rnd.randint(0, 99), rand_tag(), True, None, 0.5])
                for _ in range(rnd.randint(0, 3))
            ]
        return node

    return build([])


def graphs_equal(registry: TypeRegistry, a, b) -> bool:
    """Structural equality with aliasing: a bijection between object identities."""
    a2b: dict[int, int] = {}
    b2a: dict[int, int] = {}

    def eq(x, y) -> bool:
        if x is None or isinstance(x, (bool, int, float, str)):
            return type(x) is type(y) and x == y
        if isinstance(x, (list, tuple)):
            if not isinstance(y, (list, tuple)) or len(x) != len(y):
                return False
            return all(eq(xe, ye) for xe, ye in zip(x, y))
        if id(x) in a2b or id(y) in b2a:
            return a2b.get(id(x)) == id(y) and b2a.get(id(y)) == id(x)
        try:
            desc = registry.type_of(x).descriptor
        except Exception:
            return False
        if type(x) is not type(y):
            return False
        a2b[id(x)] = id(y)
        b2a[id(y)] = id(x)
        return all(eq(getattr(x, f.name), getattr(y, f.name)) for f in desc.fields)

    return eq(a, b)


def prim_leaves(registry: TypeRegistry, root, depth) -> list:
    """Multiset of primitive leaves reachable within an inlining depth.

    Mirrors the encoder's traversal rules independently: objects are visited
    once (first encounter), levels beyond ``depth`` are cut, sequences are
    transparent.
    """
    from rrt.model import UNBOUNDED

    out: list = []
    seen: set[int] = set()

    def walk(value, level):
        if value is None or isinstance(value, (bool, int, float, str)):
            out.append(value)
            return
        if isinstance(value, (list, tuple)):
            for v in value:
                walk(v, level)
            return
        if id(value) in seen:
            return
        if depth is not UNBOUNDED and level > depth:
            return
        seen.add(id(value))
        for f in registry.type_of(value).descriptor.fields:
            walk(getattr(value, f.name), level + 1)

    walk(root, 1)
    return out


def wire_prim_leaves(doc: dict) -> list:
    """Primitive values in a wire document, in document order."""
    out: list = []

    def walk(d):
        if d["k"] == "prim":
            out.append(d.get("v"))
        elif d["k"] == "seq":
            for e in d["elements"]:
                walk(e)
        elif d["k"] == "obj":
            for v in d["fields"].values():
                walk(v)

    walk(doc)
    return out


def prim(tag: str, value=None) -> dict:
    """The wire document of one primitive."""
    if tag == "null":
        return {"k": "prim", "t": "null"}
    return {"k": "prim", "t": tag, "v": value}


# -- random envelopes ---------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "kappa", "omega", "route", "key")


def _name(rnd: random.Random) -> str:
    return rnd.choice(_WORDS) + str(rnd.randint(0, 9))


def gen_rior(rnd: random.Random) -> RIOR:
    fields = tuple(
        FieldDescriptor(f"f{i}", rnd.choice(["string", "i64", "Thing"]))
        for i in range(rnd.randint(0, 2))
    )
    iface = TypeDescriptor(
        _name(rnd),
        fields=fields,
        methods=tuple(
            MethodDescriptor(f"m{i}", ("i64",) * rnd.randint(0, 2), "string")
            for i in range(rnd.randint(0, 2))
        ),
        is_interface=rnd.random() < 0.5,
    )
    cached = frozenset(f.name for f in fields if rnd.random() < 0.4)
    snapshot = {n: prim("i64", rnd.randint(0, 99)) for n in cached}
    return RIOR(
        endpoint=Endpoint(_name(rnd), rnd.randint(1, 65535)),
        guid=guid_new(lambda: rnd.randbytes(16)),
        service_name=_name(rnd) if rnd.random() < 0.5 else None,
        interface_descriptor=iface,
        cached_field_snapshot=snapshot,
    )


def gen_wire_value(rnd: random.Random, ids: list[int], depth: int = 0) -> dict:
    """Valid-by-construction wire document; obj ids preorder via the shared list."""
    roll = rnd.random()
    if depth >= 3 or roll < 0.45:
        tag = rnd.choice(["i64", "f64", "bool", "str", "null"])
        if tag == "i64":
            return prim("i64", rnd.randint(-(2**62), 2**62))
        if tag == "f64":
            return prim("f64", rnd.choice([0.0, -1.5, 3.25, 1e300, 0.1]))
        if tag == "bool":
            return prim("bool", rnd.random() < 0.5)
        if tag == "str":
            return prim("str", _name(rnd) + rnd.choice(["", " ", "✓", "\n"]))
        return prim("null")
    if roll < 0.65:
        oid = len(ids)
        ids.append(oid)
        fields = {}
        for i in range(rnd.randint(0, 3)):
            fields[f"f{i}"] = gen_wire_value(rnd, ids, depth + 1)
        return {"k": "obj", "class": _name(rnd), "id": oid, "fields": fields}
    if roll < 0.75 and ids:
        return {"k": "backref", "id": rnd.choice(ids)}
    if roll < 0.9:
        return {
            "k": "seq",
            "elements": [
                gen_wire_value(rnd, ids, depth + 1) for _ in range(rnd.randint(0, 3))
            ],
        }
    return {"k": "ref", "rior": rior_to_doc(gen_rior(rnd))}


def gen_request(rnd: random.Random) -> Request:
    ids: list[int] = []
    return Request(
        target=rnd.choice([_name(rnd), guid_new(lambda: rnd.randbytes(16)).hex]),
        method=_name(rnd),
        args=tuple(gen_wire_value(rnd, ids) for _ in range(rnd.randint(0, 3))),
        peer_kind=rnd.choice(["rrt", "plain"]),
    )


def gen_response(rnd: random.Random) -> Response:
    if rnd.random() < 0.7:
        return Response(ok=True, result=gen_wire_value(rnd, []))
    return Response(
        ok=False,
        fault=Fault(
            rnd.choice(["application", "network", "protocol"]),
            _name(rnd),
            "went sideways: " + _name(rnd),
        ),
    )


# -- subtyping oracle ---------------------------------------------------------


def supertype_chain(
    descriptor: TypeDescriptor,
    registry_view: Mapping[str, TypeDescriptor],
    *,
    strict: bool = True,
) -> list[str]:
    """Names on the supertype chain, starting with the descriptor itself.

    ``strict`` controls what happens at an unresolvable supertype name: raise
    a registry-integrity error, or stop the walk.
    """
    chain = [descriptor.type_name]
    seen = {descriptor.type_name}
    current = descriptor
    while current.supertype_name is not None:
        name = current.supertype_name
        if name in seen:
            raise RegistryIntegrityError(f"supertype cycle through {name!r}")
        nxt = registry_view.get(name)
        if nxt is None:
            if strict:
                raise RegistryIntegrityError(f"unresolvable supertype {name!r}")
            break
        chain.append(name)
        seen.add(name)
        current = nxt
    return chain


def is_subtype(
    candidate: TypeDescriptor,
    ancestor: TypeDescriptor,
    registry_view: Mapping[str, TypeDescriptor],
) -> bool:
    """True iff candidate equals ancestor or ancestor is on its supertype chain."""
    return ancestor.type_name in supertype_chain(candidate, registry_view)


# -- wire traffic ---------------------------------------------------------------


class SendCounter:
    """Counts the requests a node's HTTP client sends from now on."""

    def __init__(self, node):
        self.count = 0
        send = node.http.request

        def counting(*args, **kwargs):
            self.count += 1
            return send(*args, **kwargs)

        node.http.request = counting
