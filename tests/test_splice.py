"""Envelopes written in one pass: ``MessageEncoder`` writes each value
position's canonical JSON text as it walks, a reference as the text its RIOR
keeps, and the envelope functions write their heads around those texts.
Their bytes and errors are those of the document walk in ``oracle.py``
followed by ``canonical_bytes`` of the whole envelope."""

from __future__ import annotations

import functools
import json
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import rrt
from rrt import codec
from rrt.codec import (
    MAX_NESTING,
    REMEMBERED_TEXT_LIMIT,
    Request,
    Response,
    encode_request,
    encode_response,
    encode_value,
)
from rrt.errors import WireFormatError
from rrt.model import (
    RIOR,
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    RemoteProxyBase,
    TypeDescriptor,
    guid_new,
)
from rrt.node import NodeConfig, RRTNode
from rrt.registry import TypeRegistry
from rrt.remote import auto_deploy, build_rior, value_encoder
from rrt.toolkit.demo import Key, Message, P2PNode, install_demo_policy, register_demo_types
from oracle import DocumentEncoder, request_bytes, response_bytes
from support import GNode, register_graph_types

TEXTS = (
    "", "plain", '"rior":0}', '{"k":"ref","rior":0}', 'a "quote" and a \\ backslash',
    "control \x00\x1f\x7f", "non-ASCII é ☃ 日本", "  ",
    "lone \ud800",
)
FLOATS = (0.5, -0.0, 1e300, float("nan"), float("inf"))
HOSTS = ("127.0.0.1", "hôte.example", 'q"uo\\te', "tab\there", "lone\udc00")
NAMES = (None, "P2P", "日本語", 'say "hi"\\', "nl\nname")


class Sent(RemoteProxyBase):
    """A value the encoder sends as the reference it holds."""

    def __init__(self, rior: RIOR):
        self.rior = rior


class Holder:
    def __init__(self, rior=0, ref=None):
        self.rior = rior
        self.ref = ref


HOLDER_TYPE = TypeDescriptor(
    "Holder", fields=(FieldDescriptor("rior", "i64"), FieldDescriptor("ref", "Message"))
)
ELSEWHERE = TypeDescriptor(  # an interface the node has not registered
    "Elsewhere",
    fields=(FieldDescriptor("n", "i64"),),
    methods=(MethodDescriptor("ping", ("string",), "bool"),),
    is_interface=True,
)


def make_node() -> RRTNode:
    """A node with an endpoint that never starts: encoding needs no socket."""
    types = TypeRegistry()
    register_demo_types(types)
    register_graph_types(types)
    types.register_type(HOLDER_TYPE, py_type=Holder, factory=Holder)
    node = RRTNode(NodeConfig(host="127.0.0.1", port=18765), types=types)
    install_demo_policy(node)
    return node


def received_doc(node: RRTNode, host: str = "127.0.0.1", name: str | None = "P2P") -> dict:
    """A peer's reference document to an IP2PNode service, as parsed JSON gives it."""
    rior = RIOR(Endpoint(host, 8000), guid_new(), name,
                node.types.lookup("IP2PNode").descriptor)
    return codec.rior_to_doc(rior)


def kept_reference(node: RRTNode, host: str = "127.0.0.1", name: str | None = "P2P") -> RIOR:
    rior = node.references.parse(received_doc(node, host, name))
    assert node.references.get(rior.guid.hex) is rior
    return rior


def unkept_references(node: RRTNode, host: str = "127.0.0.1", name: str | None = "P2P",
                      text: str = "k") -> list[RIOR]:
    """References the node does not remember: accepted with a snapshot, with
    an interface it has not registered or with a name over
    ``REMEMBERED_TEXT_LIMIT``, and one the application built."""
    key = encode_value(Key(text), rrt.by_value(), registry=node.types, declared_type="Key")
    docs = [
        {**received_doc(node, host, name), "cache": {"fields": {"key": key}, "accessors": ["key"]}},
        codec.rior_to_doc(RIOR(Endpoint(host, 1), guid_new(), name, ELSEWHERE)),
        received_doc(node, host, "n" * (REMEMBERED_TEXT_LIMIT + 1)),
    ]
    riors = [node.references.parse(doc) for doc in docs]
    assert not any(node.references.get(rior.guid.hex) for rior in riors)
    iface = node.types.lookup("IP2PNode").descriptor
    return riors + [RIOR(Endpoint(host, 8000), guid_new(), name, iface)]


def outcome(encode, *args):
    try:
        return encode(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the error
        return type(exc), str(exc)


def text_request(node: RRTNode, values: list, decisions: list) -> bytes:
    encoder = value_encoder(node)
    args = [encoder.encode(v, d) for v, d in zip(values, decisions)]
    return encode_request(Request("t" * 32, "m", args))


def oracle_request(node: RRTNode, values: list, decisions: list) -> bytes:
    encoder = DocumentEncoder(node.types, functools.partial(auto_deploy, node))
    return request_bytes("t" * 32, "m", [encoder.encode(v, d) for v, d in zip(values, decisions)])


def text_response(node: RRTNode, value, decision) -> bytes:
    return encode_response(Response(ok=True, result=value_encoder(node).encode(value, decision)))


def oracle_response(node: RRTNode, value, decision) -> bytes:
    encoder = DocumentEncoder(node.types, functools.partial(auto_deploy, node))
    return response_bytes(encoder.encode(value, decision))


def request_outcomes(node: RRTNode, values: list, decisions: list) -> tuple:
    """(written, oracle's) for one request, each its bytes or its error."""
    return (outcome(text_request, node, values, decisions),
            outcome(oracle_request, node, values, decisions))


def response_outcomes(node: RRTNode, value, decision) -> tuple:
    return (outcome(text_response, node, value, decision),
            outcome(oracle_response, node, value, decision))


def all_by_reference(*values) -> tuple[list, list]:
    """Values and their decisions for a request that sends each by reference."""
    return list(values), [rrt.by_reference()] * len(values)


@pytest.fixture
def node():
    return make_node()


# -- differential property ---------------------------------------------------------


def deep(rnd: random.Random, leaf) -> object:
    """A chain of GNodes or of nested lists about ``MAX_NESTING`` deep."""
    value = leaf()
    for _ in range(MAX_NESTING + rnd.randint(-3, 1)):
        value = GNode(left=value) if rnd.random() < 0.5 else [value]
    return value


def gen_graph(rnd: random.Random, received: list) -> object:
    """A GNode graph with cycles and aliasing, whose leaves and items hold
    tricky text and floats, P2PNodes (referenced with a key snapshot),
    Messages, Holders (a field named "rior"), references the node accepted
    from peers, and now and then a fault: an integer past 64 bits, a list
    that holds itself, or a value nested about ``MAX_NESTING`` deep."""
    nodes: list[GNode] = []

    def leaf():
        roll = rnd.random()
        if roll < 0.2:
            return rnd.choice(TEXTS)
        if roll < 0.3:
            return rnd.choice(FLOATS)
        if roll < 0.45:
            return P2PNode(Key(rnd.choice(TEXTS)))
        if roll < 0.5:
            return Holder(0, Sent(rnd.choice(received).rior) if received else None)
        if roll < 0.6:
            return Message(rnd.choice(TEXTS))
        if roll < 0.8:
            return rnd.choice(received)
        if roll < 0.9 and nodes:
            return rnd.choice(nodes)
        return rnd.randint(-(2**63), 2**63 - 1)

    def fault():
        roll = rnd.random()
        if roll < 0.3:
            return rnd.choice((2**63, -(2**63) - 1))
        if roll < 0.5:
            looped: list = [leaf()]
            looped.append(looped)
            return looped
        return deep(rnd, leaf)

    def build(level: int) -> GNode:
        node = GNode(tag=rnd.choice(TEXTS), num=rnd.randint(-9, 9))
        nodes.append(node)
        for slot in ("left", "right"):
            roll = rnd.random()
            if roll < 0.4 and level < 5:
                setattr(node, slot, build(level + 1))
            elif roll < 0.6 and nodes:
                setattr(node, slot, rnd.choice(nodes))
        node.items = [fault() if rnd.random() < 0.03 else leaf()
                      for _ in range(rnd.randint(0, 3))]
        return node

    return build(0) if rnd.random() < 0.8 else leaf()


DECISIONS = (rrt.by_reference(), rrt.by_value(), rrt.by_value(1), rrt.by_value(2))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spliced_envelopes_match_the_whole_encoding(seed):
    rnd = random.Random(seed)
    node = make_node()
    received = [Sent(kept_reference(node, rnd.choice(HOSTS), rnd.choice(NAMES)))
                for _ in range(3)]
    # Peers' snapshots are kept as received: an odd one, and one JSON cannot carry.
    for value in ({"rior": 0}, {"k": "prim", "t": "f64", "v": rnd.choice(FLOATS)}):
        received.append(Sent(node.references.parse({**received_doc(node), "cache": {
            "fields": {"key": value}, "accessors": ["key"]}})))
    received += map(Sent, unkept_references(
        node, rnd.choice(HOSTS), rnd.choice(NAMES), rnd.choice(TEXTS)))
    for _ in range(3):  # kept references are reused across messages
        values = [gen_graph(rnd, received) for _ in range(rnd.randint(1, 3))]
        written, oracle = request_outcomes(node, values, [rnd.choice(DECISIONS) for _ in values])
        assert written == oracle
        written, oracle = response_outcomes(node, gen_graph(rnd, received), rnd.choice(DECISIONS))
        assert written == oracle


# -- edge cases --------------------------------------------------------------------


def test_references_the_node_does_not_remember_are_spliced(node):
    riors = unkept_references(node)
    written, oracle = request_outcomes(node, *all_by_reference(*map(Sent, riors)))
    assert written == oracle
    assert all(rior._text is not None and written.count(rior._text.encode()) == 1
               for rior in riors)


def test_threads_sending_a_fresh_reference_at_once_keep_one_text(node, monkeypatch):
    rior = RIOR(Endpoint("127.0.0.1", 8000), guid_new(), "P2P",
                node.types.lookup("IP2PNode").descriptor)
    both_built = threading.Barrier(2, timeout=5)
    original = codec.canonical_text

    def racing(doc):
        if doc == rior.guid.hex:  # neither thread keeps its text before both wrote one
            both_built.wait()
        return original(doc)

    monkeypatch.setattr(codec, "canonical_text", racing)
    texts: list = [None, None]

    def emit(i: int) -> None:
        texts[i] = codec.reference_text(rior, node.types)

    threads = [threading.Thread(target=emit, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert texts[0] is texts[1] is rior._text
    monkeypatch.undo()
    written, oracle = request_outcomes(node, *all_by_reference(Sent(rior)))
    assert written == oracle and written.count(rior._text.encode()) == 1


def test_same_reference_twice_in_one_message(node):
    sent = Sent(kept_reference(node))
    values = [sent, GNode(items=[sent, sent])]
    written, oracle = request_outcomes(node, values, [rrt.by_reference(), rrt.by_value()])
    assert written == oracle and written.count(sent.rior._text.encode()) == 3


def test_snapshot_holding_a_reference(node):
    inner = kept_reference(node)
    p2p = P2PNode(Key("k"))
    p2p.key = Sent(inner)  # the cached field's value is itself a reference
    written, oracle = response_outcomes(node, p2p, rrt.by_reference())
    assert written == oracle
    snapshot = json.loads(written)["result"]["rior"]["cache"]["fields"]["key"]
    assert snapshot == {"k": "ref", "rior": json.loads(codec.canonical_bytes(
        codec.rior_to_doc(inner)))}


@pytest.mark.parametrize("host", HOSTS[:4])
@pytest.mark.parametrize("name", NAMES)
def test_escaped_hosts_and_names(node, host, name):
    rior = kept_reference(node, host, name)
    written, oracle = request_outcomes(node, *all_by_reference(Sent(rior)))
    assert written == oracle
    assert rior._text == codec.canonical_text(codec.rior_to_doc(rior))


def test_unencodable_kept_reference_raises_the_whole_envelopes_error(node):
    rior = kept_reference(node, "lone\udc00")
    written, oracle = request_outcomes(node, *all_by_reference(Sent(rior)))
    assert written == oracle and written[0] is WireFormatError
    assert "surrogates not allowed" in written[1]


def test_nan_in_a_snapshot_raises_the_whole_envelopes_error(node):
    """A cached field JSON cannot carry fails as the snapshot is taken, and
    the service deployed for it is undeployed again; a peer's snapshot fails
    as its reference is written."""
    before = len(node.services.list_skeletons())
    written, oracle = response_outcomes(node, P2PNode(Key(float("nan"))), rrt.by_reference())
    assert written == oracle
    assert written[0] is WireFormatError
    assert written[1].startswith("value not representable in JSON: ")
    assert len(node.services.list_skeletons()) == before
    peer = node.references.parse({**received_doc(node), "cache": {
        "fields": {"key": {"k": "prim", "t": "f64", "v": float("inf")}}, "accessors": ["key"]}})
    written, oracle = response_outcomes(node, Sent(peer), rrt.by_reference())
    assert written == oracle and written[0] is WireFormatError
    assert peer._text is None


def test_first_fault_in_walk_order_wins(node):
    """A float JSON cannot carry fails where the walk meets it, before a
    value nested too deep that comes after it."""
    too_deep: list = []
    for _ in range(MAX_NESTING):
        too_deep = [too_deep]
    for first, then, match in ((float("nan"), too_deep, "not representable"),
                               (too_deep, float("nan"), "nests more than")):
        values = [GNode(items=[first, then])]
        written, oracle = request_outcomes(node, values, [rrt.by_value()])
        assert written == oracle and written[0] is WireFormatError and match in written[1]


def test_text_is_built_once_and_again_after_a_rule_change(node, monkeypatch):
    """A service's reference keeps its text across rule changes that cache
    none of its fields; a cache rule on one of them sends a snapshot, and
    removing the rule sends the kept reference again."""
    built = []
    original = codec.reference_text

    def counting(rior, registry):
        built.append(rior)
        return original(rior, registry)

    monkeypatch.setattr(codec, "reference_text", counting)
    skeleton = node.services.deploy(Message("m"), None, "msg")

    def emit():
        written, oracle = request_outcomes(
            node, *all_by_reference(node.services.lookup("msg").service_object))
        assert written == oracle
        return written

    sent = {emit() for _ in range(100)}
    kept = build_rior(node, skeleton)
    assert len(built) == 1 and len(sent) == 1 and built[0] is kept
    node.policy.set_field_to_be_cached("Key", "value")  # caches none of Message's fields
    assert emit() in sent
    assert len(built) == 1 and build_rior(node, skeleton) is kept
    rule = node.policy.set_field_to_be_cached("Message", "payload")
    snapshot = emit()
    assert snapshot not in sent and b'"accessors":["payload"]' in snapshot
    assert built[1] is not kept and built[1].cached_field_snapshot
    assert node.policy.remove_rule(rule)
    assert emit() in sent
    assert built[2:] == [] and build_rior(node, skeleton) is kept


@pytest.mark.parametrize("port", [18765, 18765.0])
def test_port_is_written_as_json_writes_it(port):
    node = make_node()
    node.endpoint = Endpoint("127.0.0.1", port)
    rior = build_rior(node, node.services.deploy(Message("m"), None, "msg"))
    written, oracle = request_outcomes(node, *all_by_reference(Sent(rior)))
    assert written == oracle and b'"port":%s,' % str(port).encode() in written
