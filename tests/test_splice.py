"""References serialized once: an envelope carrying a reference gets the
text of the document its RIOR keeps spliced in, and its bytes and errors are
those of encoding the whole envelope."""

from __future__ import annotations

import copy
import json
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import rrt
from rrt import codec
from rrt.codec import (
    REMEMBERED_TEXT_LIMIT,
    MessageEncoder,
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
from rrt.remote import build_rior, value_encoder
from rrt.toolkit.demo import Key, Message, P2PNode, install_demo_policy, register_demo_types
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


def outcome(encode, message):
    try:
        return encode(message)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the error
        return type(exc), str(exc)


def outcomes(encode, encoder: MessageEncoder, message) -> tuple:
    """(spliced, whole, whether the splice encoded the envelope whole) for
    one message. The whole envelope is encoded after the splice, so
    documents the splice left changed would show."""
    wholes = []
    original = codec.canonical_bytes

    def counting(doc):
        if isinstance(doc, dict) and ("rrt" in doc or "ok" in doc):
            wholes.append(doc)
        return original(doc)

    codec.canonical_bytes = counting
    try:
        spliced = outcome(lambda m: encode(m, encoder), message)
    finally:
        codec.canonical_bytes = original
    return spliced, outcome(encode, message), bool(wholes)


def request_outcomes(encoder: MessageEncoder, args: list) -> tuple:
    return outcomes(encode_request, encoder, Request("t" * 32, "m", args))


def response_outcomes(encoder: MessageEncoder, result: dict) -> tuple:
    return outcomes(encode_response, encoder, Response(ok=True, result=result))


@pytest.fixture
def node():
    return make_node()


# -- differential property ---------------------------------------------------------


def gen_graph(rnd: random.Random, received: list) -> object:
    """A GNode graph with cycles and aliasing, whose leaves and items hold
    tricky text and floats, P2PNodes (referenced with a key snapshot), Messages
    and references the node accepted from peers."""
    nodes: list[GNode] = []

    def leaf():
        roll = rnd.random()
        if roll < 0.2:
            return rnd.choice(TEXTS)
        if roll < 0.3:
            return rnd.choice(FLOATS)
        if roll < 0.5:
            return P2PNode(Key(rnd.choice(TEXTS)))
        if roll < 0.6:
            return Message(rnd.choice(TEXTS))
        if roll < 0.8:
            return rnd.choice(received)
        if roll < 0.9 and nodes:
            return rnd.choice(nodes)
        return rnd.randint(-(2**63), 2**63 - 1)

    def build(level: int) -> GNode:
        node = GNode(tag=rnd.choice(TEXTS), num=rnd.randint(-9, 9))
        nodes.append(node)
        for slot in ("left", "right"):
            roll = rnd.random()
            if roll < 0.4 and level < 5:
                setattr(node, slot, build(level + 1))
            elif roll < 0.6 and nodes:
                setattr(node, slot, rnd.choice(nodes))
        node.items = [leaf() for _ in range(rnd.randint(0, 3))]
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
    # A peer's snapshot is kept as received; this one holds a marker of its own.
    odd = node.references.parse({**received_doc(node), "cache": {
        "fields": {"key": {"rior": 0}}, "accessors": ["key"]}})
    received.append(Sent(odd))
    received += map(Sent, unkept_references(
        node, rnd.choice(HOSTS), rnd.choice(NAMES), rnd.choice(TEXTS)))
    for _ in range(3):  # kept references are reused across messages
        encoder = value_encoder(node)
        args = [encoder.encode(gen_graph(rnd, received), rnd.choice(DECISIONS))
                for _ in range(rnd.randint(1, 3))]
        spliced, whole, _ = request_outcomes(encoder, args)
        assert spliced == whole
        encoder = value_encoder(node)
        result = encoder.encode(gen_graph(rnd, received), rnd.choice(DECISIONS))
        spliced, whole, _ = response_outcomes(encoder, result)
        assert spliced == whole


# -- edge cases --------------------------------------------------------------------


def test_references_the_node_does_not_remember_are_spliced(node):
    riors = unkept_references(node)
    encoder = value_encoder(node)
    args = [encoder.encode(Sent(rior), rrt.by_reference()) for rior in riors]
    spliced, whole, fell_back = request_outcomes(encoder, args)
    assert spliced == whole and not fell_back
    assert all(rior._text is not None and spliced.count(rior._text) == 1 for rior in riors)


def test_threads_sending_a_fresh_reference_at_once_keep_one_document(node, monkeypatch):
    rior = RIOR(Endpoint("127.0.0.1", 8000), guid_new(), "P2P",
                node.types.lookup("IP2PNode").descriptor)
    both_built = threading.Barrier(2, timeout=5)
    original = codec.rior_to_doc

    def racing(*args):
        doc = original(*args)
        both_built.wait()  # neither thread keeps its document before both built one
        return doc

    monkeypatch.setattr(codec, "rior_to_doc", racing)
    encoders = [value_encoder(node), value_encoder(node)]
    docs: list = [None, None]

    def emit(i: int) -> None:
        docs[i] = encoders[i].encode(Sent(rior), rrt.by_reference())

    threads = [threading.Thread(target=emit, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert docs[0]["rior"] is docs[1]["rior"] is rior._doc
    for encoder, doc in zip(encoders, docs):
        spliced, whole, fell_back = request_outcomes(encoder, [doc])
        assert spliced == whole and not fell_back


def test_field_named_rior_and_marker_text_are_spliced_around(node):
    rior = kept_reference(node)
    value = GNode(tag='"rior":0}', items=[Holder(0, Sent(rior)), '{"k":"ref","rior":0}'])
    encoder = value_encoder(node)
    args = [encoder.encode(value, rrt.by_value())]
    spliced, whole, fell_back = request_outcomes(encoder, args)
    assert spliced == whole and b'\\"rior\\":0}' in spliced and not fell_back
    assert rior._text is not None


def test_same_reference_twice_in_one_message(node):
    sent = Sent(kept_reference(node))
    encoder = value_encoder(node)
    args = [encoder.encode(sent, rrt.by_reference()),
            encoder.encode(GNode(items=[sent, sent]), rrt.by_value())]
    spliced, whole, fell_back = request_outcomes(encoder, args)
    assert spliced == whole and spliced.count(sent.rior._text) == 3 and not fell_back


def test_snapshot_holding_a_reference(node):
    inner = kept_reference(node)
    p2p = P2PNode(Key("k"))
    p2p.key = Sent(inner)  # the cached field's value is itself a reference
    encoder = value_encoder(node)
    result = encoder.encode(p2p, rrt.by_reference())
    spliced, whole, fell_back = response_outcomes(encoder, result)
    assert spliced == whole and not fell_back
    snapshot = json.loads(spliced)["result"]["rior"]["cache"]["fields"]["key"]
    assert snapshot == {"k": "ref", "rior": json.loads(codec.canonical_bytes(inner._doc))}


@pytest.mark.parametrize("host", HOSTS[:4])
@pytest.mark.parametrize("name", NAMES)
def test_escaped_hosts_and_names(node, host, name):
    rior = kept_reference(node, host, name)
    encoder = value_encoder(node)
    spliced, whole, fell_back = request_outcomes(
        encoder, [encoder.encode(Sent(rior), rrt.by_reference())])
    assert spliced == whole and not fell_back
    assert rior._text == codec.canonical_bytes(rior._doc)


def test_unencodable_kept_reference_raises_the_whole_envelopes_error(node):
    rior = kept_reference(node, "lone\udc00")
    encoder = value_encoder(node)
    spliced, whole, _ = request_outcomes(encoder, [encoder.encode(Sent(rior), rrt.by_reference())])
    assert spliced == whole and spliced[0] is WireFormatError
    assert "surrogates not allowed" in spliced[1]


def test_nan_in_a_snapshot_raises_the_whole_envelopes_error(node):
    p2p = P2PNode(Key(float("nan")))
    encoder = value_encoder(node)
    spliced, whole, _ = response_outcomes(encoder, encoder.encode(p2p, rrt.by_reference()))
    assert spliced == whole
    assert spliced[0] is WireFormatError
    assert spliced[1].startswith("value not representable in JSON: ")


@pytest.mark.parametrize("change", ["replaced", "removed"])
def test_a_changed_reference_document_is_encoded_as_changed(node, change):
    encoder = value_encoder(node)
    doc = encoder.encode(Sent(kept_reference(node)), rrt.by_reference())
    if change == "replaced":
        doc["rior"] = {**copy.deepcopy(doc["rior"]), "name": "changed"}
    else:
        del doc["rior"]
    spliced, whole, fell_back = request_outcomes(encoder, [doc])
    assert spliced == whole and b'"name":"P2P"' not in spliced and fell_back


def test_documents_are_left_as_they_were(node):
    rior = kept_reference(node)
    encoder = value_encoder(node)
    args = [encoder.encode(GNode(items=[Sent(rior)]), rrt.by_value())]
    encode_request(Request("t", "m", args), encoder)
    assert args[0]["fields"]["items"]["elements"][0]["rior"] is rior._doc


def test_text_is_built_once_and_again_after_a_rule_change(node, monkeypatch):
    built = []
    original = codec.reference_text

    def counting(rior, registry):
        built.append(rior)
        return original(rior, registry)

    monkeypatch.setattr(codec, "reference_text", counting)
    skeleton = node.services.deploy(Message("m"), None, "msg")

    def emit():
        encoder = value_encoder(node)
        doc = encoder.encode(node.services.lookup("msg").service_object, rrt.by_reference())
        return encode_request(Request("t", "m", [doc]), encoder)

    sent = {emit() for _ in range(100)}
    assert len(built) == 1 and len(sent) == 1
    node.policy.set_field_to_be_cached("Key", "value")  # any rule change
    assert emit() in sent
    assert len(built) == 2 and built[1] is build_rior(node, skeleton) is not built[0]


@pytest.mark.parametrize("port", [18765, 18765.0])
def test_port_is_written_as_json_writes_it(port):
    node = make_node()
    node.endpoint = Endpoint("127.0.0.1", port)
    rior = build_rior(node, node.services.deploy(Message("m"), None, "msg"))
    encoder = value_encoder(node)
    spliced, whole, fell_back = request_outcomes(
        encoder, [encoder.encode(Sent(rior), rrt.by_reference())])
    assert spliced == whole and b'"port":%s,' % str(port).encode() in spliced and not fell_back
