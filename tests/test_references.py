"""References built once and parsed once: each skeleton keeps its reference
document, a node accepts a repeated reference document without parsing it
again, and a handle's class carries its interface's methods. Also the work
count of one by-reference echo, which these keep small."""

from __future__ import annotations

import copy
import json
import os
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import rrt
from rrt import codec
from rrt.codec import (
    REFERENCE_MEMO_LIMIT,
    REMEMBERED_TEXT_LIMIT,
    ReferenceMemo,
    canonical_bytes,
    doc_to_rior,
    encode_value,
    rior_to_doc,
)
from rrt.errors import ProtocolError, WireFormatError
from rrt.model import (
    RIOR,
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    RemoteProxyBase,
    TypeDescriptor,
    guid_new,
)
from rrt.node import RRTNode
from rrt.registry import MethodTable, TypeRegistry
from rrt.remote import Handle, build_rior, value_decoder
from rrt.toolkit import LocalPair
from rrt.toolkit.demo import (
    Key,
    Message,
    P2PNode,
    deliver,
    install_demo_policy,
    register_demo_types,
)


class Sent(RemoteProxyBase):
    """A value the encoder sends as the reference it holds."""

    def __init__(self, rior: RIOR):
        self.rior = rior


def wire_bytes(rior: RIOR) -> bytes:
    """The bytes a message carries for the reference."""
    return canonical_bytes(encode_value(Sent(rior), rrt.by_reference(), registry=TypeRegistry()))


def sent_doc(rior: RIOR) -> dict:
    return json.loads(wire_bytes(rior))["rior"]


def rebuilt(rior: RIOR) -> RIOR:
    """The same reference as a new object, so its document is built afresh."""
    return RIOR(rior.endpoint, rior.guid, rior.service_name, rior.interface_descriptor,
                rior.cached_field_snapshot)


class TestOutgoing:
    def test_emitted_twice_gives_the_same_bytes(self, pair):
        install_demo_policy(pair.a)
        services = [
            pair.a.services.deploy(P2PNode(Key("k")), "IP2PNode", "P2P"),  # a snapshot
            pair.a.services.deploy(P2PNode(Key("k")), "IManage", None),
            pair.a.services.deploy(Message("m"), None, "msg"),
        ]
        for skeleton in services:
            first, second = build_rior(pair.a, skeleton), build_rior(pair.a, skeleton)
            assert wire_bytes(first) == wire_bytes(second) == wire_bytes(rebuilt(first))
        # A reference without a snapshot is the kept one itself.
        assert build_rior(pair.a, services[2]) is build_rior(pair.a, services[2])

    def test_kept_document_matches_one_built_from_scratch(self, pair):
        # A deploy without an interface exposes only the public methods: a
        # descriptor of its own, whose document the registry does not hold.
        hidden = TypeDescriptor(
            "Hidden",
            fields=(FieldDescriptor("n", "i64"),),
            methods=(MethodDescriptor("peek", (), "i64", visibility=rrt.NON_PUBLIC),),
        )

        class HiddenObj:
            n = 3

            def peek(self):
                return self.n

        pair.a.types.register_type(hidden, MethodTable.for_class(HiddenObj, hidden),
                                   py_type=HiddenObj)
        pair.a.policy.set_field_to_be_cached("Hidden", "n")
        skeleton = pair.a.services.deploy(HiddenObj(), None, None)
        rior = build_rior(pair.a, skeleton)
        assert rior.interface_descriptor is not pair.a.types.lookup("Hidden").descriptor
        assert wire_bytes(rior) == wire_bytes(rebuilt(rior))

    def test_returned_documents_are_the_callers_own(self, pair):
        install_demo_policy(pair.a)
        services = [
            pair.a.services.deploy(P2PNode(Key("k")), "IP2PNode", "P2P"),  # a snapshot
            pair.a.services.deploy(P2PNode(Key("k")), "IManage", None),
        ]
        for skeleton in services:
            rior = build_rior(pair.a, skeleton)
            before = wire_bytes(rior)
            registered = pair.a.types.lookup(skeleton.interface_descriptor.type_name)
            registered_doc = copy.deepcopy(registered.descriptor_doc)
            described = pair.b.http.request(
                pair.a.endpoint, "GET", f"/describe/{skeleton.guid.hex}")
            for doc in (rior_to_doc(rior), json.loads(described)):
                doc["port"] = 1
                doc["iface"]["interface"] = 0
                doc["cache"]["accessors"].append("x")
            assert wire_bytes(rior) == wire_bytes(build_rior(pair.a, skeleton)) == before
            assert registered.descriptor_doc == registered_doc

    def test_snapshot_is_taken_at_each_emission(self, pair):
        install_demo_policy(pair.a)
        node_obj = P2PNode(Key("before"))
        skeleton = pair.a.services.deploy(node_obj, "IP2PNode", None)

        def sent_key():
            return build_rior(pair.a, skeleton).cached_field_snapshot["key"]["fields"]["value"]["v"]

        assert sent_key() == "before"
        node_obj.key = Key("after")
        assert sent_key() == "after"

    def test_cache_rule_change_shows_in_the_next_emission(self, pair):
        skeleton = pair.a.services.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
        assert sent_doc(build_rior(pair.a, skeleton))["cache"]["accessors"] == []
        rule = pair.a.policy.set_field_to_be_cached("P2PNode", "key")
        doc = sent_doc(build_rior(pair.a, skeleton))
        assert doc["cache"]["accessors"] == ["key"]
        assert doc["cache"]["fields"]["key"]["class"] == "Key"
        assert pair.a.policy.remove_rule(rule)
        assert sent_doc(build_rior(pair.a, skeleton))["cache"]["accessors"] == []

    def test_peer_document_cannot_take_over_an_own_guid(self, pair):
        """A peer's document that names an own GUID is remembered, but the
        node still sends its own reference for that service."""
        node = pair.a
        skeleton = node.services.deploy(Message("m"), None, "msg")
        before = wire_bytes(build_rior(node, skeleton))
        impostor = RIOR(Endpoint(node.endpoint.host, 1), skeleton.guid, "other",
                        node.types.lookup("IP2PNode").descriptor)
        parsed = node.references.parse(json.loads(canonical_bytes(rior_to_doc(impostor))))
        assert node.references.get(skeleton.guid.hex) is parsed
        rior = build_rior(node, skeleton)
        assert rior.endpoint is node.endpoint and rior.service_name == "msg"
        assert rior.interface_descriptor is skeleton.interface_descriptor
        assert wire_bytes(rior) == before

    def test_restarted_node_emits_its_new_endpoint(self, node_factory):
        node = node_factory()
        skeleton = node.services.deploy(Message("m"), None, "msg")
        old_port = node.endpoint.port
        assert build_rior(node, skeleton).endpoint.port == old_port
        node.stop()
        # Hold the old port, so the restart must bind another.
        with socket.create_server(("127.0.0.1", old_port)):
            node.start()
            rior = build_rior(node, skeleton)
            assert rior.endpoint == node.endpoint and node.endpoint.port != old_port
            assert sent_doc(rior)["port"] == node.endpoint.port


def p2p_ref_doc(types: TypeRegistry, snapshot: bool = False, **changes) -> dict:
    """A parsed (JSON) document of a reference to an IP2PNode service."""
    snap = {}
    if snapshot:
        snap = {"key": encode_value(Key("k"), rrt.by_value(), registry=types, declared_type="Key")}
    rior = RIOR(Endpoint("127.0.0.1", 8000), guid_new(), "P2P",
                types.lookup("IP2PNode").descriptor, snap)
    return {**json.loads(canonical_bytes(rior_to_doc(rior))), **changes}


UNREGISTERED = TypeDescriptor(
    "Elsewhere",
    supertype_name="Base",
    fields=(FieldDescriptor("n", "i64", mutable=False),),
    methods=(MethodDescriptor("ping", ("i64", "string"), "bool", True),
             MethodDescriptor("hide", (), "void", visibility=rrt.NON_PUBLIC)),
    is_interface=True,
)


def originals(types: TypeRegistry) -> list[dict]:
    unregistered = RIOR(Endpoint("peer.example", 1), guid_new(), None, UNREGISTERED)
    return [
        p2p_ref_doc(types),
        p2p_ref_doc(types, snapshot=True),
        json.loads(canonical_bytes(rior_to_doc(unregistered))),
    ]


def scalar_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from scalar_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from scalar_paths(value, path + (i,))
    else:
        yield path


def key_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, path + (i,))


def holder_of(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


OTHER_SCALARS = [None, True, False, 0, 1, -1, 1.0, 0.5, 8000.0, "", "x", "public", [], {}]


@st.composite
def mutated(draw, doc: dict) -> dict:
    out = copy.deepcopy(doc)
    kind = draw(st.sampled_from(["same", "scalar", "bool", "port", "guid", "drop", "extra"]))
    if kind == "scalar":
        path = draw(st.sampled_from(list(scalar_paths(out))))
        holder_of(out, path)[path[-1]] = draw(st.sampled_from(OTHER_SCALARS))
    elif kind == "bool":
        flags = [p for p in scalar_paths(out) if type(holder_of(out, p)[p[-1]]) is bool]
        path = draw(st.sampled_from(flags))
        holder_of(out, path)[path[-1]] = int(holder_of(out, path)[path[-1]])
    elif kind == "port":
        out["port"] = float(out["port"])
    elif kind == "guid":
        out["guid"] = out["guid"].upper()
    elif kind == "drop":
        path = draw(st.sampled_from(list(key_paths(out))))
        del holder_of(out, path)[path[-1]]
    elif kind == "extra":
        cache = out["cache"]
        if draw(st.booleans()):
            cache["fields"]["extra"] = {"k": "prim", "t": "i64", "v": 1}
        if draw(st.booleans()):
            cache["accessors"].append("extra")
    return out


def outcome(node: RRTNode, doc: dict):
    """What decoding one reference document gives: a comparable result or
    the error's type and text."""
    try:
        value = value_decoder(node).decode({"k": "ref", "rior": doc})
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    fields = {name: vars(v) if hasattr(v, "__dict__") else v
              for name, v in value.cached_fields.items()}
    return isinstance(value, Handle), value.rior, fields


class TestIncoming:
    @pytest.fixture(scope="class")
    def types(self):
        types = TypeRegistry()
        register_demo_types(types)
        return types

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_remembered_document_decides_as_a_fresh_parse(self, types, data):
        doc = data.draw(st.sampled_from(originals(types)))
        seen, fresh = RRTNode(types=types), RRTNode(types=types)
        assert outcome(seen, copy.deepcopy(doc))[0] is True  # accepted, then dropped
        candidate = data.draw(mutated(doc))
        assert outcome(seen, copy.deepcopy(candidate)) == outcome(fresh, candidate)

    def test_equal_documents_of_other_json_types_are_refused(self, types):
        """JSON's 1 equals true and 8000.0 equals 8000: a document equal to a
        registered or remembered one, with an integer for any flag or a
        float port, is refused all the same."""
        doc = p2p_ref_doc(types)
        flags = [p for p in scalar_paths(doc) if type(holder_of(doc, p)[p[-1]]) is bool]
        assert {p[-1] for p in flags} == {"interface", "mutable", "network_fault"}
        candidates = [{**doc, "port": float(doc["port"])}]
        for path in flags:
            candidate = copy.deepcopy(doc)
            holder_of(candidate, path)[path[-1]] = int(holder_of(candidate, path)[path[-1]])
            candidates.append(candidate)
        memo = ReferenceMemo(types)
        memo.parse(copy.deepcopy(doc))
        for candidate in candidates:
            assert candidate == doc
            with pytest.raises(ProtocolError):
                doc_to_rior(candidate, types)
            with pytest.raises(ProtocolError):
                memo.parse(candidate)

    def test_repeated_document_yields_the_remembered_reference(self, types):
        memo = ReferenceMemo(types)
        doc = p2p_ref_doc(types)
        first = memo.parse(copy.deepcopy(doc))
        assert memo.parse(copy.deepcopy(doc)) is first
        assert memo.parse(p2p_ref_doc(types, guid=doc["guid"], name="other")) is not first

    def test_snapshot_references_are_not_remembered(self, types):
        memo = ReferenceMemo(types)
        doc = p2p_ref_doc(types, snapshot=True)
        assert memo.parse(copy.deepcopy(doc)) is not memo.parse(copy.deepcopy(doc))
        assert len(memo) == 0

    def test_only_small_documents_are_remembered(self, types):
        memo = ReferenceMemo(types)
        long_name = p2p_ref_doc(types, name="n" * (REMEMBERED_TEXT_LIMIT + 1))
        long_host = p2p_ref_doc(types, host="h" * (REMEMBERED_TEXT_LIMIT + 1))
        for doc in (long_name, long_host):
            assert memo.parse(copy.deepcopy(doc)) is not memo.parse(copy.deepcopy(doc))
        assert len(memo) == 0

    def test_remembered_document_is_the_one_sent_again(self, types):
        """What a node remembers, and sends on, is the reference's own
        document, not the text it received: a GUID with a trailing newline
        (which the GUID parse accepts) or an extra key matches no remembered
        document, so such a document is parsed in full each time."""
        doc = p2p_ref_doc(types)
        for received in ({**doc, "guid": doc["guid"] + "\n"}, {**doc, "extra": "x"}):
            node = RRTNode(types=types)
            handle = value_decoder(node).decode({"k": "ref", "rior": copy.deepcopy(received)})
            assert node.references.parse(copy.deepcopy(received)) is not handle.rior
            assert sent_doc(handle.rior) == doc
        # Dict equality ignores key order, as the full parse does.
        first = node.references.parse(copy.deepcopy(doc))
        assert node.references.parse(dict(reversed(doc.items()))) is first

    def test_fresh_guids_leave_the_memo_at_its_bound(self, types):
        memo = ReferenceMemo(types)
        docs = [p2p_ref_doc(types) for _ in range(500)]
        riors = [memo.parse(doc) for doc in docs]
        assert len(memo) == REFERENCE_MEMO_LIMIT
        assert memo.parse(copy.deepcopy(docs[-1])) is riors[-1]
        assert memo.parse(copy.deepcopy(docs[0])) is not riors[0]  # the oldest went first

    def test_memo_under_concurrent_parsers(self, types):
        memo = ReferenceMemo(types)
        docs = [p2p_ref_doc(types) for _ in range(REFERENCE_MEMO_LIMIT * 2)]
        failures: list[BaseException] = []

        def parse_all(offset: int) -> None:
            try:
                for i in range(2000):
                    doc = docs[(offset + i * 7) % len(docs)]
                    assert memo.parse(doc).guid.hex == doc["guid"]
            except BaseException as exc:  # noqa: BLE001 - surfaced after join
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse_all, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == [] and len(memo) <= REFERENCE_MEMO_LIMIT

    def test_received_snapshot_never_updates_an_existing_handle(self, pair):
        install_demo_policy(pair.a)
        node_obj = P2PNode(Key("first"))
        pair.a.deploy(node_obj, "IP2PNode", "P2P")
        host, port = pair.a.endpoint.host, pair.a.endpoint.port
        handle = pair.b.get_object_by_name(host, port, "P2P")
        node_obj.key = Key("second")
        again = pair.b.get_object_by_name(host, port, "P2P")
        assert again is handle and handle.get_key().value == "first"


class TestHandleClass:
    def test_one_class_per_interface(self, pair):
        pair.a.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
        pair.a.deploy(P2PNode(Key("o")), "IP2PNode", "other")
        host, port = pair.a.endpoint.host, pair.a.endpoint.port
        handle = pair.b.get_object_by_name(host, port, "P2P")
        other = pair.b.get_object_by_name(host, port, "other")
        assert other is not handle and type(other) is type(handle)
        assert isinstance(handle, Handle)
        assert isinstance(handle.getKey(), Handle)  # a Key goes by reference by default
        with pytest.raises(AttributeError, match="IP2PNode proxy has no method 'getLog'"):
            handle.getLog
        # An interface the receiver has not registered is parsed anew each
        # time; its handles still share one class.
        node = RRTNode(types=TypeRegistry())
        apart = [Handle(RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=iface), node)
                 for iface in (UNREGISTERED, replace(UNREGISTERED))]
        assert apart[0].rior.interface_descriptor is not apart[1].rior.interface_descriptor
        assert type(apart[0]) is type(apart[1])

    def test_handle_attributes_keep_their_meaning(self):
        iface = TypeDescriptor(
            "Clashing",
            methods=(MethodDescriptor("invoke", ("string",)), MethodDescriptor("rior"),
                     MethodDescriptor("interface_name", (), "string")),
            is_interface=True,
        )
        rior = RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=iface)
        handle = Handle(rior, RRTNode(types=TypeRegistry()))
        assert handle.rior is rior and handle.interface_name == "Clashing"
        assert handle.invoke.__func__ is Handle.invoke


def test_json_errors_stay_typed():
    circular: dict = {}
    circular["self"] = circular
    for doc in ({"v": float("nan")}, {"v": float("-inf")}, circular):
        with pytest.raises(WireFormatError, match="not representable"):
            canonical_bytes(doc)
    assert canonical_bytes({"s": "é ", "n": [1, 2.5, None, True]}) == (
        '{"s":"é ","n":[1,2.5,null,true]}'.encode()
    )


# -- work count -------------------------------------------------------------------

class Payload:
    def __init__(self, n: int = 0):
        self.n = n


class Echo:
    def echo(self, value):
        return value


PAYLOAD_TYPE = TypeDescriptor("Payload", fields=(FieldDescriptor("n", "i64"),))
ECHO_TYPE = TypeDescriptor("Echo", methods=(MethodDescriptor("echo", ("Payload",), "Payload"),))


def register_echo(types: TypeRegistry) -> None:
    types.register_type(PAYLOAD_TYPE, py_type=Payload, factory=Payload)
    types.register_type(ECHO_TYPE, MethodTable.for_class(Echo, ECHO_TYPE), py_type=Echo)


#: rrt's own Python calls per by-reference echo; Python 3.10, 3.11, 3.12
#: and 3.13 all count the same.
CLIENT_CALLS_PER_ECHO = 48
SERVER_CALLS_PER_ECHO = 43


def test_calls_per_echo_stay_within_bounds():
    """Count the Python functions of rrt that one echo runs, on each side.

    The ``echo_ref`` call: a Payload goes by reference under the default
    policy, and the server's answer loops back to the caller's own object.
    A count does not vary with the host, so it shows added work where a
    timing would not.
    """
    package = os.path.dirname(rrt.__file__) + os.sep
    main = threading.get_ident()
    counts = {"client": 0, "server": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            counts["client" if threading.get_ident() == main else "server"] += 1

    with LocalPair(registrars=(register_echo,)) as pair:
        client, server = pair.a, pair.b
        server.deploy(Echo(), None, "echo")
        handle = client.get_object_by_name(server.endpoint.host, server.endpoint.port, "echo")
        payload = Payload(7)
        for _ in range(20):
            assert handle.echo(payload) is payload
        # A connection thread keeps the profile it started with: close the
        # pooled connection, so the next call's server thread starts profiled.
        client.http.close()
        threading.setprofile(profile)
        sys.setprofile(profile)
        per_echo = []
        try:
            handle.echo(payload)  # opens the connection
            for _ in range(3):
                time.sleep(0.05)  # the server waits for the next request
                counts.update(client=0, server=0)
                for _ in range(20):
                    handle.echo(payload)
                time.sleep(0.05)
                per_echo.append((counts["client"] / 20, counts["server"] / 20))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    client_calls = min(c for c, _ in per_echo)
    server_calls = min(s for _, s in per_echo)
    assert client_calls <= CLIENT_CALLS_PER_ECHO, per_echo
    assert server_calls <= SERVER_CALLS_PER_ECHO, per_echo


def _echo_pair(pair):
    client, server = pair.a, pair.b
    server.deploy(Echo(), None, "echo")
    handle = client.get_object_by_name(server.endpoint.host, server.endpoint.port, "echo")
    return client, server, handle


def test_warm_echo_resolves_nothing_and_observes_each_value(monkeypatch):
    """Once each value position has been decided, a by-reference echo runs
    ``resolve`` on neither side, and each side's observer still sees its one
    decision: the argument on the client, the return value on the server."""
    resolved = {"client": 0, "server": 0}
    observed: list[tuple] = []
    original = rrt.policy.TransmissionPolicyManager.resolve

    with LocalPair(registrars=(register_echo,)) as pair:
        client, server, handle = _echo_pair(pair)
        payload = Payload(7)
        for _ in range(3):
            assert handle.echo(payload) is payload

        def counting(manager, *args):
            resolved["client" if manager is client.policy else "server"] += 1
            return original(manager, *args)

        client.decision_observer = lambda *seen: observed.append(("client", *seen))
        server.decision_observer = lambda *seen: observed.append(("server", *seen))
        monkeypatch.setattr(rrt.policy.TransmissionPolicyManager, "resolve", counting)
        for _ in range(10):
            assert handle.echo(payload) is payload
    assert resolved == {"client": 0, "server": 0}
    by_reference = rrt.by_reference()
    assert sorted(observed) == sorted(
        [("client", "arg", "Payload", by_reference), ("server", "return", "Payload", by_reference)]
        * 10
    )


def test_handles_with_fresh_interface_names_keep_no_decision():
    """A peer can name ever new interfaces; decisions for names that are not
    registered are not kept, so the kept decisions stay as many as the
    registered positions."""
    with LocalPair(registrars=(register_echo,)) as pair:
        client, server, handle = _echo_pair(pair)
        payload = Payload(7)
        assert handle.echo(payload) is payload
        kept = len(client.policy._memo[1]), len(server.policy._memo[1])
        assert kept == (1, 1)
        method = ECHO_TYPE.methods[0]
        for i in range(1000):
            iface = TypeDescriptor(f"Fresh{i}", methods=(method,))
            fresh = Handle(replace(handle.rior, interface_descriptor=iface), client)
            assert fresh.echo(payload) is payload
        assert (len(client.policy._memo[1]), len(server.policy._memo[1])) == kept


def test_reference_sent_and_got_back_is_held_once(monkeypatch):
    """A reference a node sends and gets back is one entry of its one
    reference table: the document the peer sent back parses to the very
    RIOR the node sent."""
    replies = []
    with LocalPair(registrars=(register_echo,)) as pair:
        client, server, handle = _echo_pair(pair)
        request = client.http.request

        def keeping(*args):
            replies.append(request(*args))
            return replies[-1]

        monkeypatch.setattr(client.http, "request", keeping)
        payload = Payload(7)
        assert handle.echo(payload) is payload
        (skeleton,) = client.services.deployments_of(payload)
        sent = build_rior(client, skeleton)
        held = [rior for rior in client.references.values() if rior.guid == skeleton.guid]
        assert len(held) == 1 and held[0] is sent
        returned = json.loads(replies[-1])["result"]["rior"]
        assert client.references.parse(returned) is sent


def test_handle_without_snapshot_builds_no_lock_or_accessor_table(pair):
    server, client = pair.a, pair.b
    server.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
    p2p = client.get_object_by_name(server.endpoint.host, server.endpoint.port, "P2P")
    assert p2p.cached_fields == {}
    assert not {"_cache_lock", "_accessors"} & vars(p2p).keys()
    assert p2p.get_key().interface_name == "Key"  # over the wire: nothing is cached


def test_by_reference_deliver_builds_no_document_on_the_server(pair, monkeypatch):
    """A reference the server accepts once and never sends on costs it no
    document: the memo keeps the RIOR, whose document waits for a repeat."""
    server, client = pair.a, pair.b
    install_demo_policy(client)  # the Key goes by value, the Message by reference
    server.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
    p2p = client.get_object_by_name(server.endpoint.host, server.endpoint.port, "P2P")
    on_main = []  # per document built: whether the client's thread built it
    original = codec.rior_to_doc

    def counting(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args)

    monkeypatch.setattr(codec, "rior_to_doc", counting)
    for _ in range(5):  # a fresh Message each time, so a fresh service
        deliver(client, p2p, Key("dest"), Message("x" * 2000))
    assert len(server.services.lookup("P2P").service_object._log) == 5
    assert on_main == [True] * 5  # the client builds each document to send it
