from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import support
from rrt.codec import (
    MAX_NESTING,
    MAX_REQUEST_BYTES,
    Fault,
    MessageDecoder,
    MessageEncoder,
    Request,
    Response,
    canonical_bytes,
    decode_request,
    decode_response,
    decode_value,
    doc_to_rior,
    encode_request,
    encode_response,
    encode_value,
    rior_to_doc,
)
from rrt.errors import ProtocolError, UnregisteredTypeError, WireFormatError
from rrt.model import (
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    RIOR,
    TypeDescriptor,
    UNBOUNDED,
    by_reference,
    by_value,
    guid_new,
)
from support import GNode, gen_graph, graphs_equal, prim


def backref(oid):
    return {"k": "backref", "id": oid}


def obj_doc(class_name, oid, fields=None):
    return {"k": "obj", "class": class_name, "id": oid, "fields": fields or {}}


#: An interface with a field and a method, so every flag of a type document occurs.
FLAGS_TYPE = TypeDescriptor(
    "Flags",
    fields=(FieldDescriptor("f", "i64"),),
    methods=(MethodDescriptor("m", ("i64",), "i64"),),
    is_interface=True,
)


@pytest.fixture
def registry():
    return support.graph_registry()


def fake_deploy_factory():
    """Deployment stub: hands out loop-back-free references and records calls."""
    deployed = []

    def deploy(obj, signature):
        deployed.append((obj, signature))
        return RIOR(
            Endpoint("elsewhere", 9999),
            guid_new(),
            interface_descriptor=support.GNODE_TYPE,
        )

    return deploy, deployed


class TestPrimitives:
    def test_examples(self, registry):
        def enc(value):
            return encode_value(value, by_value(), registry=registry)

        assert enc(42) == prim("i64", 42)
        assert enc(True) == prim("bool", True)
        assert enc(1.5) == prim("f64", 1.5)
        assert enc("x") == prim("str", "x")
        assert enc(None) == {"k": "prim", "t": "null"}

    def test_encode_value_keeps_primitives(self, registry):
        assert encode_value(42, by_value(), registry=registry) == prim("i64", 42)
        # A by-reference decision never wraps a primitive.
        assert encode_value(42, by_reference(), registry=registry) == prim("i64", 42)

    def test_i64_overflow_rejected(self, registry):
        with pytest.raises(WireFormatError, match="64-bit"):
            encode_value(2**63, by_value(), registry=registry)


class TestGraphEncoding:
    def test_two_node_chain_shape(self, registry):
        b = GNode(tag="b")
        a = GNode(tag="a", left=b)
        wire = encode_value(a, by_value(UNBOUNDED), registry=registry)
        assert wire["k"] == "obj" and wire["id"] == 0
        assert wire["fields"]["tag"] == prim("str", "a")
        inner = wire["fields"]["left"]
        assert inner["k"] == "obj" and inner["id"] == 1
        assert inner["fields"]["left"] == prim("null")

    def test_self_cycle_becomes_backref(self, registry):
        a = GNode(tag="loop")
        a.left = a
        wire = encode_value(a, by_value(), registry=registry)
        assert wire["fields"]["left"] == backref(0)
        decoded = decode_value(wire, registry=registry)
        assert decoded.left is decoded

    def test_aliasing_preserved(self, registry):
        shared = GNode(tag="shared")
        root = GNode(tag="root", left=shared, right=shared)
        wire = encode_value(root, by_value(), registry=registry)
        assert wire["fields"]["left"]["k"] == "obj"
        assert wire["fields"]["right"] == backref(wire["fields"]["left"]["id"])
        decoded = decode_value(wire, registry=registry)
        assert decoded.left is decoded.right

    def test_ids_first_encounter_preorder(self, registry):
        g = GNode(tag="r", left=GNode(tag="l", left=GNode(tag="ll")), right=GNode(tag="rr"))
        wire = encode_value(g, by_value(), registry=registry)
        order = []

        def walk(w):
            if w["k"] == "obj":
                order.append(w["id"])
                for v in w["fields"].values():
                    walk(v)

        walk(wire)
        assert order == [0, 1, 2, 3]

    def test_unregistered_type_rejected(self, registry):
        class Alien:
            pass

        with pytest.raises(UnregisteredTypeError):
            encode_value(Alien(), by_value(), registry=registry)

    def test_by_reference_uses_deploy_callback(self, registry):
        deploy, deployed = fake_deploy_factory()
        node = GNode(tag="x")
        wire = encode_value(
            node, by_reference(), registry=registry, deploy_ref=deploy,
            declared_type="GNode",
        )
        assert wire["k"] == "ref"
        assert doc_to_rior(wire["rior"]).interface_descriptor == support.GNODE_TYPE
        assert deployed == [(node, "GNode")]

    def test_by_reference_without_callback_fails(self, registry):
        with pytest.raises(WireFormatError, match="callback"):
            encode_value(GNode(), by_reference(), registry=registry)

    def test_depth_boundary_degrades_to_ref(self, registry):
        deploy, deployed = fake_deploy_factory()
        chain = GNode(tag="l1", left=GNode(tag="l2", left=GNode(tag="l3")))
        wire = encode_value(
            chain, by_value(2), registry=registry, deploy_ref=deploy
        )
        level2 = wire["fields"]["left"]
        assert level2["k"] == "obj"
        assert level2["fields"]["left"]["k"] == "ref"
        assert [obj.tag for obj, _ in deployed] == ["l3"]
        # Boundary refs carry the declared field type as signature.
        assert deployed[0][1] == "GNode"

    def test_seq_transparent_for_depth(self, registry):
        inner = GNode(tag="deep")
        root = GNode(tag="root", items=[inner, 5, "s"])
        wire = encode_value(root, by_value(2), registry=registry)
        items = wire["fields"]["items"]
        assert items["k"] == "seq"
        assert items["elements"][0]["k"] == "obj"  # level 2, inlined

    def test_list_cycle_rejected(self, registry):
        lst: list = []
        lst.append(lst)
        with pytest.raises(WireFormatError, match="sequence"):
            encode_value(lst, by_value(), registry=registry)

    def test_round_trip_small_batch(self, registry):
        rnd = random.Random(7)
        for _ in range(100):
            g = gen_graph(rnd)
            wire = encode_value(g, by_value(), registry=registry)
            back = decode_value(wire, registry=registry)
            assert graphs_equal(registry, g, back)

    def test_leaf_multiset_preserved_under_depth(self, registry):
        rnd = random.Random(21)
        deploy, _ = fake_deploy_factory()
        for _ in range(50):
            g = gen_graph(rnd, max_nodes=12)
            for depth in (1, 2, 3, UNBOUNDED):
                wire = encode_value(
                    g, by_value(depth), registry=registry, deploy_ref=deploy
                )
                expected = Counter(
                    (type(v).__name__, v) for v in support.prim_leaves(registry, g, depth)
                )
                got = Counter(
                    (type(v).__name__, v) for v in support.wire_prim_leaves(wire)
                )
                assert expected == got

    def test_encoding_deterministic(self, registry):
        rnd = random.Random(3)
        g = gen_graph(rnd)
        one = encode_request(
            Request("t", "m", (encode_value(g, by_value(), registry=registry),))
        )
        two = encode_request(
            Request("t", "m", (encode_value(g, by_value(), registry=registry),))
        )
        assert one == two


class TestMessageScope:
    def test_aliasing_across_positions(self, registry):
        shared = GNode(tag="shared")
        enc = MessageEncoder(registry)
        w0 = enc.encode(shared, by_value())
        w1 = enc.encode(shared, by_value())
        assert w0["k"] == "obj" and w1 == backref(w0["id"])
        dec = MessageDecoder(registry)
        a, b = dec.decode(w0), dec.decode(w1)
        assert a is b

    def test_duplicate_ids_across_positions_rejected(self, registry):
        dec = MessageDecoder(registry)
        dec.decode(obj_doc("GNode", 0))
        with pytest.raises(ProtocolError, match="duplicate"):
            dec.decode(obj_doc("GNode", 0))


class TestDecodeErrors:
    def test_dangling_backref(self, registry):
        with pytest.raises(ProtocolError, match="unknown object id 7"):
            decode_value(backref(7), registry=registry)

    def test_unknown_class(self, registry):
        with pytest.raises(ProtocolError, match="unknown class"):
            decode_value(obj_doc("Ghost", 0), registry=registry)

    def test_undeclared_field(self, registry):
        with pytest.raises(ProtocolError, match="undeclared field"):
            decode_value(
                obj_doc("GNode", 0, {"bogus": prim("null")}), registry=registry
            )

    def test_ref_without_resolver(self, registry):
        rior = RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=support.GNODE_TYPE)
        with pytest.raises(ProtocolError, match="resolver"):
            decode_value({"k": "ref", "rior": rior_to_doc(rior)}, registry=registry)


class TestEnvelopes:
    def test_request_key_order(self):
        raw = encode_request(Request("P2P", "route", (), peer_kind="rrt"))
        assert raw.startswith(b'{"rrt":1,"target":"P2P","method":"route","args":[],"peer":"rrt"}')

    def test_null_result_body(self):
        raw = encode_response(Response(ok=True, result=prim("null")))
        assert raw == b'{"ok":true,"result":{"k":"prim","t":"null"}}'

    def test_fault_body(self):
        raw = encode_response(
            Response(ok=False, fault=Fault("application", "ValueError", "boom"))
        )
        doc = json.loads(raw)
        assert doc == {
            "ok": False,
            "fault": {"kind": "application", "class": "ValueError", "message": "boom"},
        }

    def test_version_mismatch(self):
        raw = json.dumps(
            {"rrt": 2, "target": "x", "method": "m", "args": [], "peer": "rrt"}
        ).encode()
        with pytest.raises(ProtocolError, match="version"):
            decode_request(raw)

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_request(b"{nope")

    def test_request_round_trip_independent_parser(self):
        rnd = random.Random(5)
        req = support.gen_request(rnd)
        raw = encode_request(req)
        # Oracle: a plain JSON parse must see the same scalar fields.
        doc = json.loads(raw.decode("utf-8"))
        assert doc["target"] == req.target
        assert doc["method"] == req.method
        assert doc["peer"] == req.peer_kind
        assert len(doc["args"]) == len(req.args)
        assert decode_request(raw) == req

    def test_envelope_batch_byte_exact(self):
        rnd = random.Random(9)
        for _ in range(100):
            req = support.gen_request(rnd)
            raw = encode_request(req)
            assert encode_request(decode_request(raw)) == raw
            resp = support.gen_response(rnd)
            raw = encode_response(resp)
            assert encode_response(decode_response(raw)) == raw

    def test_response_requires_exactly_one_side(self):
        with pytest.raises(ValueError):
            Response(ok=True)
        with pytest.raises(ValueError):
            Response(ok=False)

    def test_bad_peer_kind(self):
        raw = json.dumps(
            {"rrt": 1, "target": "x", "method": "m", "args": [], "peer": "carrier-pigeon"}
        ).encode()
        with pytest.raises(ProtocolError, match="peer"):
            decode_request(raw)


class TestRiorDocument:
    def test_round_trip(self):
        rnd = random.Random(2)
        for _ in range(50):
            rior = support.gen_rior(rnd)
            assert doc_to_rior(rior_to_doc(rior)) == rior

    def test_document_key_order(self):
        rnd = random.Random(2)
        doc = rior_to_doc(support.gen_rior(rnd))
        assert list(doc) == ["host", "port", "guid", "name", "iface", "cache"]

    @pytest.mark.parametrize("accessors", [[], ["f1"], ["f0", "f1"], [["f0"]], [None]])
    def test_accessors_must_name_the_cached_fields(self, accessors):
        fields = (FieldDescriptor("f0", "i64"), FieldDescriptor("f1", "i64"))
        rior = RIOR(
            Endpoint("h", 1),
            guid_new(),
            interface_descriptor=TypeDescriptor("I", fields=fields),
            cached_field_snapshot={"f0": prim("i64", 1)},
        )
        doc = rior_to_doc(rior)
        assert doc["cache"]["accessors"] == ["f0"] and doc_to_rior(doc) == rior
        doc["cache"]["accessors"] = accessors
        with pytest.raises(ProtocolError):
            doc_to_rior(doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("name",), 5),
            (("cache",), []),
            (("cache",), None),
            (("iface", "supertype"), 5),
            (("iface", "fields", 0, "name"), 5),
            (("iface", "fields", 0, "type"), ["i64"]),
            (("iface", "fields", 0, "mutable"), "no"),
            (("iface", "methods", 0, "name"), 5),
            (("iface", "methods", 0, "params"), "abc"),
            (("iface", "methods", 0, "params", 0), 5),
            (("iface", "methods", 0, "returns"), 5),
            (("iface", "methods", 0, "network_fault"), "no"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v),
    )
    def test_mistyped_key_refused(self, registry, path, value):
        registry.register_type(FLAGS_TYPE)
        registered = registry.lookup("Flags").descriptor
        doc = rior_to_doc(RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=registered))
        assert doc_to_rior(doc, registry).interface_descriptor is registered
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        for types in (registry, None):
            with pytest.raises(ProtocolError):
                doc_to_rior(doc, types)

    def test_malformed_rior(self):
        with pytest.raises(ProtocolError):
            doc_to_rior({"host": "h"})
        with pytest.raises(ProtocolError):
            doc_to_rior("not an object")

    def test_wire_doc_rejects_unknown_kind(self, registry):
        with pytest.raises(ProtocolError, match="discriminator"):
            decode_value({"k": "mystery"}, registry=registry)
        with pytest.raises(ProtocolError):
            decode_value(["not", "a", "dict"], registry=registry)

    def test_prim_doc_validation(self, registry):
        with pytest.raises(ProtocolError, match="overflow"):
            decode_value({"k": "prim", "t": "i64", "v": 2**70}, registry=registry)
        with pytest.raises(ProtocolError, match="integer"):
            decode_value({"k": "prim", "t": "i64", "v": True}, registry=registry)
        with pytest.raises(ProtocolError):
            decode_value({"k": "prim", "t": "null", "v": 1}, registry=registry)


class TestProperties:
    @given(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=40),
        )
    )
    def test_prim_document_round_trip(self, value):
        doc = encode_value(value, by_value(), registry=None)
        back = decode_value(json.loads(json.dumps(doc)), registry=None)
        assert back == value and type(back) is type(value)
        assert encode_value(back, by_value(), registry=None) == doc

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
    def test_seq_round_trip_preserves_order(self, values):
        registry = support.graph_registry()
        wire = encode_value(list(values), by_value(), registry=registry)
        assert decode_value(wire, registry=registry) == list(values)


class TestDocumentChecks:
    """Every check of the decoder, one malformed document each."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"k": "prim", "t": "i32", "v": 1}, "unknown primitive tag"),
            ({"k": "prim", "v": 1}, "missing key 't'"),
            ({"k": "prim", "t": "i64"}, "requires a value"),
            ({"k": "prim", "t": "i64", "v": 1.0}, "integer"),
            ({"k": "prim", "t": "i64", "v": -(2**63) - 1}, "overflow"),
            ({"k": "prim", "t": "f64", "v": False}, "number"),
            ({"k": "prim", "t": "bool", "v": 0}, "boolean"),
            ({"k": "prim", "t": "str", "v": 5}, "text"),
            ({"k": "obj", "id": 0, "fields": {}}, "missing key 'class'"),
            ({"k": "obj", "class": "GNode", "id": True, "fields": {}}, "integer"),
            ({"k": "obj", "class": "GNode", "id": 0, "fields": []}, "wrong type"),
            ({"k": "backref", "id": "0"}, "wrong type"),
            ({"k": "seq", "elements": {}}, "wrong type"),
            ({"k": "seq", "elements": [1]}, "discriminator"),
            ({"k": "ref", "rior": {"host": "h"}}, "missing key 'port'"),
            ({"t": "i64", "v": 1}, "discriminator"),
        ],
    )
    def test_malformed_documents(self, registry, doc, message):
        with pytest.raises(ProtocolError, match=message):
            decode_value(doc, registry=registry, resolve_ref=lambda r: r)

    def test_non_instantiable_class(self, registry):
        registry.register_type(TypeDescriptor("Abstract"))
        with pytest.raises(ProtocolError, match="not instantiable"):
            decode_value(obj_doc("Abstract", 0), registry=registry)

    def test_f64_accepts_integral_json_numbers(self, registry):
        back = decode_value({"k": "prim", "t": "f64", "v": 2}, registry=registry)
        assert back == 2.0 and type(back) is float


def chain(length: int) -> GNode:
    head = None
    for i in range(length):
        head = GNode(tag=f"c{i}", left=head)
    return head


def nested_seq_doc(levels: int) -> dict:
    doc = prim("null")
    for _ in range(levels):
        doc = {"k": "seq", "elements": [doc]}
    return doc


class TestNesting:
    def test_chain_at_the_limit_round_trips(self, registry):
        # The last node's (empty) items list is one level below it.
        head = chain(MAX_NESTING - 1)
        raw = encode_response(
            Response(ok=True, result=encode_value(head, by_value(), registry=registry))
        )
        back = decode_value(decode_response(raw).result, registry=registry)
        assert graphs_equal(registry, head, back)

    def test_encode_past_the_limit_is_typed(self, registry):
        with pytest.raises(WireFormatError, match="nests more than"):
            encode_value(chain(MAX_NESTING), by_value(), registry=registry)
        deep: list = []
        for _ in range(MAX_NESTING):
            deep = [deep]
        with pytest.raises(WireFormatError, match="nests more than"):
            encode_value(deep, by_value(), registry=registry)

    def test_decode_past_the_limit_is_typed(self, registry):
        assert decode_value(nested_seq_doc(MAX_NESTING), registry=registry)
        with pytest.raises(ProtocolError, match="nests more than"):
            decode_value(nested_seq_doc(MAX_NESTING + 1), registry=registry)
        doc = prim("null")
        for oid in range(MAX_NESTING + 1):
            doc = obj_doc("GNode", MAX_NESTING - oid, {"left": doc})
        with pytest.raises(ProtocolError, match="nests more than"):
            decode_value(doc, registry=registry)

    def test_json_too_deep_for_the_parser(self):
        raw = b'{"ok":true,"result":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        with pytest.raises(ProtocolError, match="too deeply"):
            decode_response(raw)

    def test_document_too_deep_for_json(self):
        doc: list = []
        for _ in range(100_000):
            doc = [doc]
        with pytest.raises(WireFormatError, match="too deeply"):
            canonical_bytes(doc)


class TestRequestSize:
    def test_request_over_the_limit_refused(self):
        small = encode_request(Request("t", "m", (prim("str", ""),)))
        filler = "x" * (MAX_REQUEST_BYTES - len(small))
        assert len(encode_request(Request("t", "m", (prim("str", filler),)))) == (
            MAX_REQUEST_BYTES
        )
        with pytest.raises(WireFormatError, match="over the"):
            encode_request(Request("t", "m", (prim("str", filler + "x"),)))


class TestInterfaceReuse:
    def test_equal_document_yields_registered_descriptor(self, registry):
        registered = registry.lookup("GNode").descriptor
        rior = RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=registered)
        doc = json.loads(canonical_bytes(rior_to_doc(rior)))
        assert doc_to_rior(doc, registry).interface_descriptor is registered
        built = doc_to_rior(doc).interface_descriptor
        assert built is not registered and built == registered

    def test_different_document_yields_its_own_descriptor(self, registry):
        registered = registry.lookup("GNode").descriptor
        remote = TypeDescriptor(
            "GNode", fields=registered.fields + (FieldDescriptor("extra", "i64"),)
        )
        doc = rior_to_doc(RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=remote))
        got = doc_to_rior(doc, registry).interface_descriptor
        assert got is not registered and got == remote

    def test_integer_for_boolean_still_refused(self, registry):
        registered = registry.lookup("GNode").descriptor
        rior = RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=registered)
        doc = rior_to_doc(rior)
        doc["iface"]["interface"] = 0
        with pytest.raises(ProtocolError):
            doc_to_rior(doc, registry)
        registry.register_type(FLAGS_TYPE)
        rior = RIOR(Endpoint("h", 1), guid_new(), interface_descriptor=FLAGS_TYPE)
        for section, flag in (("fields", "mutable"), ("methods", "network_fault")):
            doc = rior_to_doc(rior)
            entry = doc["iface"][section][0]
            entry[flag] = int(entry[flag])
            with pytest.raises(ProtocolError):
                doc_to_rior(doc, registry)
