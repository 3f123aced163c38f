from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from rrt.codec import Request, canonical_bytes, decode_response, encode_request, rior_to_doc
from rrt.errors import ConfigError, DeploymentError, NetworkFault
from rrt.model import MethodDescriptor, PolicyKind, TypeDescriptor
from rrt.node import MAX_REQUEST_BYTES, NodeConfig, RRTNode, serve
from rrt.registry import MethodTable, TypeRegistry
from rrt.toolkit.demo import Key, P2PNode, install_demo_policy, register_demo_types
from support import prim


def http_get(node, path):
    conn = http.client.HTTPConnection(node.endpoint.host, node.endpoint.port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("Content-Type")
    finally:
        conn.close()


def http_post(node, path, body: bytes):
    conn = http.client.HTTPConnection(node.endpoint.host, node.endpoint.port, timeout=5)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def invoke(node, service, method, wire_args=(), peer="plain"):
    body = encode_request(Request(service, method, tuple(wire_args), peer_kind=peer))
    status, raw = http_post(node, f"/invoke/{service}", body)
    assert status == 200
    return decode_response(raw)


@pytest.fixture
def node(node_factory):
    n = node_factory()
    n.deploy(P2PNode(Key("node-key")), "IP2PNode", "P2P")
    return n


class TestServe:
    def test_services_endpoint_lists_json(self, node):
        status, raw, ctype = http_get(node, "/services")
        assert status == 200 and ctype == "application/json"
        listing = json.loads(raw)
        assert [e["name"] for e in listing] == ["P2P"]
        entry = listing[0]
        assert set(entry) == {"name", "guid", "interface_name", "object_repr"}
        assert entry["interface_name"] == "IP2PNode"
        assert entry["object_repr"].startswith("P2PNode@")

    def test_empty_node_lists_nothing(self, node_factory):
        n = node_factory()
        status, raw, _ = http_get(n, "/services")
        assert status == 200 and json.loads(raw) == []

    def test_same_port_bind_error(self, node):
        with pytest.raises(OSError):
            serve(NodeConfig(port=node.endpoint.port))

    def test_manifest_and_policy_applied_before_traffic(self, tmp_path):
        manifest = tmp_path / "deploy.json"
        manifest.write_text(
            json.dumps(
                [
                    {"type": "P2PNode", "constructor_args": ["k1"],
                     "interface": "IManage", "name": "Manage"},
                    {"type": "P2PNode", "constructor_args": ["k2"],
                     "interface": "IMonitor", "name": "Monitor"},
                    {"type": "P2PNode", "constructor_args": ["k3"],
                     "interface": "IP2PNode", "name": "P2P"},
                ]
            )
        )
        policy = tmp_path / "rules.xml"
        policy.write_text(
            "<policies><class name='Key' policy='BY_VALUE' overridable='true'"
            " subclasses='false'/></policies>"
        )
        types = TypeRegistry()
        register_demo_types(types)
        node = serve(
            NodeConfig(port=0, deploy_manifest=manifest, policy_file=policy),
            types=types,
        )
        try:
            _, raw, _ = http_get(node, "/services")
            assert {e["name"] for e in json.loads(raw)} == {"P2P", "Manage", "Monitor"}
            assert node.policy.get_class_policy("Key")
        finally:
            node.stop()

    @pytest.mark.parametrize("field", ["deploy_manifest", "policy_file"])
    def test_missing_startup_file_aborts(self, tmp_path, field):
        config = NodeConfig(port=0, **{field: tmp_path / "nope"})
        with pytest.raises(ConfigError, match="not readable"):
            serve(config)

    def test_manifest_name_must_be_text(self, tmp_path):
        manifest = tmp_path / "deploy.json"
        manifest.write_text(json.dumps([{"type": "P2PNode", "constructor_args": ["k"],
                                         "name": 5}]))
        types = TypeRegistry()
        register_demo_types(types)
        with pytest.raises(DeploymentError, match="non-empty text"):
            serve(NodeConfig(port=0, deploy_manifest=manifest), types=types)

    def test_name_utf8_cannot_carry_refused(self, node):
        with pytest.raises(DeploymentError, match="UTF-8"):
            node.deploy(P2PNode(Key("k")), "IP2PNode", "bad\ud800name")
        for path in ("/services", "/browse"):
            assert http_get(node, path)[0] == 200

    def test_bad_manifest_aborts(self, tmp_path):
        manifest = tmp_path / "deploy.json"
        manifest.write_text(json.dumps([{"type": "Ghost"}]))
        types = TypeRegistry()
        register_demo_types(types)
        with pytest.raises(ConfigError, match="Ghost"):
            serve(NodeConfig(port=0, deploy_manifest=manifest), types=types)


class TestInvokeEndpoint:
    def test_route_returns_null(self, node):
        resp = invoke(
            node,
            "P2P",
            "route",
            (prim("str", "dest"), prim("str", "hello")),
        )
        assert resp.ok and resp.result == {"k": "prim", "t": "null"}

    def test_unknown_service_protocol_fault(self, node):
        resp = invoke(node, "nope", "route")
        assert not resp.ok
        assert resp.fault.kind == "protocol"
        assert resp.fault.fault_class == "ServiceNotFound"

    def test_interface_protection_over_the_wire(self, node):
        node.deploy(P2PNode(Key("x")), "IManage", "Manage")
        resp = invoke(node, "Manage", "route", (prim("str", "a"), prim("str", "b")))
        assert not resp.ok and resp.fault.kind == "protocol"
        assert resp.fault.fault_class == "UnknownMethodError"

    def test_application_fault_envelope(self, node_factory):
        class Boomer:
            def boom(self):
                raise RuntimeError("kapow")

        desc = TypeDescriptor("Boomer", methods=(MethodDescriptor("boom"),))

        def register(types):
            types.register_type(desc, MethodTable.for_class(Boomer, desc), py_type=Boomer)

        n = node_factory(registrars=(register,))
        n.deploy(Boomer(), name="boomer")
        resp = invoke(n, "boomer", "boom")
        assert not resp.ok
        assert resp.fault.kind == "application"
        assert resp.fault.fault_class == "RuntimeError"
        assert "kapow" in resp.fault.message

    def test_malformed_body_still_yields_envelope(self, node):
        status, raw = http_post(node, "/invoke/P2P", b"this is not json")
        assert status == 200
        resp = decode_response(raw)
        assert not resp.ok and resp.fault.kind == "protocol"

    def test_deeply_nested_body_gets_protocol_fault(self, node):
        depth = 100_000
        body = (
            b'{"rrt":1,"target":"P2P","method":"route","args":['
            + b"[" * depth + b"]" * depth
            + b'],"peer":"plain"}'
        )
        status, raw = http_post(node, "/invoke/P2P", body)
        assert status == 200
        resp = decode_response(raw)
        assert not resp.ok and resp.fault.kind == "protocol"
        assert resp.fault.fault_class == "ProtocolError"
        assert invoke(node, "P2P", "getKey").ok

    def test_version_mismatch_fault(self, node):
        body = json.dumps(
            {"rrt": 99, "target": "P2P", "method": "route", "args": [], "peer": "rrt"}
        ).encode()
        _, raw = http_post(node, "/invoke/P2P", body)
        resp = decode_response(raw)
        assert not resp.ok and "version" in resp.fault.message

    def test_plain_peer_gets_values_rrt_peer_gets_refs(self, node):
        plain = invoke(node, "P2P", "getKey", peer="plain")
        assert plain.result["k"] == "obj"
        rrt = invoke(node, "P2P", "getKey", peer="rrt")
        assert rrt.result["k"] == "ref"

    def test_policy_live_between_calls(self, node):
        first = invoke(node, "P2P", "getKey", peer="plain")
        assert first.result["k"] == "obj"
        node.policy.set_return_value_policy(
            "IP2PNode", "getKey", PolicyKind.BY_REFERENCE, False
        )
        second = invoke(node, "P2P", "getKey", peer="plain")
        assert second.result["k"] == "ref"

    def test_invoke_counter(self, node):
        before = node.invoke_requests
        invoke(node, "P2P", "getLog")
        assert node.invoke_requests == before + 1


def raw_post(node, headers: str, body: bytes = b"") -> tuple[int, bytes]:
    """Send a hand-written POST; read until the server closes the connection."""
    address = (node.endpoint.host, node.endpoint.port)
    with socket.create_connection(address, timeout=5) as sock:
        head = f"POST /invoke/P2P HTTP/1.1\r\nHost: rrt\r\n{headers}\r\n"
        sock.sendall(head.encode("latin-1") + body)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    return int(data.split(b" ", 2)[1]), data


class TestContentLength:
    @pytest.mark.parametrize(
        "headers,status",
        [
            ("", 411),
            ("Content-Length: ten\r\n", 400),
            ("Content-Length: -1\r\n", 400),
            (f"Content-Length: {MAX_REQUEST_BYTES + 1}\r\n", 413),
        ],
        ids=["missing", "not-integer", "negative", "over-cap"],
    )
    def test_refused_and_connection_closed(self, node, headers, status):
        got, data = raw_post(node, headers)
        assert got == status
        assert b"Connection: close" in data
        assert node.invoke_requests == 0

    def test_good_request_after_refusal(self, node):
        raw_post(node, "Content-Length: -1\r\n")
        resp = invoke(node, "P2P", "getKey")
        assert resp.ok and node.invoke_requests == 1

    @pytest.mark.parametrize("size", [MAX_REQUEST_BYTES + 1, 5 * 1024 * 1024])
    def test_oversized_body_sent_in_full_reads_413(self, node, size):
        status, body = http_post(node, "/invoke/P2P", b"x" * size)
        assert status == 413
        assert json.loads(body) == {"error": f"request body over {MAX_REQUEST_BYTES} bytes"}
        assert node.invoke_requests == 0
        assert http_get(node, "/services")[0] == 200


class Relay:
    def bounce(self, peer, hops):
        return 0 if hops == 0 else 1 + peer.bounce(self, hops - 1)


RELAY_TYPE = TypeDescriptor(
    "Relay", methods=(MethodDescriptor("bounce", ("Relay", "i64"), "i64"),)
)


def register_relay(types):
    types.register_type(RELAY_TYPE, MethodTable.for_class(Relay, RELAY_TYPE), py_type=Relay)


class TestConnections:
    def test_third_client_served_beside_two_idle_ones(self, node):
        host, port = node.endpoint.host, node.endpoint.port
        idle = []
        try:
            for _ in range(2):
                conn = http.client.HTTPConnection(host, port, timeout=5)
                conn.request("GET", "/services")
                conn.getresponse().read()
                idle.append(conn)
            third = http.client.HTTPConnection(host, port, timeout=1)
            try:
                third.request("GET", "/services")
                assert third.getresponse().status == 200
            finally:
                third.close()
        finally:
            for conn in idle:
                conn.close()

    def test_stop_returns_while_a_client_holds_a_connection(self, node):
        conn = http.client.HTTPConnection(node.endpoint.host, node.endpoint.port, timeout=5)
        try:
            conn.request("GET", "/services")
            conn.getresponse().read()
            start = time.monotonic()
            node.stop()
            assert time.monotonic() - start < 2.0
        finally:
            conn.close()

    def test_callback_chain_deeper_than_a_small_pool(self, node_factory):
        # Every hop holds a dispatch on its node while it calls the other.
        a, b = (node_factory(registrars=(register_relay,)) for _ in range(2))
        a.deploy(Relay(), name="relay")
        relay_b = Relay()
        b.deploy(relay_b, name="relay")
        handle = b.get_object_by_name(a.endpoint.host, a.endpoint.port, "relay")
        assert handle.bounce(relay_b, 8) == 8
        assert a.fault_log == [] and b.fault_log == []


class TestDescribeAndBrowse:
    def test_describe_full_document(self, node):
        status, raw, _ = http_get(node, "/describe/P2P")
        assert status == 200
        doc = json.loads(raw)
        assert doc["name"] == "P2P"
        assert doc["iface"]["name"] == "IP2PNode"
        methods = {m["name"] for m in doc["iface"]["methods"]}
        assert {"addPeer", "route", "getKey", "get_key", "set_key"} <= methods

    def test_describe_by_guid_for_every_listed(self, node):
        node.deploy(P2PNode(Key("x")), "IManage", "Manage")
        _, raw, _ = http_get(node, "/services")
        for entry in json.loads(raw):
            status, body, _ = http_get(node, f"/describe/{entry['guid']}")
            assert status == 200
            assert json.loads(body)["guid"] == entry["guid"]

    def test_plain_path_alias(self, node):
        status, raw, _ = http_get(node, "/P2P")
        assert status == 200 and json.loads(raw)["name"] == "P2P"

    def test_deploy_returns_the_described_reference(self, node_factory):
        n = node_factory()
        install_demo_policy(n)  # clients cache P2PNode.key
        rior = n.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
        assert set(rior.cached_field_snapshot) == {"key"}
        status, raw, _ = http_get(n, "/describe/P2P")
        assert status == 200 and raw == canonical_bytes(rior_to_doc(rior))

    def test_advertised_url_reaches_its_service(self, node_factory):
        n = node_factory()
        for decoy in ("a", "xA"):  # what the raw names would have found
            n.deploy(P2PNode(Key(decoy)), "IP2PNode", decoy)
        origin = f"http://{n.endpoint.host}:{n.endpoint.port}"
        for name in ("my service", "café", "a?b", "x%41", "a/b", "100%", "#top"):
            rior = n.deploy(P2PNode(Key(name)), "IP2PNode", name)
            assert rior.url.startswith(origin + "/")
            path = rior.url[len(origin):]
            for route in (path, "/describe" + path):
                status, raw, _ = http_get(n, route)
                assert status == 200 and json.loads(raw)["guid"] == rior.guid.hex, route
            status, raw = http_post(n, "/invoke" + path, encode_request(Request(name, "getKey")))
            assert status == 200 and decode_response(raw).ok, name

    def test_describe_unknown_404(self, node):
        status, raw, _ = http_get(node, "/describe/ghost")
        assert status == 404 and "error" in json.loads(raw)

    def test_browse_html(self, node):
        status, raw, ctype = http_get(node, "/browse")
        page = raw.decode()
        assert status == 200 and ctype.startswith("text/html")
        assert "P2P" in page and "IP2PNode" in page
        guid = node.services.lookup("P2P").guid.hex
        assert f"/describe/{guid}" in page

    def test_root_serves_browse(self, node):
        status, raw, ctype = http_get(node, "/")
        assert status == 200 and ctype.startswith("text/html")

    def test_unknown_get_is_404_json(self, node):
        status, raw, _ = http_get(node, "/describe/x/y/z")
        assert status == 404


class TestFailurePolicy:
    METHODS = {
        "i64": MethodDescriptor("count", (), "i64"),
        "bool": MethodDescriptor("ready", (), "bool"),
        "string": MethodDescriptor("name", (), "string"),
        "void": MethodDescriptor("ping", (), "void"),
    }

    def test_declared_fault_propagates(self):
        md = MethodDescriptor("sync", (), "void", declares_network_fault=True)
        fault = NetworkFault("down")
        with pytest.raises(NetworkFault) as info:
            RRTNode().handle_network_fault(md, fault)
        assert info.value is fault
        assert info.value.fast_fail is False

    def test_fast_fail_propagates_marked(self):
        node = RRTNode(NodeConfig(fast_fail=True))
        with pytest.raises(NetworkFault) as info:
            node.handle_network_fault(self.METHODS["void"], NetworkFault("down"))
        assert info.value.fast_fail is True
        assert info.value.message == "down"

    @pytest.mark.parametrize(
        "rt,expected", [("i64", 0), ("f64", 0.0), ("bool", False), ("string", None),
                        ("void", None), ("Key", None)]
    )
    def test_default_values(self, rt, expected):
        md = MethodDescriptor("m", (), rt)
        got = RRTNode().handle_network_fault(md, NetworkFault("down"))
        assert got == expected and type(got) is type(expected)

    def test_suppression_record_contents(self):
        node = RRTNode()
        got = node.handle_network_fault(
            self.METHODS["i64"], NetworkFault("host unreachable")
        )
        assert got == 0
        [record] = node.fault_log
        assert "count/0" in record
        assert "host unreachable" in record
        assert "network" in record

    def test_node_logs_each_suppression_once(self, node_factory, tmp_path):
        sink = tmp_path / "faults.log"
        n = node_factory(NodeConfig(port=0, log_sink=sink))
        md = self.METHODS["string"]
        assert n.handle_network_fault(md, NetworkFault("gone")) is None
        assert len(n.fault_log) == 1
        assert sink.read_text().count("\n") == 1

    def test_fast_fail_node_raises(self, node_factory):
        n = node_factory(NodeConfig(port=0, fast_fail=True))
        with pytest.raises(NetworkFault) as info:
            n.handle_network_fault(self.METHODS["void"], NetworkFault("gone"))
        assert info.value.fast_fail
        assert n.fault_log == []
