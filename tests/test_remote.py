from __future__ import annotations

import http.client
import socket
import struct
import threading
import time

import pytest

import support
from rrt import codec
from rrt.codec import MAX_REQUEST_BYTES, Request, encode_request
from rrt.errors import (
    ApplicationFault,
    NetworkFault,
    ProtocolError,
    ServiceNotFound,
    UnknownMethodError,
    WireFormatError,
)
from rrt.model import (
    UNBOUNDED,
    Endpoint,
    FieldDescriptor,
    MethodDescriptor,
    PolicyKind,
    TypeDescriptor,
)
from rrt.node import NodeConfig
from rrt.registry import MethodTable
from rrt.remote import (
    Handle,
    HttpClient,
    _still_open,
    auto_deploy,
    build_rior,
    resolve_incoming_rior,
)
from rrt.toolkit import LocalPair
from rrt.toolkit.demo import (
    Key,
    Message,
    P2PNode,
    deliver,
    install_demo_policy,
    register_demo_types,
)

import test_node


@pytest.fixture
def deployed(pair):
    node_obj = P2PNode(Key("node-key"))
    pair.a.deploy(node_obj, "IP2PNode", "P2P")
    return node_obj


def a_addr(pair):
    return pair.a.endpoint.host, pair.a.endpoint.port


class TestGetObjectByName:
    def test_returns_typed_handle(self, pair, deployed):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        assert isinstance(handle, Handle)
        assert handle.interface_name == "IP2PNode"

    def test_unknown_name_not_found(self, pair):
        host, port = a_addr(pair)
        with pytest.raises(ServiceNotFound):
            pair.b.get_object_by_name(host, port, "ghost")

    def test_same_service_same_handle(self, pair, deployed):
        host, port = a_addr(pair)
        one = pair.b.get_object_by_name(host, port, "P2P")
        two = pair.b.get_object_by_name(host, port, "P2P")
        assert one is two

    def test_guid_lookup(self, pair, deployed):
        host, port = a_addr(pair)
        guid = pair.a.services.lookup("P2P").guid.hex
        handle = pair.b.get_object_by_name(host, port, guid)
        assert handle.rior.guid.hex == guid

    def test_dead_host_network_fault(self, pair):
        with pytest.raises(NetworkFault):
            pair.b.get_object_by_name("127.0.0.1", 9, "P2P")

    def test_any_name_reaches_its_own_service(self, pair):
        host, port = a_addr(pair)
        names = ["my service", "a?b", "café", "x%41", "a/b", "xA"]
        guids = {name: pair.a.deploy(Key(name), None, name).guid for name in names}
        for name in names:
            assert pair.b.get_object_by_name(host, port, name).rior.guid == guids[name]


class TestResolveIncomingRior:
    def test_local_loops_back_to_object(self, pair, deployed):
        skeleton = pair.a.services.lookup("P2P")
        rior = build_rior(pair.a, skeleton)
        assert resolve_incoming_rior(pair.a, rior) is deployed

    def test_remote_resolves_once(self, pair, deployed):
        rior = build_rior(pair.a, pair.a.services.lookup("P2P"))
        h1 = resolve_incoming_rior(pair.b, rior)
        h2 = resolve_incoming_rior(pair.b, rior)
        assert h1 is h2 and isinstance(h1, Handle)

    def test_snapshot_initializes_cached_fields(self, pair, deployed):
        install_demo_policy(pair.a)
        rior = build_rior(pair.a, pair.a.services.lookup("P2P"))
        assert rior.cached_field_snapshot.keys() == {"key"}
        handle = resolve_incoming_rior(pair.b, rior)
        assert isinstance(handle.cached_fields["key"], Key)
        assert handle.cached_fields["key"].value == "node-key"


class TestRemoteInvoke:
    def test_round_trip_by_value(self, pair, deployed):
        install_demo_policy(pair.b)  # Key instances travel by value
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        handle.route(Key("dest"), Message("hi"))
        assert "dest" in deployed.getLog()

    def test_unknown_method_rejected_client_side(self, pair, deployed):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        with pytest.raises(UnknownMethodError):
            handle.invoke("stop")
        with pytest.raises(AttributeError):
            handle.stop

    def test_application_fault_reraised(self, pair):
        class Thrower:
            def go(self):
                raise KeyError("missing-thing")

        desc = TypeDescriptor("Thrower", methods=(MethodDescriptor("go"),))
        pair.a.types.register_type(
            desc, MethodTable.for_class(Thrower, desc), py_type=Thrower
        )
        pair.a.deploy(Thrower(), name="thrower")
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "thrower")
        with pytest.raises(ApplicationFault) as info:
            handle.go()
        assert info.value.fault_class == "KeyError"

    def test_loop_back_returns_original_object(self, pair, deployed):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        # B sends A's own service back to A as an argument.
        handle.addPeer(handle)
        assert deployed.peers[-1] is deployed

    def test_wire_call_sends_one_request(self, pair, deployed):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        sends = support.SendCounter(pair.b)
        handle.getKey()
        assert sends.count == 1


class TestSmartProxy:
    @pytest.fixture
    def smart_handle(self, pair, deployed):
        install_demo_policy(pair.a)
        install_demo_policy(pair.b)
        host, port = a_addr(pair)
        return pair.b.get_object_by_name(host, port, "P2P")

    def test_cached_get_without_transport(self, pair, deployed, smart_handle):
        invokes = pair.a.invoke_requests
        sends = support.SendCounter(pair.b)
        key = smart_handle.get_key()
        assert key.value == "node-key"
        assert pair.a.invoke_requests == invokes
        assert sends.count == 0

    def test_cached_matches_remote_snapshot(self, pair, deployed, smart_handle):
        cached = smart_handle.get_key()
        remote_value = test_node.invoke(pair.a, "P2P", "get_key", peer="plain")
        doc = remote_value.result
        assert doc["fields"]["value"]["v"] == cached.value

    def test_local_set_never_reaches_remote(self, pair, deployed, smart_handle):
        invokes = pair.a.invoke_requests
        smart_handle.set_key(Key("local-only"))
        assert pair.a.invoke_requests == invokes
        assert deployed.key.value == "node-key"
        assert smart_handle.get_key().value == "local-only"

    def test_uncached_methods_still_remote(self, pair, deployed, smart_handle):
        sends = support.SendCounter(pair.b)
        smart_handle.getKey()
        assert sends.count == 1


class Sized:
    """A cached i64 field whose get_/set_ names belong to declared methods."""

    def __init__(self, size: int):
        self.size = size

    def get_size(self) -> str:
        return f"size is {self.size}"

    def set_size(self, text: str) -> None:
        self.size = len(text)


SIZED = TypeDescriptor(
    "Sized",
    fields=(FieldDescriptor("size", "i64"),),
    methods=(
        MethodDescriptor("get_size", (), "string"),
        MethodDescriptor("set_size", ("string",), "void"),
    ),
)


def register_sized(types):
    types.register_type(SIZED, MethodTable.for_class(Sized, SIZED), py_type=Sized)


class TestAccessorCollision:
    """Declared methods named like accessors but shaped otherwise go on the
    wire; the synthesized *_field accessors are the ones served locally."""

    @pytest.fixture
    def sized(self):
        with LocalPair(seed=5, registrars=(register_sized,)) as pair:
            for node in (pair.a, pair.b):
                node.policy.set_field_to_be_cached("Sized", "size")
            obj = Sized(3)
            pair.a.deploy(obj, None, "sized")
            handle = pair.b.get_object_by_name(*a_addr(pair), "sized")
            yield pair, obj, handle

    def test_declared_getter_goes_on_the_wire(self, sized):
        pair, _, handle = sized
        invokes = pair.a.invoke_requests
        sends = support.SendCounter(pair.b)
        assert handle.get_size() == "size is 3"
        assert pair.a.invoke_requests == invokes + 1
        assert sends.count == 1

    def test_field_getter_served_from_snapshot(self, sized):
        pair, _, handle = sized
        invokes = pair.a.invoke_requests
        sends = support.SendCounter(pair.b)
        assert handle.get_size_field() == 3
        assert pair.a.invoke_requests == invokes
        assert sends.count == 0

    def test_declared_setter_goes_on_the_wire(self, sized):
        pair, obj, handle = sized
        invokes = pair.a.invoke_requests
        assert handle.set_size("abcd") is None
        assert pair.a.invoke_requests == invokes + 1
        assert obj.size == 4
        assert handle.get_size_field() == 3  # no coherency

    def test_field_setter_stays_local(self, sized):
        pair, obj, handle = sized
        invokes = pair.a.invoke_requests
        sends = support.SendCounter(pair.b)
        assert handle.set_size_field(7) is None
        assert handle.get_size_field() == 7
        assert pair.a.invoke_requests == invokes
        assert sends.count == 0
        assert obj.size == 3


class Holder:
    def __init__(self, peer=None):
        self.peer = peer


HOLDER = TypeDescriptor("Holder", fields=(FieldDescriptor("peer", "IP2PNode"),))


def register_holder(types):
    types.register_type(HOLDER, py_type=Holder)


class TestProxyCache:
    def test_reference_in_snapshot_resolves(self, node_factory):
        # B builds A's holder handle, whose snapshot holds a reference to C's
        # service: building one handle creates another in the same cache.
        registrars = (register_demo_types, register_holder)
        a, b, c = (node_factory(registrars=registrars) for _ in range(3))
        c.deploy(P2PNode(Key("c-key")), "IP2PNode", "P2P")
        peer = a.get_object_by_name(c.endpoint.host, c.endpoint.port, "P2P")
        a.policy.set_field_to_be_cached("Holder", "peer")
        a.deploy(Holder(peer), None, "holder")

        got = []
        fetch = threading.Thread(
            target=lambda: got.append(
                b.get_object_by_name(a.endpoint.host, a.endpoint.port, "holder")
            ),
            daemon=True,
        )
        fetch.start()
        fetch.join(5)
        assert not fetch.is_alive(), "get_object_by_name did not return"

        [holder] = got
        sends = support.SendCounter(b)
        peer_on_b = holder.get_peer()
        assert sends.count == 0
        assert isinstance(peer_on_b, Handle)
        assert peer_on_b.rior.guid == peer.rior.guid
        assert b.get_object_by_name(c.endpoint.host, c.endpoint.port, "P2P") is peer_on_b
        assert peer_on_b.getKey().get_value() == "c-key"


def register_poke_types(types):
    """IDerived extends IBase; Impl offers both. Returns the Impl class."""
    poke = (MethodDescriptor("poke", (), "i64"),)
    types.register_type(TypeDescriptor("IBase", methods=poke, is_interface=True))
    types.register_type(
        TypeDescriptor("IDerived", supertype_name="IBase", methods=poke, is_interface=True)
    )

    class Impl:
        def poke(self):
            return 99

    impl = TypeDescriptor("Impl", methods=poke)
    types.register_type(impl, MethodTable.for_class(Impl, impl), py_type=Impl)
    return Impl


class TestAutoDeploy:
    def test_case1_reuses_concrete_deployment(self, pair):
        key = Key("x")
        rior = pair.a.deploy(key, None, "the-key")  # concrete-type interface
        before = len(pair.a.services)
        got = auto_deploy(pair.a, key, "Key")
        assert got.guid == rior.guid
        assert len(pair.a.services) == before

    def test_case2_narrowest_matching_interface(self, pair):
        types = pair.a.types
        ibase = TypeDescriptor(
            "IBase", methods=(MethodDescriptor("poke", (), "i64"),), is_interface=True
        )
        iderived = TypeDescriptor(
            "IDerived",
            supertype_name="IBase",
            methods=(MethodDescriptor("poke", (), "i64"),),
            is_interface=True,
        )

        class Impl:
            def poke(self):
                return 99

        impl_desc = TypeDescriptor("Impl", methods=(MethodDescriptor("poke", (), "i64"),))
        types.register_type(ibase)
        types.register_type(iderived)
        types.register_type(impl_desc, MethodTable.for_class(Impl, impl_desc), py_type=Impl)
        obj = Impl()
        pair.a.deploy(obj, "IBase", "wide")
        pair.a.deploy(obj, "IDerived", "narrow")
        before = len(pair.a.services)
        rior = auto_deploy(pair.a, obj, "IBase")
        assert rior.interface_descriptor.type_name == "IDerived"
        assert rior.service_name == "narrow"
        assert len(pair.a.services) == before

    def test_case2_narrowest_wins_when_deployed_first(self, pair):
        obj = register_poke_types(pair.a.types)()
        pair.a.deploy(obj, "IDerived", "narrow")
        pair.a.deploy(obj, "IBase", "wide")
        assert auto_deploy(pair.a, obj, "IBase").service_name == "narrow"
        assert auto_deploy(pair.a, obj, "IDerived").service_name == "narrow"

    def test_case2_equal_depth_picks_newest(self, pair):
        obj = register_poke_types(pair.a.types)()
        pair.a.deploy(obj, "IBase", "old")
        pair.a.deploy(obj, "IBase", "new")
        assert auto_deploy(pair.a, obj, "IBase").service_name == "new"

    def test_case3_new_service_concrete_type(self, pair):
        key = Key("escaping")
        before = len(pair.a.services)
        rior = auto_deploy(pair.a, key, "Key")
        assert len(pair.a.services) == before + 1
        assert rior.interface_descriptor.type_name == "Key"
        assert rior.service_name is None

    def test_case3_signature_type_when_configured(self):
        with LocalPair(
            seed=5,
            registrars=(register_demo_types,),
            config_a=NodeConfig(port=0, concrete_type_always=False),
        ) as pair:
            types = pair.a.types
            inode = TypeDescriptor(
                "INode", methods=(MethodDescriptor("getLog", (), "string"),),
                is_interface=True,
            )
            types.register_type(inode)
            obj = P2PNode(Key("k"))
            rior = auto_deploy(pair.a, obj, "INode")
            assert rior.interface_descriptor.type_name == "INode"

    def test_idempotent(self, pair):
        key = Key("stable")
        first = auto_deploy(pair.a, key, "Key")
        counts = len(pair.a.services)
        second = auto_deploy(pair.a, key, "Key")
        assert first.guid == second.guid
        assert len(pair.a.services) == counts

    def test_handle_passthrough(self, pair, deployed):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        assert auto_deploy(pair.b, handle, "IP2PNode") is handle.rior

    def test_escaping_return_value_over_wire(self, pair, deployed):
        # getKey's Key is undeployed; an RRT peer receives a reference to a
        # freshly auto-deployed service and can invoke through it.
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        services_before = len(pair.a.services)
        key_handle = handle.getKey()
        assert isinstance(key_handle, Handle)
        assert len(pair.a.services) == services_before + 1
        assert key_handle.get_value() == "node-key"
        # The same escape resolves to the same service next time.
        again = handle.getKey()
        assert again is key_handle
        assert len(pair.a.services) == services_before + 1


def _answer_once_then_drop(listener: socket.socket, seen: list[bytes]) -> None:
    """Answer the first request on one connection, read the second, then close."""
    conn, _ = listener.accept()
    with conn, conn.makefile("rb") as reader:
        for n in range(2):
            seen.append(reader.readline())
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            reader.read(length)
            if n == 0:
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")


@pytest.fixture
def connects(monkeypatch):
    opened = []
    real = http.client.HTTPConnection.connect

    def counting(conn):
        opened.append(conn)
        return real(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


class TestHttpClient:
    def test_calls_share_one_connection(self, pair, deployed, connects):
        host, port = a_addr(pair)
        handle = pair.b.get_object_by_name(host, port, "P2P")
        for _ in range(5):
            handle.getKey()
        assert len(connects) == 1

    def test_dead_pooled_connection_discarded_after_restart(self, node_factory, connects):
        server = node_factory()
        server.deploy(P2PNode(Key("k")), "IP2PNode", "P2P")
        client = node_factory(NodeConfig(port=0, fast_fail=True))
        host, port = server.endpoint.host, server.endpoint.port
        handle = client.get_object_by_name(host, port, "P2P")
        handle.getKey()
        server.stop()
        server.config.port = port
        server.start()
        handle.getKey()  # fast-fail: a network fault would raise here
        assert len(connects) == 2
        assert client.fault_log == []

    def test_send_failure_on_reused_connection_is_retried(self, pair, deployed, monkeypatch):
        client = HttpClient(timeout=5)
        endpoint = pair.a.endpoint
        client.request(endpoint, "GET", "/services")
        real = http.client.HTTPConnection.request
        broken = []

        def flaky(conn, *args, **kwargs):
            if conn.sock is not None and not broken:  # reused, already connected
                broken.append(conn)
                raise BrokenPipeError("peer went away")
            return real(conn, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", flaky)
        body = encode_request(Request("P2P", "getKey", ()))
        client.request(endpoint, "POST", "/invoke/P2P", body)
        client.close()
        assert broken
        assert pair.a.invoke_requests == 1

    def test_request_sent_in_full_is_not_repeated(self):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        seen: list[bytes] = []
        peer = threading.Thread(target=_answer_once_then_drop, args=(listener, seen))
        peer.start()
        client = HttpClient(timeout=5)
        endpoint = Endpoint("127.0.0.1", listener.getsockname()[1])
        try:
            assert client.request(endpoint, "POST", "/invoke/x", b"{}") == b"ok"
            with pytest.raises(NetworkFault):
                client.request(endpoint, "POST", "/invoke/x", b"{}")
            peer.join(timeout=5)
            assert not peer.is_alive()
            listener.settimeout(0.3)
            with pytest.raises(TimeoutError):
                listener.accept()  # no second connection: nothing was resent
        finally:
            client.close()
            listener.close()
        assert len(seen) == 2


class TestStillOpen:
    @pytest.fixture
    def pooled(self):
        """An idle client connection and the server's end of it."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            conn = http.client.HTTPConnection("127.0.0.1", listener.getsockname()[1])
            conn.connect()
            peer, _ = listener.accept()
        with peer:
            yield conn, peer
        conn.close()

    def test_idle_connection_is_open(self, pooled):
        conn, _ = pooled
        assert _still_open(conn)
        conn.close()
        assert not _still_open(conn)

    @pytest.mark.parametrize("disturb", ["stray bytes", "end of file", "reset"])
    def test_readable_connection_is_discarded(self, pooled, disturb):
        conn, peer = pooled
        if disturb == "stray bytes":
            peer.sendall(b"HTTP/1.1 200 OK\r\n")
        elif disturb == "reset":  # close with a zero linger time sends RST
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.close()
        else:
            peer.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + 5
        while _still_open(conn) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert not _still_open(conn)


class Odd:
    """Answers that JSON or UTF-8 cannot carry."""

    def nan(self):
        return float("nan")

    def inf(self):
        return float("inf")

    def surrogate(self):
        return "\ud800"

    def fail(self):
        raise ValueError("bad \ud800 text")

    def one(self):
        return 1


ODD_TYPE = TypeDescriptor(
    "Odd",
    methods=(
        MethodDescriptor("nan", (), "f64"),
        MethodDescriptor("inf", (), "f64"),
        MethodDescriptor("surrogate", (), "string"),
        MethodDescriptor("fail", (), "string"),
        MethodDescriptor("one", (), "i64"),
    ),
)


def register_odd(types):
    types.register_type(ODD_TYPE, MethodTable.for_class(Odd, ODD_TYPE), py_type=Odd)


class TestUnencodableAnswer:
    @pytest.fixture
    def odd(self):
        with LocalPair(seed=6, registrars=(register_odd,)) as pair:
            pair.a.deploy(Odd(), name="odd")
            yield pair, pair.b.get_object_by_name(*a_addr(pair), "odd")

    @pytest.mark.parametrize("method", ["nan", "inf", "surrogate"])
    def test_is_a_protocol_error_on_a_live_connection(self, connects, odd, method):
        pair, handle = odd
        with pytest.raises(ProtocolError, match="WireFormatError"):
            handle.invoke(method)
        assert handle.one() == 1
        assert len(connects) == 1  # the same connection served the next call
        assert pair.b.fault_log == []

    def test_fault_message_is_always_sent(self, odd):
        pair, handle = odd
        with pytest.raises(ApplicationFault, match=r"bad \? text"):
            handle.fail()
        assert handle.one() == 1
        assert pair.b.fault_log == []


class GraphEcho:
    def echo(self, node):
        return node


GRAPH_ECHO_TYPE = TypeDescriptor(
    "GraphEcho", methods=(MethodDescriptor("echo", ("GNode",), "GNode"),)
)


def register_graph_echo(types):
    support.register_graph_types(types)
    table = MethodTable.for_class(GraphEcho, GRAPH_ECHO_TYPE)
    types.register_type(GRAPH_ECHO_TYPE, table, py_type=GraphEcho)


class TestLimits:
    def test_deep_by_value_chain_is_a_typed_error(self):
        with LocalPair(seed=5, registrars=(register_graph_echo,)) as pair:
            pair.a.deploy(GraphEcho(), name="echo")
            pair.b.policy.set_method_policy(
                "GraphEcho", "echo", PolicyKind.BY_VALUE, UNBOUNDED, False
            )
            pair.a.policy.set_return_value_policy(
                "GraphEcho", "echo", PolicyKind.BY_VALUE, False
            )
            handle = pair.b.get_object_by_name(*a_addr(pair), "echo")
            head = None
            for i in range(3000):
                head = support.GNode(tag=f"c{i}", left=head)
            with pytest.raises(WireFormatError, match="nests more than"):
                handle.echo(head)
            assert pair.a.invoke_requests == 0
            short = support.GNode(tag="s", left=support.GNode(tag="t"))
            assert handle.echo(short).left.tag == "t"

    def test_oversized_request_is_a_typed_error(self, pair, deployed):
        handle = pair.b.get_object_by_name(*a_addr(pair), "P2P")
        big = Message("x" * (MAX_REQUEST_BYTES + 10))
        with pytest.raises(WireFormatError, match="over the"):
            # A size limit this high keeps the message by value.
            deliver(pair.b, handle, Key("dest"), big, max_size=len(big.payload))
        assert pair.a.invoke_requests == 0
        assert not any("Broken pipe" in record for record in pair.b.fault_log)

    def test_refused_invoke_is_a_protocol_error(self, pair, deployed, monkeypatch):
        handle = pair.b.get_object_by_name(*a_addr(pair), "P2P")
        # Only the server's cap refuses the body: the client's is raised.
        monkeypatch.setattr(codec, "MAX_REQUEST_BYTES", 2 * MAX_REQUEST_BYTES)
        big = Message("x" * (MAX_REQUEST_BYTES + 10))
        with pytest.raises(ProtocolError, match="HTTP 413: .*request body over"):
            deliver(pair.b, handle, Key("dest"), big, max_size=len(big.payload))
        assert pair.b.fault_log == []
