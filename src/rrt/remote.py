"""Client/server reference machinery: handles, the proxy cache, loop-back
resolution, smart-proxy field caching, automatic deployment, and outbound
method invocation.

Functions here take the owning runtime node as their first argument; a node
provides `types`, `services`, `policy`, `proxy_cache`, `references`, `http`,
`endpoint`, `config` and `decision_observer`, which is called with each
transmission decision when it is set, plus the `handle_network_fault` hook.
Every outbound request goes through the node's `HttpClient`. A
handle's class, one per set of interface method names, has a method for each
interface method. A handle serves the accessors of its cached fields from
its snapshot; `registry.accessor_of` decides which methods those are, once
per method, in its call plan. A handle without a snapshot holds no lock.

A node's one reference table, `node.references` (`codec.ReferenceMemo`),
holds by GUID the reference last sent for each own service and the one last
accepted for each peer's: a repeated reference costs a lookup, not a
rebuild or a parse. Its document and text are the codec's.
"""

from __future__ import annotations

import functools
import io
import select
import socket
import threading
import time
import weakref
from typing import Sequence
from urllib.parse import quote

from . import codec, framing
from .codec import Request
from .errors import (
    ApplicationFault,
    ConfigError,
    NetworkFault,
    ProtocolError,
    ServiceNotFound,
    UnknownMethodError,
    WireFormatError,
)
from .model import (
    GUID,
    Endpoint,
    NULL_TYPE,
    RIOR,
    RemoteProxyBase,
    SEQUENCE_TYPE,
    UNBOUNDED,
    by_value,
)
from .registry import Skeleton, call_plan

DEFAULT_TIMEOUT = 10.0
IDLE_PER_ENDPOINT = 4  # idle keep-alive connections kept per endpoint


class HttpClient:
    """HTTP/1.1 client keeping a small pool of idle keep-alive connections
    per endpoint; every outbound request of a node goes through one.

    A request leaves in one write, head and body together. Its reply is read
    under the server's caps (``framing``) and must carry a
    ``Content-Length``; bytes past its body close the connection. An idle
    connection is reused only within ``framing.IDLE_REUSE_LIMIT`` seconds of
    its last reply, before the server's idle close, and only while it is not
    readable: end of file, a reset or stray bytes mean the server closed it
    or the stream is out of step, so it is discarded. A request whose send
    failed on a reused connection is sent once more on a new one; once a
    request has been sent in full it is never repeated, because the server
    may have executed it.
    Every transport or framing failure raises ``NetworkFault``; a reply
    other than 200 raises ``ServiceNotFound`` (404) or ``ProtocolError``.
    Each socket operation waits at most ``timeout`` seconds.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self._idle: dict[Endpoint, list[ClientConnection]] = {}
        self._lock = threading.Lock()

    def request(
        self, endpoint: Endpoint, method: str, path: str, body: bytes | None = None
    ) -> bytes:
        """Send one request and return the body of its 200 reply."""
        conn = None
        try:
            message = _request_message(endpoint, method, path, body)
            conn = self._checkout(endpoint)
            if conn is not None:
                try:
                    conn.send(message)
                except OSError:  # not sent in full, so safe to send again
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connection(endpoint)
                conn.send(message)
            status, data, keep_alive = conn.read_reply()
        except (OSError, UnicodeError, framing.FramingError) as exc:
            if conn is not None:
                conn.close()
            raise NetworkFault(f"{endpoint}: {exc}") from exc
        if keep_alive:
            self._checkin(endpoint, conn)
        else:
            conn.close()
        if status != 200:  # a refusal, whose body says why
            error = ServiceNotFound if status == 404 else ProtocolError
            raise error(
                f"{endpoint}: {method} {path} returned HTTP {status}: "
                f"{data.decode('utf-8', 'replace')}"
            )
        return data

    def close(self) -> None:
        """Close every idle connection; later requests open new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def _connection(self, endpoint: Endpoint) -> ClientConnection:
        """Open one connection to an endpoint."""
        sock = socket.create_connection((endpoint.host, endpoint.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return ClientConnection(sock)

    def _checkout(self, endpoint: Endpoint) -> ClientConnection | None:
        while True:
            with self._lock:
                conns = self._idle.get(endpoint)
                if not conns:
                    return None
                conn = conns.pop()
            idle = time.monotonic() - conn.idle_since
            if idle <= framing.IDLE_REUSE_LIMIT and _still_open(conn):
                return conn
            conn.close()

    def _checkin(self, endpoint: Endpoint, conn: ClientConnection) -> None:
        conn.idle_since = time.monotonic()
        with self._lock:
            conns = self._idle.setdefault(endpoint, [])
            if len(conns) < IDLE_PER_ENDPOINT:
                conns.append(conn)
                return
        conn.close()


def _request_message(endpoint: Endpoint, method: str, path: str, body: bytes | None) -> bytes:
    """A request's head and body as the one buffer it is sent in."""
    host = f"[{endpoint.host}]" if ":" in endpoint.host else endpoint.host
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}:{endpoint.port}\r\n"
    if body is None:
        return f"{head}\r\n".encode("latin-1")
    head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class ClientConnection:
    """One outbound connection: its socket, a buffered reader over it, and
    when its last reply was read (0 until then)."""

    __slots__ = ("sock", "raw", "rfile", "idle_since")

    def __init__(self, sock: socket.socket):
        self.sock: socket.socket | None = sock
        self.raw = _SocketStream(sock)
        self.rfile = io.BufferedReader(self.raw)
        self.idle_since = 0.0

    def send(self, message: bytes) -> None:
        self.sock.sendall(message)

    def read_reply(self) -> tuple[int, bytes, bool]:
        """Read one reply: its status, its body, and whether the connection
        may carry another request.

        A reply that cannot be framed raises ``FramingError``, and the
        connection must close: a head over the caps, no ``Content-Length``,
        a ``Transfer-Encoding``, an interim 1xx status (rrt sends no
        ``Expect``) or a body cut short.
        """
        head = framing.read_head(self.rfile, framing.STATUS_LINE, "status line")
        if head is None:
            raise framing.FramingError("connection closed before the reply")
        status_line, fields = head
        minor, status = status_line[1], int(status_line[2])
        if status < 200:
            raise framing.FramingError(f"unexpected interim reply {status}")
        length = framing.content_length(fields)
        if length is None:
            raise framing.FramingError("reply without a Content-Length")
        body = framing.read_body(self.rfile, length)
        if len(body) < length:
            raise framing.FramingError("reply body shorter than its Content-Length")
        # Bytes already past the body are out of step: the next read would
        # take them for the next reply, so the connection closes instead.
        in_step = self.rfile.tell() == self.raw.received
        connection = fields.get(b"connection", [b""])[0]
        return status, body, in_step and minor != b"0" and connection.lower() != b"close"

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            self.rfile.close()
            sock.close()


class _SocketStream(io.RawIOBase):
    """A socket's receiving side as a raw stream that counts what it has
    received, so a buffered reader's ``tell()`` shows what it holds unread."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.received = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._sock.recv_into(buffer)
        self.received += n
        return n

    def tell(self) -> int:
        return self.received


def _still_open(conn: ClientConnection) -> bool:
    """True when an idle connection has nothing to read: no end of file, no
    reset, no stray bytes. POSIX only, as ``select.poll`` is."""
    if conn.sock is None:
        return False
    probe = select.poll()
    probe.register(conn.sock, select.POLLIN)
    return not probe.poll(0)


class Handle(RemoteProxyBase):
    """Client-side stand-in for a remote service.

    A handle presents exactly the methods of the reference's deployment
    interface; each is a method of the handle's class that forwards over the
    wire. ``Handle(rior, node)`` builds an instance of that class, which is
    made once per set of interface method names. Accessors for cached
    fields are served from the local snapshot and never touch the network.
    """

    def __new__(cls, rior: RIOR, node):
        if cls is Handle:
            names = rior.interface_descriptor.method_names
            cls = _HANDLE_CLASSES.get(names) or _handle_class(names)
        return object.__new__(cls)

    def __init__(self, rior: RIOR, node):
        self.rior = rior
        self._node = node
        self.cached_fields: dict[str, object] = {}
        if rior.cached_field_snapshot:
            self._cache_lock = threading.Lock()
            # One decoder per field: each field's document numbers its own objects.
            for name, doc in rior.cached_field_snapshot.items():
                self.cached_fields[name] = value_decoder(node).decode(doc)

    @property
    def interface_name(self) -> str:
        return self.rior.interface_descriptor.type_name

    def invoke(self, method: str, args: Sequence[object] = ()) -> object:
        return remote_invoke(self._node, self, method, list(args))

    def __getattr__(self, name: str):
        # Reached only for names that are not interface methods.
        try:
            rior = object.__getattribute__(self, "rior")
        except AttributeError:
            raise AttributeError(name) from None
        raise AttributeError(
            f"{rior.interface_descriptor.type_name} proxy has no method {name!r}"
        )

    def __repr__(self) -> str:
        return (
            f"<Handle {self.interface_name} "
            f"{self.rior.service_name or self.rior.guid.hex} @ {self.rior.endpoint}>"
        )


# Handle classes by interface method names. A class holds nothing of a node
# or a reference, so interfaces with the same method names share one, parsed
# apart or not; a peer that sends ever new names cannot grow the table.
_HANDLE_CLASSES = codec.Recent(codec.REFERENCE_MEMO_LIMIT)


def _handle_class(method_names: frozenset[str]) -> type[Handle]:
    """Build the handle class for a set of interface method names.

    It has one forwarding method per name, except names that ``Handle``
    already has and special names (``__x__``): those keep their meaning, so
    a peer's interface cannot change how Python builds, tests or frees a
    handle. Such a method is reached through ``invoke``.
    """
    methods = {
        name: _forwarder(name) for name in method_names
        if not hasattr(Handle, name) and not (name.startswith("__") and name.endswith("__"))
    }
    cls = type("Handle", (Handle,), methods)
    _HANDLE_CLASSES.put(method_names, cls)
    return cls


def _forwarder(method: str):
    def forward(self, *args):
        return remote_invoke(self._node, self, method, args)

    forward.__name__ = forward.__qualname__ = method
    return forward


class ProxyCache:
    """At most one live handle per remote GUID per node, keyed by its text.

    Handles are held weakly: one the application no longer holds is freed,
    and the next reference to its GUID gets a fresh handle. So a peer that
    sends many GUIDs cannot grow the cache, and no cycle through it keeps
    a stopped node alive.
    """

    def __init__(self):
        self._handles: weakref.WeakValueDictionary[str, Handle] = weakref.WeakValueDictionary()
        self._lock = threading.Lock()

    def get_or_create(self, rior: RIOR, node) -> Handle:
        """The live handle for the reference's GUID, or a new one built from it."""
        guid = rior.guid.hex
        with self._lock:
            handle = self._handles.get(guid)
        if handle is not None:
            return handle
        # Built unlocked: a handle's snapshot can hold references, which come
        # back here. The first handle published for a GUID is the one kept.
        handle = Handle(rior, node)
        with self._lock:
            return self._handles.setdefault(guid, handle)

    def get(self, guid: GUID) -> Handle | None:
        with self._lock:
            return self._handles.get(guid.hex)

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)


def value_encoder(node) -> codec.MessageEncoder:
    """A fresh encoder for one outgoing message, deploying escaping objects on node."""
    return codec.MessageEncoder(node.types, functools.partial(auto_deploy, node))


def value_decoder(node) -> codec.MessageDecoder:
    """A fresh decoder for one incoming message, resolving references on node."""
    return codec.MessageDecoder(
        node.types, functools.partial(resolve_incoming_rior, node), node.references
    )


def resolve_incoming_rior(node, rior: RIOR) -> object:
    """Turn an incoming remote reference into something the application can use.

    A reference that denotes a service in this node's own address space
    loops back to the live object itself; otherwise the per-GUID cache
    either supplies the existing handle or a new one is built with its
    cached fields initialized from the reference's snapshot.
    """
    if rior.endpoint == node.endpoint:
        skeleton = node.services.lookup_guid(rior.guid)
        if skeleton is not None:
            return skeleton.service_object
    return node.proxy_cache.get_or_create(rior, node)


def get_object_by_name(node, host: str, port: int, name: str) -> object:
    """Fetch a remote service's reference by name or GUID and resolve it."""
    path = f"/describe/{quote(name, safe='')}"
    doc = codec._parse_json(node.http.request(Endpoint(host, port), "GET", path))
    return resolve_incoming_rior(node, node.references.parse(doc))


def actual_type_name_of(node, value: object) -> str:
    """Wire-policy type name for a live value (actual class, not declared)."""
    if value is None:
        return NULL_TYPE
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "i64"
    if isinstance(value, float):
        return "f64"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return SEQUENCE_TYPE
    if isinstance(value, RemoteProxyBase):
        return value.rior.interface_descriptor.type_name
    return node.types.type_of(value).descriptor.type_name


def remote_invoke(node, handle: Handle, method: str, args: Sequence[object]) -> object:
    """Forward one method call through a handle.

    Cached-field accessors are served locally with zero transport calls (a
    local set never contacts the remote node; there is no coherency).
    Everything else takes a transmission decision per argument, kept per
    published rule table, encodes a request, sends it, and decodes the
    response. The method is looked up once, in its interface's call plan. Application faults re-raise
    locally; network faults follow the node's failure policy.
    """
    iface = handle.rior.interface_descriptor
    plan = iface.plans.get((method, len(args))) or call_plan(iface, method, len(args))
    if plan is None:
        raise UnknownMethodError(
            f"method {method!r}/{len(args)} not in deployment interface "
            f"{iface.type_name}"
        )
    accessor = plan.accessor
    if accessor is not None and accessor[1] in handle.cached_fields:
        op, fname = accessor
        with handle._cache_lock:
            if op == "get":
                return handle.cached_fields[fname]
            handle.cached_fields[fname] = args[0]
            return None
    md = plan.method

    encoder = value_encoder(node)
    observer = node.decision_observer  # read once: another thread may reset it
    wire_args = []
    for i, value in enumerate(args):
        actual = actual_type_name_of(node, value)
        decision = node.policy.decide(iface.type_name, method, i, actual, "rrt")
        if observer is not None:
            observer("arg", actual, decision)
        wire_args.append(encoder.encode(value, decision, md.params[i]))

    target = handle.rior.guid.hex
    body = codec.encode_request(Request(target, method, wire_args), encoder)
    try:
        raw = node.http.request(handle.rior.endpoint, "POST", f"/invoke/{target}", body)
    except NetworkFault as fault:
        return node.handle_network_fault(md, fault)
    response = codec.decode_response(raw)
    if response.ok:
        return value_decoder(node).decode(response.result)
    fault = response.fault
    if fault.kind == "application":
        raise ApplicationFault(fault.fault_class, fault.message)
    if fault.kind == "network":
        return node.handle_network_fault(
            md, NetworkFault(f"{fault.fault_class}: {fault.message}")
        )
    raise ProtocolError(f"{fault.fault_class}: {fault.message}")


def auto_deploy(node, obj: object, signature_type_name: str | None = None) -> RIOR:
    """Reference an object that is escaping this address space.

    Already deployed under its own concrete type: that service is reused.
    Deployed under interfaces related to the signature type: the narrowest
    matching deployment wins (most derived, then newest). Otherwise a new
    anonymous service is created — under the concrete type by default, or
    under the signature type when the node is configured that way.
    """
    if isinstance(obj, RemoteProxyBase):
        return obj.rior
    interface: str | None = None
    if not node.config.concrete_type_always and signature_type_name is not None:
        if node.types.lookup(signature_type_name) is not None:
            interface = signature_type_name
    # Choosing and deploying is one step, or two threads passing one fresh
    # object both deploy it and a peer gets two GUIDs for it.
    with node.services.lock:
        reused = _reusable_deployment(node, obj, signature_type_name)
        if reused is None:
            require_endpoint(node)  # before deploying: no reference could name the service
            skeleton = node.services.deploy(obj, interface, None)
    # build_rior refuses a reused service, too, while the node has no endpoint.
    return build_rior(node, reused) if reused is not None else first_reference(node, skeleton)


def _reusable_deployment(node, obj: object, signature_type_name: str | None):
    deployments = node.services.deployments_of(obj)
    for sk in deployments:  # the object's own type is each one's concrete type
        if sk.interface_descriptor.type_name == sk.concrete.descriptor.type_name:
            return sk

    # The most derived interface has the signature type furthest up its
    # lineage; deployments_of lists oldest first, so >= keeps the newest.
    best, best_rank = None, -1
    for sk in deployments:
        lineage = node.types.supertype_chain_of(sk.interface_descriptor.type_name)
        if signature_type_name in lineage:
            rank = lineage.index(signature_type_name)
            if rank >= best_rank:
                best, best_rank = sk, rank
    return best


def require_endpoint(node) -> Endpoint:
    """The node's endpoint; a node on port 0 that has not started has none."""
    if node.endpoint is None:
        raise ConfigError("a node on port 0 has no address until start()")
    return node.endpoint


def first_reference(node, skeleton: Skeleton) -> RIOR:
    """``build_rior`` for a service just deployed. A service whose reference
    cannot be built is undeployed again, so the failed deploy leaves none."""
    try:
        return build_rior(node, skeleton)
    except Exception:
        node.services.undeploy(skeleton.guid.hex)
        raise


def build_rior(node, skeleton: Skeleton) -> RIOR:
    """Serialize-time remote reference for a deployed service.

    Smart-proxy information is recorded here, immediately before the
    reference goes on the wire: cache-rule field names applicable to the
    service (via its concrete type or its deployment interface, including
    supertypes) that the interface declares, plus the current field values.
    The rest is the service's entry in ``node.references``; without cached
    fields, it is the reference. Only this function stores the node's own
    ``Endpoint`` there, so an entry holding another (a peer's, or one from
    before a restart) is never sent: it is rebuilt, as an evicted one is.
    """
    endpoint = require_endpoint(node)
    rior = node.references.get(skeleton.guid.hex)
    iface = skeleton.interface_descriptor
    if rior is None or rior.endpoint is not endpoint:
        rior = RIOR(endpoint, skeleton.guid, skeleton.service_name, iface)
        node.references.put(skeleton.guid.hex, rior)
    cached = node.policy.cached_field_names(skeleton.concrete.descriptor.type_name, iface)
    if not cached:
        return rior
    snapshot = {}
    for fname in cached:
        try:
            value = getattr(skeleton.service_object, fname)
        except AttributeError:
            raise WireFormatError(
                f"{skeleton.concrete.descriptor.type_name}.{fname}: "
                "live object has no such field"
            ) from None
        field_type = iface.field(fname).type_name
        snapshot[fname] = value_encoder(node).encode(value, by_value(UNBOUNDED), field_type)
    return RIOR(endpoint, skeleton.guid, skeleton.service_name, iface, snapshot)
