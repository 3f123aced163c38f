"""Client/server reference machinery: handles, the proxy cache, loop-back
resolution, smart-proxy field caching, automatic deployment, and outbound
method invocation.

Functions here take the owning runtime node as their first argument; a node
provides `types`, `services`, `policy`, `proxy_cache`, `http`, `endpoint` and
`config`, plus `handle_network_fault` and `observe_decision` hooks. Every
outbound request goes through the node's `HttpClient`. A handle serves the
accessors of its cached fields from its snapshot; `registry.accessor_of`
decides which methods those are.
"""

from __future__ import annotations

import http.client
import select
import threading
from typing import Callable, Sequence
from urllib.parse import quote

from . import codec
from .codec import Request
from .errors import (
    ApplicationFault,
    NetworkFault,
    ProtocolError,
    ServiceNotFound,
    UnknownMethodError,
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
from .policy import CallContext, CallRole, PeerKind
from .registry import Skeleton, accessor_of

DEFAULT_TIMEOUT = 10.0
IDLE_PER_ENDPOINT = 4  # idle keep-alive connections kept per endpoint

_POST_HEADERS = {"Content-Type": "application/json"}


class HttpClient:
    """HTTP/1.1 client keeping a small pool of idle keep-alive connections
    per endpoint; every outbound request of a node goes through one.

    An idle connection is reused only while it is not readable: end of file,
    a reset or stray bytes mean the server closed it or the stream is out of
    step, so it is discarded. A request whose send failed on a reused
    connection is sent once more on a new one; once a request has been sent
    in full it is never repeated, because the server may have executed it.
    Every transport failure raises ``NetworkFault``; a reply other than 200
    raises ``ServiceNotFound`` (404) or ``ProtocolError``.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self._idle: dict[Endpoint, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def request(
        self, endpoint: Endpoint, method: str, path: str, body: bytes | None = None
    ) -> bytes:
        """Send one request and return the body of its 200 reply."""
        headers = _POST_HEADERS if body is not None else {}
        conn = self._checkout(endpoint)
        try:
            if conn is not None:
                try:
                    conn.request(method, path, body=body, headers=headers)
                except OSError:  # not sent in full, so safe to send again
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connection(endpoint)
                conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise NetworkFault(f"{endpoint}: {exc}") from exc
        if resp.will_close:
            conn.close()
        else:
            self._checkin(endpoint, conn)
        if resp.status != 200:  # a refusal, whose body says why
            error = ServiceNotFound if resp.status == 404 else ProtocolError
            raise error(
                f"{endpoint}: {method} {path} returned HTTP {resp.status}: "
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

    def _connection(self, endpoint: Endpoint) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            endpoint.host, endpoint.port, timeout=self.timeout
        )

    def _checkout(self, endpoint: Endpoint) -> http.client.HTTPConnection | None:
        while True:
            with self._lock:
                conns = self._idle.get(endpoint)
                if not conns:
                    return None
                conn = conns.pop()
            if _still_open(conn):
                return conn
            conn.close()

    def _checkin(self, endpoint: Endpoint, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            conns = self._idle.setdefault(endpoint, [])
            if len(conns) < IDLE_PER_ENDPOINT:
                conns.append(conn)
                return
        conn.close()


def _still_open(conn: http.client.HTTPConnection) -> bool:
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
    interface; attribute access on an interface method yields a callable that
    forwards over the wire. Accessors for cached fields are served from the
    local snapshot and never touch the network.
    """

    def __init__(self, rior: RIOR, node):
        self.rior = rior
        self._node = node
        self._cache_lock = threading.Lock()
        # One decoder per field: each field's document numbers its own objects.
        self.cached_fields: dict[str, object] = {
            name: value_decoder(node).decode(doc)
            for name, doc in rior.cached_field_snapshot.items()
        }
        # (method, arity) -> (op, field) for the accessors served locally.
        self._accessors: dict[tuple[str, int], tuple[str, str]] = {}
        if self.cached_fields:
            iface = rior.interface_descriptor
            for m in iface.methods:
                accessor = accessor_of(iface, m)
                if accessor is not None and accessor[1] in self.cached_fields:
                    self._accessors[(m.name, m.arity)] = accessor

    @property
    def interface_name(self) -> str:
        return self.rior.interface_descriptor.type_name

    def invoke(self, method: str, args: Sequence[object] = ()) -> object:
        return remote_invoke(self._node, self, method, list(args))

    def __getattr__(self, name: str):
        try:
            rior = object.__getattribute__(self, "rior")
        except AttributeError:
            raise AttributeError(name) from None
        if name in rior.interface_descriptor.method_names:
            return lambda *args: self.invoke(name, args)
        raise AttributeError(
            f"{rior.interface_descriptor.type_name} proxy has no method {name!r}"
        )

    def __repr__(self) -> str:
        return (
            f"<Handle {self.interface_name} "
            f"{self.rior.service_name or self.rior.guid.hex} @ {self.rior.endpoint}>"
        )


class ProxyCache:
    """At most one handle per remote GUID per node."""

    def __init__(self):
        self._handles: dict[GUID, Handle] = {}
        self._lock = threading.Lock()

    def get_or_create(self, guid: GUID, factory: Callable[[], Handle]) -> Handle:
        handle = self.get(guid)
        if handle is not None:
            return handle
        # Built unlocked: a handle's snapshot can hold references, which come
        # back here. The first handle published for a GUID is the one kept.
        handle = factory()
        with self._lock:
            return self._handles.setdefault(guid, handle)

    def get(self, guid: GUID) -> Handle | None:
        with self._lock:
            return self._handles.get(guid)

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)


def value_encoder(node) -> codec.MessageEncoder:
    """A fresh encoder for one outgoing message, deploying escaping objects on node."""
    return codec.MessageEncoder(node.types, lambda obj, sig: auto_deploy(node, obj, sig))


def value_decoder(node) -> codec.MessageDecoder:
    """A fresh decoder for one incoming message, resolving references on node."""
    return codec.MessageDecoder(node.types, lambda rior: resolve_incoming_rior(node, rior))


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
    return node.proxy_cache.get_or_create(rior.guid, lambda: Handle(rior, node))


def get_object_by_name(node, host: str, port: int, name: str) -> object:
    """Fetch a remote service's reference by name or GUID and resolve it."""
    path = f"/describe/{quote(name, safe='')}"
    doc = codec._parse_json(node.http.request(Endpoint(host, port), "GET", path))
    return resolve_incoming_rior(node, codec.doc_to_rior(doc, node.types))


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


def remote_invoke(node, handle: Handle, method: str, args: list) -> object:
    """Forward one method call through a handle.

    Cached-field accessors are served locally with zero transport calls (a
    local set never contacts the remote node; there is no coherency).
    Everything else resolves a transmission decision per argument, encodes a
    request, sends it, and decodes the response. Application faults re-raise
    locally; network faults follow the node's failure policy.
    """
    accessor = handle._accessors.get((method, len(args)))
    if accessor is not None:
        op, fname = accessor
        with handle._cache_lock:
            if op == "get":
                return handle.cached_fields[fname]
            handle.cached_fields[fname] = args[0]
            return None
    iface = handle.rior.interface_descriptor
    md = iface.find_method(method, len(args))
    if md is None:
        raise UnknownMethodError(
            f"method {method!r}/{len(args)} not in deployment interface "
            f"{iface.type_name}"
        )

    encoder = value_encoder(node)
    wire_args = []
    for i, value in enumerate(args):
        ctx = CallContext(
            role=CallRole.ARGUMENT,
            declared_type_name=iface.type_name,
            method_name=method,
            actual_type_name=actual_type_name_of(node, value),
            peer_kind=PeerKind.RRT,
            param_index=i,
        )
        decision = node.policy.resolve(ctx)
        node.observe_decision("arg", ctx.actual_type_name, decision)
        wire_args.append(encoder.encode(value, decision, md.params[i]))

    target = handle.rior.guid.hex
    body = codec.encode_request(Request(target, method, wire_args))
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
        skeleton = _reusable_deployment(node, obj, signature_type_name)
        if skeleton is None:
            skeleton = node.services.deploy(obj, interface, None)
    return build_rior(node, skeleton)


def _reusable_deployment(node, obj: object, signature_type_name: str | None):
    concrete_name = node.types.type_of(obj).descriptor.type_name
    deployments = node.services.deployments_of(obj)
    for sk in deployments:
        if sk.interface_descriptor.type_name == concrete_name:
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


def build_rior(node, skeleton: Skeleton) -> RIOR:
    """Serialize-time remote reference for a deployed service.

    Smart-proxy information is recorded here, immediately before the
    reference goes on the wire: cache-rule field names applicable to the
    service (via its concrete type or its deployment interface, including
    supertypes) that the interface declares, plus the current field values.
    """
    iface = skeleton.interface_descriptor
    cached = node.policy.cached_fields_for(
        skeleton.concrete.lineage + node.types.supertype_chain_of(iface.type_name)
    )
    snapshot: dict[str, object] = {}
    for fname in sorted(cached & iface.field_names):
        value = getattr(skeleton.service_object, fname)
        snapshot[fname] = value_encoder(node).encode(
            value, by_value(UNBOUNDED), iface.field(fname).type_name
        )
    return RIOR(
        endpoint=node.endpoint,
        guid=skeleton.guid,
        service_name=skeleton.service_name,
        interface_descriptor=iface,
        cached_field_snapshot=snapshot,
    )
