"""The runtime process: HTTP endpoints, failure policy, node configuration.

``NodeConfig`` holds what is fixed at bind time; rules and services are set
through ``node.policy`` and ``deploy``, before ``start()`` or while serving.

A node binds one TCP port and serves these routes:

    GET  /services          JSON listing of deployed services
    GET  /describe/<id>     full remote-reference document for one service
    GET  /  or  /browse     HTML listing for humans
    GET  /<id>              alias of describe
    POST /invoke/<id>       remote method invocation

Every HTTP request receives exactly one response; a malformed invocation
produces a structured protocol fault, never a connection abort. An
invocation looks its method up once, in the interface's call plan
(``registry.call_plan``), which dispatch and the return value's encoding
share; the return value's transmission decision is kept per published rule
table (``TransmissionPolicyManager.decide``); own and peers' references
share one table (``codec.ReferenceMemo``). Connections are HTTP/1.1
keep-alive, served by one thread each that reads each request head with
``framing.read_head``, the reader the client reads replies with (RFC 9112).
A request the node will not serve (a malformed or oversized head, an HTTP
major version above 1, a method other than GET and POST, or a ``POST`` whose
``Content-Length`` is missing, malformed or over ``MAX_REQUEST_BYTES``) gets
a 4xx or 5xx reply with a JSON ``{"error": ...}`` body, and the connection
is closed.
"""

from __future__ import annotations

import logging
import socket
import threading
import traceback
from dataclasses import dataclass
from http import HTTPStatus
from urllib.parse import unquote

from . import codec, framing, remote
from .codec import MAX_REQUEST_BYTES, Fault, Response
from .errors import (
    ApplicationFault,
    ConfigError,
    NetworkFault,
    RRTError,
    ServiceNotFound,
)
from .framing import IDLE_TIMEOUT, FramingError
from .model import Endpoint, GuidSource, MethodDescriptor, RIOR
from .policy import TransmissionPolicyManager
from .registry import ServiceRegistry, TypeRegistry, call_plan, invoke_local

DEFAULT_PORT = 8000
MAX_CONNECTIONS = 64  # open connections per node; more are closed at accept
FAULT_LOG_LIMIT = 1000  # newest records kept in fault_log; the rrt logger gets every one


@dataclass
class NodeConfig:
    port: int = 0  # 0 = pick a free port at bind time
    host: str = "127.0.0.1"
    fast_fail: bool = False
    concrete_type_always: bool = True


#: What a suppressed network fault returns, per declared return type; null otherwise.
_SUPPRESSED_RETURN = {"i64": 0, "f64": 0.0, "bool": False}

logger = logging.getLogger("rrt")
logger.addHandler(logging.NullHandler())  # silent unless the application adds one


class RRTNode:
    """One middleware runtime: registry, policy manager, proxy cache, transport."""

    def __init__(
        self,
        config: NodeConfig | None = None,
        *,
        types: TypeRegistry | None = None,
        guid_source: GuidSource | None = None,
    ):
        self.config = config or NodeConfig()
        self.types = types or TypeRegistry()
        self.policy = TransmissionPolicyManager(types=self.types)
        self.services = ServiceRegistry(self.types, guid_source=guid_source)
        self.proxy_cache = remote.ProxyCache()
        self.references = codec.ReferenceMemo(self.types)
        self.http = remote.HttpClient()
        self.fault_log: list[str] = []
        # When set, called as (role, actual type name, decision) for each
        # argument ("arg") and return value ("return") this node decides.
        self.decision_observer = None
        self.invoke_requests = 0
        self._counter_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        # Where this node's references point. Port 0 names none until start()
        # binds a port, so the host is checked against a stand-in port.
        try:
            endpoint = Endpoint(self.config.host, self.config.port or DEFAULT_PORT)
        except ValueError as exc:  # an empty host or a port out of range
            raise ConfigError(str(exc)) from None
        self.endpoint: Endpoint | None = endpoint if self.config.port else None

    # -- identity & lifecycle -------------------------------------------------

    @property
    def running(self) -> bool:
        return self._listener is not None

    def start(self) -> "RRTNode":
        """Bind the port and accept traffic."""
        if self._listener is not None:
            raise ConfigError("node already running")
        # "0.0.0.0", "::" and every other spelling of the unspecified address:
        # it accepts on all interfaces but names none, so no peer could call back.
        if not self.config.host.strip("0.:"):
            raise ConfigError(f"cannot serve on unspecified address {self.config.host!r}")
        listener = socket.create_server((self.config.host, self.config.port))
        self.endpoint = Endpoint(self.config.host, listener.getsockname()[1])
        self._listener = listener
        threading.Thread(
            target=self._accept, args=(listener,),
            name=f"rrt-node-{self.endpoint.port}", daemon=True,
        ).start()
        return self

    def stop(self) -> None:
        """Stop serving: shut the listener and every open connection, idle or
        not, and close idle outbound ones."""
        self.http.close()
        with self._conns_lock:
            listener, self._listener = self._listener, None
            conns = list(self._conns)
        if listener is None:
            return
        for sock in (listener, *conns):  # shutting the listener wakes accept()
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _accept(self, listener: socket.socket) -> None:
        """Give each connection a thread, at most ``MAX_CONNECTIONS`` at once,
        until stop() shuts the listener; then close it.

        Dispatches are not bounded separately: a callback chain A->B->A... holds
        one dispatch on every hop, so a dispatch limit would deadlock it.
        """
        with listener:
            while True:
                try:
                    sock, peer = listener.accept()
                except OSError:
                    if self._listener is not listener:
                        return
                    continue  # a connection that failed before it was accepted
                # Before the socket is published: stop() may shut it at once.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(IDLE_TIMEOUT)
                with self._conns_lock:
                    if self._listener is not listener or len(self._conns) >= MAX_CONNECTIONS:
                        sock.close()
                        continue
                    self._conns.add(sock)
                threading.Thread(
                    target=self._serve, args=(sock,),
                    name=f"rrt-node-{self.endpoint.port}-{peer[1]}", daemon=True,
                ).start()

    def _serve(self, sock: socket.socket) -> None:
        """Answer one connection's requests until it must close, then close it."""
        try:
            with sock, sock.makefile("rb") as rfile:
                conn = _Connection(self, sock, rfile)
                while not conn.close_connection:
                    conn.handle_one()
        except OSError:  # a peer that left, an idle timeout or stop() is routine
            pass
        except Exception:  # noqa: BLE001 - it ends this connection, not the node
            traceback.print_exc()
        finally:
            with self._conns_lock:
                self._conns.discard(sock)

    def __enter__(self) -> "RRTNode":
        if not self.running:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- application surface ----------------------------------------------------

    def deploy(self, obj, interface=None, name: str | None = None) -> RIOR:
        """Expose a live object as a service and return its remote reference,
        the same one ``/describe`` serves for it, snapshot included. A node
        on port 0 that has not started refuses, before it deploys anything;
        a service whose reference cannot be built is not kept."""
        remote.require_endpoint(self)
        return remote.first_reference(self, self.services.deploy(obj, interface, name))

    def get_object_by_name(self, host: str, port: int, name: str):
        return remote.get_object_by_name(self, host, port, name)

    def handle_network_fault(self, method: MethodDescriptor, failure: NetworkFault):
        """Decide a network fault's fate for one method call.

        Methods that declare network faults always see them; otherwise
        fast-fail nodes raise it marked, and everything else suppresses it to
        a type-appropriate default plus one record, kept in ``fault_log`` and
        logged to the ``rrt`` logger. Application faults never come through
        here: they always propagate.
        """
        if method.declares_network_fault:
            raise failure
        if self.config.fast_fail:
            raise NetworkFault(failure.message, fast_fail=True)
        from datetime import datetime, timezone  # on first use: faults are rare

        stamp = datetime.now(timezone.utc).isoformat()
        self._log(f"{stamp} WARN {method.ident} network {failure.message}")
        return _SUPPRESSED_RETURN.get(method.return_type)

    def _log(self, record: str) -> None:
        self.fault_log.append(record)
        del self.fault_log[:-FAULT_LOG_LIMIT]
        logger.warning(record)

    # -- endpoint bodies ---------------------------------------------------------

    def list_services(self) -> list[dict]:
        out = []
        for sk in self.services.list_skeletons():
            out.append(
                {
                    "name": sk.service_name,
                    "guid": sk.guid.hex,
                    "interface_name": sk.interface_descriptor.type_name,
                    "object_repr": f"{sk.concrete.descriptor.type_name}@{sk.guid.hex[:8]}",
                }
            )
        return out

    def browse_html(self) -> str:
        import html  # on first use: a page for people, which most nodes never serve

        endpoint = self.endpoint
        rows = []
        for entry in self.list_services():
            describe = f"/describe/{entry['guid']}"
            rows.append(
                "<tr>"
                f"<td>{html.escape(entry['name'] or '')}</td>"
                f"<td><code>{entry['guid']}</code></td>"
                f"<td>{html.escape(entry['interface_name'])}</td>"
                f"<td>{html.escape(entry['object_repr'])}</td>"
                f'<td><a href="{describe}">description</a></td>'
                "</tr>"
            )
        body = "\n".join(rows) or '<tr><td colspan="5">no services deployed</td></tr>'
        return (
            "<!DOCTYPE html>\n"
            f"<html><head><title>Services at {html.escape(str(endpoint))}</title></head>\n"
            f"<body><h1>Deployed services at {html.escape(str(endpoint))}</h1>\n"
            "<table border=\"1\">\n"
            "<tr><th>Name</th><th>GUID</th><th>Interface</th>"
            "<th>Object</th><th>Description</th></tr>\n"
            f"{body}\n</table></body></html>\n"
        )

    def handle_invoke(self, service_id: str, body: bytes) -> bytes:
        """Decode, dispatch and encode one invocation; every failure, the
        encoding of the answer included, becomes a fault envelope."""
        with self._counter_lock:
            self.invoke_requests += 1
        try:
            request = codec.decode_request(body)
            skeleton = self.services.lookup(service_id)
            decoder = remote.value_decoder(self)
            args = list(map(decoder.decode, request.args))
            iface, method = skeleton.interface_descriptor, request.method
            plan = iface.plans.get((method, len(args))) or call_plan(iface, method, len(args))
            result = invoke_local(skeleton, method, args, plan)
            actual = remote.actual_type_name_of(self, result)
            decision = self.policy.decide(iface.type_name, method, None, actual, request.peer_kind)
            observer = self.decision_observer  # read once, as remote_invoke does
            if observer is not None:
                observer("return", actual, decision)
            wire = remote.value_encoder(self).encode(result, decision, plan.method.return_type)
            return codec.encode_response(Response(ok=True, result=wire))
        except ApplicationFault as exc:
            fault = Fault("application", exc.fault_class, exc.message)
        except Exception as exc:  # noqa: BLE001 - the endpoint never aborts
            fault = Fault("protocol", type(exc).__name__, str(exc))
        return codec.encode_response(Response(ok=False, fault=fault))


class _Connection:
    """Reads the requests of one connection in turn and answers each.

    Routes on the raw path and unquotes only the service id in it, so an id
    may hold a quoted "/" or "?".
    """

    def __init__(self, node: RRTNode, sock: socket.socket, rfile):
        self.node = node
        self.sock = sock
        self.rfile = rfile
        self.close_connection = False

    def handle_one(self) -> None:
        self.close_connection = True  # until the request head has been read whole
        try:
            head = framing.read_head(self.rfile, framing.REQUEST_LINE, "request line")
        except FramingError as exc:
            return self._reject(exc.status, str(exc))
        if head is None:  # the peer closed between requests
            return
        request, fields = head
        method, target, major, minor = request.groups()
        if int(major) > 1:
            return self._reject(505, f"HTTP/{major.decode()} is not supported")
        # An HTTP/1.0 connection closes after its reply, keep-alive or not.
        http11 = (int(major), int(minor)) >= (1, 1)
        connection = fields.get(b"connection", [b""])[0]
        self.close_connection = not http11 or connection.lower() == b"close"
        path = target.decode("latin-1").split("?", 1)[0]
        if path.startswith("//"):  # as http.server did, so no path reads as a host
            path = "/" + path.lstrip("/")
        if method == b"GET":
            self._get(path)
        elif method == b"POST":
            self._post(path, fields, http11)
        else:
            self._reject(501, f"unsupported method: {method.decode('latin-1')}")

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        # Status line, headers and body in one write, so no segment of the
        # response waits for the client's delayed ACK.
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + payload)

    def _send_json(self, status: int, doc: object) -> None:
        self._send(status, codec.canonical_bytes(doc), "application/json")

    def _get(self, path: str) -> None:
        node = self.node
        tail = path.lstrip("/")
        if path in ("/", "/browse"):
            self._send(200, node.browse_html().encode("utf-8"), "text/html; charset=utf-8")
        elif path == "/services":
            self._send_json(200, node.list_services())
        elif path.startswith("/describe/"):
            self._describe(unquote(path[len("/describe/"):]))
        elif tail and "/" not in tail:
            self._describe(unquote(tail))
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def _describe(self, service_id: str) -> None:
        node = self.node
        try:
            rior = remote.build_rior(node, node.services.lookup(service_id))
            text = codec.reference_text(rior, node.types)
            self._send(200, text.encode("utf-8"), "application/json")
        except ServiceNotFound as exc:
            self._send_json(404, {"error": str(exc)})
        except RRTError as exc:
            self._send_json(500, {"error": str(exc)})

    def _post(self, path: str, fields: dict[bytes, list[bytes]], http11: bool) -> None:
        if not path.startswith("/invoke/"):
            return self._reject(404, f"no such endpoint: {path}")
        try:
            length = framing.content_length(fields)
        except FramingError as exc:
            return self._reject(exc.status, str(exc))
        if length is None:
            return self._reject(411, "POST needs a Content-Length")
        if length > MAX_REQUEST_BYTES:
            self._reject(413, f"request body over {MAX_REQUEST_BYTES} bytes")
            if length <= 2 * MAX_REQUEST_BYTES:
                self._discard_body(length)
            return
        if http11 and fields.get(b"expect", [b""])[0].lower() == b"100-continue":
            self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = framing.read_body(self.rfile, length)
        if len(body) < length:
            return self._reject(400, "request body shorter than its Content-Length")
        answer = self.node.handle_invoke(unquote(path[len("/invoke/"):]), body)
        self._send(200, answer, "application/json")

    def _reject(self, status: int, message: str) -> None:
        """Answer with an error and close: the rest of the stream cannot be trusted."""
        self.close_connection = True
        self._send_json(status, {"error": message})

    def _discard_body(self, length: int) -> None:
        """Read and drop a refused body after the reply has gone out.

        A client still sending its body would otherwise meet a reset and never
        read the reply. Our side is shut first, so a client that sent only the
        headers sees the end of the reply and can close.
        """
        try:
            self.sock.shutdown(socket.SHUT_WR)
            while length > 0 and (chunk := self.rfile.read(min(length, framing.CHUNK))):
                length -= len(chunk)
        except OSError:
            pass


def serve(
    config: NodeConfig | None = None,
    *,
    types: TypeRegistry | None = None,
    guid_source: GuidSource | None = None,
) -> RRTNode:
    """Build a node from a configuration and start serving. Caller stops it."""
    node = RRTNode(config, types=types, guid_source=guid_source)
    node.start()
    return node
