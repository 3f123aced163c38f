"""The runtime process: HTTP endpoints, failure policy, node configuration.

A node binds one TCP port and serves four endpoints:

    GET  /services          JSON listing of deployed services
    GET  /describe/<id>     full remote-reference document for one service
    GET  /browse            HTML listing for humans
    GET  /<id>              alias of describe
    POST /invoke/<id>       remote method invocation

Every HTTP request receives exactly one response; a malformed invocation
produces a structured protocol fault, never a connection abort. Connections
are HTTP/1.1 keep-alive, served by one thread each; a ``POST`` whose
``Content-Length`` is missing, malformed or over ``MAX_REQUEST_BYTES`` gets a
4xx reply and the connection is closed.
"""

from __future__ import annotations

import html
import json
import socket
import sys
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote

from . import codec, remote
from .codec import MAX_REQUEST_BYTES, Fault, Response
from .errors import (
    ApplicationFault,
    ConfigError,
    NetworkFault,
    RRTError,
    ServiceNotFound,
)
from .model import Endpoint, GuidSource, MethodDescriptor, RIOR, TransmissionDecision
from .policy import CallContext, CallRole, PeerKind, TransmissionPolicyManager
from .registry import ServiceRegistry, TypeRegistry, invoke_local

DEFAULT_PORT = 8000
IDLE_TIMEOUT = 30.0  # seconds a connection may wait for its next request
MAX_CONNECTIONS = 64  # open connections per node; more are closed at accept


@dataclass
class NodeConfig:
    port: int = 0  # 0 = pick a free port at bind time
    host: str = "127.0.0.1"
    fast_fail: bool = False
    concrete_type_always: bool = True
    policy_file: str | Path | None = None
    deploy_manifest: str | Path | None = None
    log_sink: str | Path | None = None  # "-" = stderr, path = append, None = memory only


#: What a suppressed network fault returns, per declared return type; null otherwise.
_SUPPRESSED_RETURN = {"i64": 0, "f64": 0.0, "bool": False}


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
        self.http = remote.HttpClient()
        self.fault_log: list[str] = []
        self.decision_observer = None
        self.invoke_requests = 0
        self._counter_lock = threading.Lock()
        self._httpd: _NodeHTTPServer | None = None
        self._thread: threading.Thread | None = None
        # Where this node's references point; start() sets the bound port.
        self.endpoint = Endpoint(self.config.host, self.config.port or DEFAULT_PORT)

    # -- identity & lifecycle -------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> "RRTNode":
        """Bind the port, apply policy file and manifest, then accept traffic."""
        if self._httpd is not None:
            raise ConfigError("node already running")
        self._httpd = _NodeHTTPServer((self.config.host, self.config.port), _Handler)
        self._httpd.node = self
        self.endpoint = Endpoint(self.config.host, self._httpd.server_address[1])
        try:
            self._apply_startup_files()
        except Exception:
            self._teardown_server()
            raise
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            name=f"rrt-node-{self.endpoint.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _apply_startup_files(self) -> None:
        if self.config.policy_file is not None:
            path = Path(self.config.policy_file)
            if not path.is_file():
                raise ConfigError(f"policy file not readable: {path}")
            self.policy.load_policy_file(path.read_text(encoding="utf-8"))
        if self.config.deploy_manifest is not None:
            path = Path(self.config.deploy_manifest)
            if not path.is_file():
                raise ConfigError(f"deploy manifest not readable: {path}")
            self._apply_manifest(path.read_text(encoding="utf-8"))

    def _apply_manifest(self, text: str) -> None:
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"deploy manifest is not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise ConfigError("deploy manifest must be a JSON array")
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or "type" not in entry:
                raise ConfigError(f"manifest entry {pos}: need an object with 'type'")
            rt = self.types.lookup(entry["type"])
            if rt is None or rt.factory is None:
                raise ConfigError(
                    f"manifest entry {pos}: type {entry['type']!r} not constructible"
                )
            args = entry.get("constructor_args", [])
            if not isinstance(args, list):
                raise ConfigError(f"manifest entry {pos}: constructor_args must be a list")
            try:
                obj = rt.factory(*args)
                self.deploy(obj, entry.get("interface"), entry.get("name"))
            except RRTError:
                raise
            except Exception as exc:
                raise ConfigError(f"manifest entry {pos}: {exc}") from exc

    def stop(self) -> None:
        """Stop serving, cut open connections and close idle outbound ones."""
        self.http.close()
        if self._httpd is None:
            return
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._teardown_server()

    def _teardown_server(self) -> None:
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None

    def __enter__(self) -> "RRTNode":
        if not self.running:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- application surface ----------------------------------------------------

    def deploy(self, obj, interface=None, name: str | None = None) -> RIOR:
        """Expose a live object as a service and return its remote reference,
        the same one ``/describe`` serves for it, snapshot included."""
        return remote.build_rior(self, self.services.deploy(obj, interface, name))

    def get_object_by_name(self, host: str, port: int, name: str):
        return remote.get_object_by_name(self, host, port, name)

    def observe_decision(
        self, role: str, type_name: str, decision: TransmissionDecision
    ) -> None:
        observer = self.decision_observer
        if observer is not None:
            observer(role, type_name, decision)

    def handle_network_fault(self, method: MethodDescriptor, failure: NetworkFault):
        """Decide a network fault's fate for one method call.

        Methods that declare network faults always see them; otherwise
        fast-fail nodes raise it marked, and everything else suppresses it to
        a type-appropriate default plus one log record. Application faults
        never come through here: they always propagate.
        """
        if method.declares_network_fault:
            raise failure
        if self.config.fast_fail:
            raise NetworkFault(failure.message, fast_fail=True)
        stamp = datetime.now(timezone.utc).isoformat()
        self._log(f"{stamp} WARN {method.ident} network {failure.message}")
        return _SUPPRESSED_RETURN.get(method.return_type)

    def _log(self, record: str) -> None:
        self.fault_log.append(record)
        sink = self.config.log_sink
        if sink is None:
            return
        if str(sink) == "-":
            print(record, file=sys.stderr)
        else:
            with open(sink, "a", encoding="utf-8") as fh:
                fh.write(record + "\n")

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

    def describe_service(self, name_or_guid: str) -> dict:
        skeleton = self.services.lookup(name_or_guid)
        return codec.rior_to_doc(remote.build_rior(self, skeleton))

    def browse_html(self) -> str:
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

    def handle_invoke(self, service_id: str, body: bytes) -> Response:
        """Decode, dispatch, and encode one invocation; faults become envelopes."""
        with self._counter_lock:
            self.invoke_requests += 1
        try:
            request = codec.decode_request(body)
            skeleton = self.services.lookup(service_id)
            decoder = codec.MessageDecoder(
                self.types, resolve_ref=lambda r: remote.resolve_incoming_rior(self, r)
            )
            args = [decoder.decode(w) for w in request.args]
            result = invoke_local(skeleton, request.method, args)
            md = skeleton.interface_descriptor.find_method(request.method, len(args))
            ctx = CallContext(
                role=CallRole.RETURN_VALUE,
                declared_type_name=skeleton.interface_descriptor.type_name,
                method_name=request.method,
                actual_type_name=remote.actual_type_name_of(self, result),
                peer_kind=PeerKind(request.peer_kind),
            )
            decision = self.policy.resolve(ctx)
            self.observe_decision("return", ctx.actual_type_name, decision)
            wire = codec.encode_value(
                result,
                decision,
                registry=self.types,
                deploy_ref=lambda obj, sig: remote.auto_deploy(self, obj, sig),
                declared_type=md.return_type,
            )
            return Response(ok=True, result=wire)
        except ApplicationFault as exc:
            return Response(
                ok=False, fault=Fault("application", exc.fault_class, exc.message)
            )
        except Exception as exc:  # noqa: BLE001 - the endpoint never aborts
            return Response(
                ok=False, fault=Fault("protocol", type(exc).__name__, str(exc))
            )


class _NodeHTTPServer(ThreadingHTTPServer):
    """One thread per connection, at most ``MAX_CONNECTIONS`` open at once.

    Dispatches are not bounded separately: a callback chain A->B->A... holds
    one dispatch on every hop, so a dispatch limit would deadlock it.
    """

    daemon_threads = True
    node: RRTNode

    def __init__(self, addr, handler):
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        super().__init__(addr, handler)

    def verify_request(self, request, client_address) -> bool:
        with self._conns_lock:
            return len(self._conns) < MAX_CONNECTIONS

    def process_request(self, request, client_address):
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], OSError):  # a peer that left is routine
            super().handle_error(request, client_address)

    def server_close(self):
        """Close the listener and cut every open connection, idle or not."""
        super().server_close()
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class _Handler(BaseHTTPRequestHandler):
    """Routes on the raw path and unquotes only the service id in it, so an
    id may hold a quoted "/" or "?"."""

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True
    server: _NodeHTTPServer

    def log_message(self, format, *args):  # noqa: A002 - base-class signature
        pass

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        # Status line, headers and body in one write, so no segment of the
        # response waits for the client's delayed ACK.
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + payload)

    def _send_json(self, status: int, doc: object) -> None:
        self._send(status, codec.canonical_bytes(doc), "application/json")

    def do_GET(self):
        node = self.server.node
        path = self.path.split("?", 1)[0]
        if path in ("/", "/browse"):
            self._send(200, node.browse_html().encode("utf-8"), "text/html; charset=utf-8")
            return
        if path == "/services":
            self._send_json(200, node.list_services())
            return
        if path.startswith("/describe/"):
            self._describe(node, unquote(path[len("/describe/"):]))
            return
        tail = path.lstrip("/")
        if tail and "/" not in tail:
            self._describe(node, unquote(tail))
            return
        self._send_json(404, {"error": f"no such endpoint: {path}"})

    def _describe(self, node: RRTNode, service_id: str) -> None:
        try:
            self._send_json(200, node.describe_service(service_id))
        except ServiceNotFound as exc:
            self._send_json(404, {"error": str(exc)})
        except RRTError as exc:
            self._send_json(500, {"error": str(exc)})

    def do_POST(self):
        node = self.server.node
        path = self.path.split("?", 1)[0]
        if not path.startswith("/invoke/"):
            self._reject(404, f"no such endpoint: {path}")
            return
        body = self._read_body()
        if body is None:
            return
        response = node.handle_invoke(unquote(path[len("/invoke/"):]), body)
        self._send(200, codec.encode_response(response), "application/json")

    def _read_body(self) -> bytes | None:
        """The request body, or None once an unusable length has been refused."""
        lengths = self.headers.get_all("Content-Length", [])
        if not lengths or "Transfer-Encoding" in self.headers:
            return self._reject(411, "POST needs a Content-Length")
        text = lengths[0].strip()
        if len(lengths) > 1 or not (text.isascii() and text.isdigit()):
            return self._reject(400, f"bad Content-Length: {', '.join(lengths)}")
        # Past 18 digits the value is far over the cap (or absurdly padded).
        length = int(text) if len(text) <= 18 else MAX_REQUEST_BYTES + 1
        if length > MAX_REQUEST_BYTES:
            self._reject(413, f"request body over {MAX_REQUEST_BYTES} bytes")
            if length <= 2 * MAX_REQUEST_BYTES:
                self._discard_body(length)
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            return self._reject(400, "request body shorter than its Content-Length")
        return body

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
            self.connection.shutdown(socket.SHUT_WR)
            while length > 0 and (chunk := self.rfile.read(min(length, 1 << 16))):
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
