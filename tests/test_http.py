"""The node's HTTP exchanges, pinned: fixed requests sent over a raw socket,
and the status, ``Content-Type``, ``Content-Length``, ``Connection`` and body
of every reply recorded in ``data/http_v1.json``.

Each exchange opens a fresh connection, sends its bytes in one write, shuts
its sending side and reads until the node closes. Pipelined requests after
one that closes the connection get no reply, so the fixture also shows which
refusals close. The node's port is replaced by ``{port}`` in every body, and
``Content-Length`` counts the body as recorded. To record the fixture again:

    PYTHONPATH=src:tests python tests/test_http.py
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rrt.codec import Request, encode_request
from rrt.node import (
    MAX_CONNECTIONS, MAX_HEADERS, MAX_LINE, MAX_REQUEST_BYTES, NodeConfig, serve,
)
from rrt.registry import TypeRegistry
from rrt.toolkit.demo import Key, P2PNode, register_demo_types

FIXTURE = Path(__file__).parent / "data" / "http_v1.json"
PINNED_HEADERS = ("Content-Type", "Content-Length", "Connection")

GET_KEY = encode_request(Request("P2P", "getKey", (), peer_kind="plain"))


def get(path: str, version: str = "HTTP/1.1", headers: str = "") -> bytes:
    return f"GET {path} {version}\r\nHost: rrt\r\n{headers}\r\n".encode("latin-1")


def post(path: str, headers: str, body: bytes = b"") -> bytes:
    head = f"POST {path} HTTP/1.1\r\nHost: rrt\r\n{headers}\r\n"
    return head.encode("latin-1") + body


def invoke(headers: str = "") -> bytes:
    return post("/invoke/P2P", f"Content-Length: {len(GET_KEY)}\r\n{headers}", GET_KEY)


def exchanges(guid: str) -> dict[str, bytes]:
    """Each exchange's request bytes, for a node whose one service "P2P" has
    the given GUID."""
    over = MAX_REQUEST_BYTES + 1
    return {
        "get_root": get("/"),
        "get_browse": get("/browse"),
        "get_services": get("/services"),
        "get_describe": get(f"/describe/{guid}"),
        "get_alias": get("/P2P"),
        "get_unknown_stays_open": get("/describe/x/y/z") + get("/services"),
        "post_invoke": invoke(),
        "post_unknown_path_closes": post("/nowhere", "Content-Length: 0\r\n") + get("/services"),
        "post_no_length": post("/invoke/P2P", ""),
        "post_length_not_integer": post("/invoke/P2P", "Content-Length: ten\r\n"),
        "post_length_negative": post("/invoke/P2P", "Content-Length: -1\r\n"),
        "post_length_repeated": post(
            "/invoke/P2P", "Content-Length: 5\r\nContent-Length: 5\r\n", b"12345"
        ),
        "post_over_cap_drained": post("/invoke/P2P", f"Content-Length: {over}\r\n", b"x" * over),
        "post_short_body": post("/invoke/P2P", "Content-Length: 100\r\n", b"0123456789"),
        "http10_closes": get("/services", "HTTP/1.0") + get("/services"),
        "connection_close": get("/services", headers="Connection: close\r\n") + get("/services"),
        "pipelined": get("/services") + get("/P2P"),
        "expect_continue": invoke("Expect: 100-continue\r\n"),
    }


def exchange(port: int, request: bytes) -> bytes:
    """Send one exchange's bytes, half-close, and read until the node closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        data = b""
        try:  # the node may have closed already, with pipelined bytes unread
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        try:
            while chunk := sock.recv(1 << 16):
                data += chunk
        except ConnectionResetError:
            pass
    return data


def replies(data: bytes, port: int) -> list[dict]:
    """Split a reply stream into its messages, each reduced to the pinned parts."""
    out = []
    while data:
        head, sep, data = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated reply head: {head!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        status = " ".join(status_line.split(" ", 2)[:2])  # the reason phrase is not pinned
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", 0))
        body, data = data[:length], data[length:]
        assert len(body) == length
        body = body.replace(f"127.0.0.1:{port}".encode(), b"127.0.0.1:{port}")
        body = body.replace(f'"port":{port}'.encode(), b'"port":{port}')
        if "Content-Length" in headers:
            headers["Content-Length"] = str(len(body))
        pinned = {name: headers[name] for name in PINNED_HEADERS if name in headers}
        out.append({"status": status, "headers": pinned, "body": body.decode("utf-8")})
    return out


def start_node():
    types = TypeRegistry()
    register_demo_types(types)
    rnd = random.Random(0x4777)
    node = serve(NodeConfig(port=0), types=types, guid_source=lambda: rnd.randbytes(16))
    node.deploy(P2PNode(Key("node-key")), "IP2PNode", "P2P")
    return node


def record() -> dict[str, list[dict]]:
    node = start_node()
    try:
        port = node.endpoint.port
        guid = node.services.lookup("P2P").guid.hex
        return {
            name: replies(exchange(port, request), port)
            for name, request in exchanges(guid).items()
        }
    finally:
        node.stop()


@pytest.fixture(scope="module")
def recorded():
    return record()


PINNED = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


def test_fixture_has_every_exchange():
    assert list(PINNED) == list(exchanges("0" * 32))


@pytest.mark.parametrize("name", list(PINNED))
def test_exchange_matches_fixture(recorded, name):
    assert recorded[name] == PINNED[name]


# -- every reply starts with a status line ---------------------------------------

STATUS_LINE = re.compile(rb"HTTP/1\.1 \d{3} ")

REQUEST_LINES = st.one_of(
    st.builds(
        lambda method, target, version: b" ".join((method, target, version)),
        st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"get", b""]) | st.binary(max_size=6),
        st.sampled_from([b"/services", b"/invoke/P2P", b"/", b"//services", b"/%zz?x"])
        | st.binary(max_size=12),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1.x", b"HTTP/0.9"])
        | st.binary(max_size=10),
    ),
    st.binary(max_size=40),
)
FIELD_LINES = st.lists(
    st.sampled_from([
        b"Content-Length: 5", b"Content-Length: -1", b"Content-Length: 99999999999",
        b"Expect: 100-continue", b"Connection: close", b"Transfer-Encoding: chunked",
        b" folded", b"no colon", b"Bad Name: x", b"X-Bin: \xff\x00",
    ]) | st.binary(max_size=30),
    max_size=6,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(REQUEST_LINES, FIELD_LINES, st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""]))
def test_every_reply_starts_with_a_status_line(request_line, field_lines, end):
    with start_node() as node:
        port = node.endpoint.port
        reply = exchange(port, b"\r\n".join([request_line, *field_lines]) + end)
        assert reply == b"" or STATUS_LINE.match(reply), reply[:200]
        assert replies(exchange(port, get("/services")), port)[0]["status"] == "HTTP/1.1 200"


@pytest.mark.parametrize(
    "request_bytes,status",
    [
        (b"GARBAGE\r\n\r\n", 400),
        (get("/services", "HTTP/2.0"), 505),
        (get("/services", "HTTP/1.x"), 400),
        (get("/services", headers="X-Filler: 1\r\n" * MAX_HEADERS), 431),
        (get("/services", headers=f"X-Long: {'a' * MAX_LINE}\r\n"), 431),
        (get("/" + "a" * 70_000), 414),
        (get("/services", headers="X-Folded: a\r\n b\r\n"), 400),
        (get("/services", headers="No-Colon\r\n"), 400),
        (b"PUT /services HTTP/1.1\r\nHost: rrt\r\n\r\n", 501),
        (b"HEAD /services HTTP/1.1\r\nHost: rrt\r\n\r\n", 501),
    ],
    ids=[
        "garbage", "http2", "bad-version", "101-header-lines", "long-header-line",
        "long-request-line", "obs-fold", "no-colon", "put", "head",
    ],
)
def test_refusal_is_json_and_closes(node_factory, request_bytes, status):
    port = node_factory().endpoint.port
    # The request after the refused one is never read: the connection closes.
    (reply,) = replies(exchange(port, request_bytes + get("/services")), port)
    assert reply["status"] == f"HTTP/1.1 {status}"
    assert reply["headers"]["Content-Type"] == "application/json"
    assert reply["headers"]["Connection"] == "close"
    assert isinstance(json.loads(reply["body"])["error"], str)


def test_caps_are_inclusive(node_factory):
    port = node_factory().endpoint.port
    fields = "X-Filler: 1\r\n" * (MAX_HEADERS - 1)  # with Host, exactly the cap
    long_field = f"X-Long: {'a' * (MAX_LINE - 10)}\r\n"  # 65 536 bytes with its CRLF
    for request in (get("/services", headers=fields), get("/services", headers=long_field)):
        assert [r["status"] for r in replies(exchange(port, request), port)] == ["HTTP/1.1 200"]


# -- the connection loop ---------------------------------------------------------


def open_served(port: int) -> socket.socket:
    """A keep-alive connection that has had one request answered."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.sendall(get("/services"))
    assert sock.recv(1 << 16).startswith(b"HTTP/1.1 200 ")
    return sock


def test_connection_over_the_cap_is_closed_at_accept(node_factory):
    port = node_factory().endpoint.port
    held = [open_served(port) for _ in range(MAX_CONNECTIONS)]
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as extra:
            try:
                extra.sendall(get("/services"))
                assert extra.recv(1 << 16) == b""
            except ConnectionError:  # closed with the request unread
                pass
        held.pop().close()
        deadline = time.monotonic() + 2
        while True:  # the freed slot counts once its thread has seen the close
            reply = exchange(port, get("/services"))
            if reply or time.monotonic() > deadline:
                break
        assert reply.startswith(b"HTTP/1.1 200 ")
    finally:
        for sock in held:
            sock.close()


def test_stop_closes_idle_connections_at_once(node_factory):
    node = node_factory()
    with open_served(node.endpoint.port) as sock:
        start = time.monotonic()
        node.stop()
        assert sock.recv(1) == b""
        assert time.monotonic() - start < 0.5


def test_unexpected_error_closes_only_its_connection(node_factory, capsys):
    node = node_factory()

    def broken():
        raise RuntimeError("browse broke")

    node.browse_html = broken
    assert exchange(node.endpoint.port, get("/browse")) == b""
    err, deadline = "", time.monotonic() + 2
    while "RuntimeError: browse broke" not in err and time.monotonic() < deadline:
        time.sleep(0.01)  # printed just after the connection closed
        err += capsys.readouterr().err
    assert "RuntimeError: browse broke" in err
    assert exchange(node.endpoint.port, get("/services")).startswith(b"HTTP/1.1 200 ")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
