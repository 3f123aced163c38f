"""HTTP/1.1 message framing that the node's server and its client share
(RFC 9112): the start-line and field patterns, the caps on a message head,
the head reader, the ``Content-Length`` rule and the body reader.

Both ends read a head under the same caps, and neither speaks
``Transfer-Encoding``: a message carries its body under ``Content-Length``.
"""

from __future__ import annotations

import re

IDLE_TIMEOUT = 30.0  # seconds a server connection may wait for its next request
# Seconds a client reuses an idle connection. Well below IDLE_TIMEOUT, so a
# request on a reused connection reaches the server before its idle close.
IDLE_REUSE_LIMIT = 15.0
MAX_LINE = 65536  # bytes in the start line and in each header line
MAX_HEADERS = 100  # header lines per message
CHUNK = 1 << 16  # bytes asked of the stream at once when reading a body

REQUEST_LINE = re.compile(rb"(\S+) (\S+) HTTP/(\d{1,10})\.(\d{1,10})\r?\n")
STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: [^\r\n]*)?\r?\n")
# A field line is a token, a colon and a value. An obs-fold line starts with
# whitespace, so it fails to match and is refused (RFC 9112 §5.1, §5.2).
FIELD = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*(.*?)[ \t]*\r?\n")


class FramingError(Exception):
    """A message that breaks the framing rules or a cap; ``status`` is what
    a server answers to it."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_head(rfile, start: re.Pattern, what: str):
    """Read one message head: the match of its start line and its header
    fields, names lowercased, each with every value it was given. None when
    the stream ends before the head's first byte."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(f"{what} over {MAX_LINE} bytes", 414)
    matched = start.fullmatch(line)
    if matched is None:
        raise FramingError(f"malformed {what}")
    fields: dict[bytes, list[bytes]] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return matched, fields
        if len(line) > MAX_LINE:
            raise FramingError(f"header line over {MAX_LINE} bytes", 431)
        field = FIELD.fullmatch(line)
        if field is None:
            raise FramingError("malformed header line")
        fields.setdefault(field[1].lower(), []).append(field[2])
    raise FramingError(f"more than {MAX_HEADERS} header lines", 431)


def content_length(fields: dict[bytes, list[bytes]]) -> int | None:
    """The body length a head declares; None when it declares none or sends
    ``Transfer-Encoding``, which neither end reads."""
    lengths = fields.get(b"content-length")
    if not lengths or b"transfer-encoding" in fields:
        return None
    text = lengths[0]
    if len(lengths) > 1 or not text.isdigit():
        shown = b", ".join(lengths).decode("latin-1")
        raise FramingError(f"bad Content-Length: {shown}")
    # Past 18 digits the value is over every cap (or absurdly padded).
    return int(text) if len(text) <= 18 else 10**18


def read_body(rfile, length: int) -> bytes:
    """Read up to ``length`` bytes, fewer only at end of file. A large body
    is read a chunk at a time, so a declared length takes memory only as
    its bytes arrive."""
    if length <= CHUNK:
        return rfile.read(length)
    chunks = []
    while length > 0 and (chunk := rfile.read(min(length, CHUNK))):
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)
