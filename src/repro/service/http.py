"""Minimal HTTP/1.1 primitives over asyncio streams.

The daemon's public surface is a handful of small JSON endpoints, so a
full web framework would be the project's first third-party server
dependency for no gain.  This module implements exactly what the
service needs and nothing more: request parsing (method, path, query,
headers, bounded body), response serialisation with extra headers and
conditional-GET helpers, and chunked streaming writes for large bodies,
all over plain ``asyncio`` stream reader/writers.  Connections are
single-request (``Connection: close``), which keeps the daemon's
lifecycle — and the SIGTERM drain — trivial to reason about.

Robustness contract (pinned by the fault-injection tests): a malformed
request line, an oversized header block, a stalled (slow-loris) client,
or a disconnect mid-response each cost the daemon *one connection* —
the offending socket is answered (where possible) and closed, and the
listener keeps serving everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

import asyncio
import hashlib
import json

from repro.core.artifacts import artifact_json_bytes

#: Reject request bodies above this size (a StudyConfig payload is <1 KB).
MAX_BODY_BYTES = 1 << 20

#: Reject unreasonable header sections outright.
MAX_HEADER_BYTES = 1 << 16

#: Bodies larger than this are written (and flushed) in chunks of this
#: size instead of one monolithic write, so a large artifact fetch never
#: buffers megabytes in the transport unflushed and a slow or vanished
#: reader surfaces as backpressure / ConnectionError at the next drain.
STREAM_CHUNK_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """Malformed request; the server answers 400 and closes."""


def make_etag(body: bytes) -> str:
    """The strong entity tag for a response body.

    Artifact payloads are canonical, timestamp-free bytes (one encoder
    everywhere), so a content hash is a perfect validator: the same
    study configuration yields the same artifact bytes yields the same
    ETag, across daemon restarts and between service/CLI/library.
    """
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def etag_matches(header_value: str, etag: str) -> bool:
    """Whether an ``If-None-Match`` header matches the entity tag.

    Handles the ``*`` wildcard and comma-separated candidate lists;
    weak validators (``W/"..."``) compare by opaque tag, which is the
    correct weak-comparison behaviour for cache revalidation.
    """
    if header_value.strip() == "*":
        return True
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body decoded as JSON (raises :class:`BadRequest`)."""
        if not self.body:
            raise BadRequest("expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise BadRequest(f"invalid JSON body: {error}") from None


@dataclass
class Response:
    """One HTTP response ready for serialisation."""

    status: int = 200
    body: bytes = b""
    #: extra headers (ETag, Cache-Control, ...) appended to the head.
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "Response":
        """A JSON response in the canonical artifact encoding (stable bytes)."""
        return cls(status=status, body=artifact_json_bytes(payload))

    @classmethod
    def error(cls, status: int, message: str, **details: object) -> "Response":
        """The uniform error document.

        Extra keyword details (e.g. a machine-readable ``code`` from a
        dist :class:`~repro.service.dist.protocol.ProtocolError`) join
        the ``error`` object alongside ``status`` and ``message``.
        """
        document = {"status": status, "message": message, **details}
        return cls.json({"error": document}, status)

    @classmethod
    def not_modified(cls, etag: str) -> "Response":
        """The bodyless ``304`` answer to a matching conditional GET."""
        return cls(status=304, headers={"ETag": etag})


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; ``None`` on a closed connection."""
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close before any bytes
        raise BadRequest("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("request head too large") from None
    if len(header_block) > MAX_HEADER_BYTES:
        raise BadRequest("request head too large")

    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = {key: value for key, value in parse_qsl(split.query)}

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequest("invalid Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest("body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequest("truncated body") from None

    return Request(
        method=method, path=path, query=query, headers=headers, body=body
    )


async def write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    """Serialise one response; large bodies stream out in flushed chunks.

    A ``304`` is bodyless by definition (the validator headers are the
    payload).  Everything else carries an explicit ``Content-Length``;
    bodies above :data:`STREAM_CHUNK_BYTES` are written chunk-by-chunk
    with a drain between chunks, so the event loop regains control (and
    a dead client raises) every 64 KiB instead of after one huge buffer.
    """
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    has_body = response.status != 304
    if has_body:
        lines.append("Content-Type: application/json; charset=utf-8")
        lines.append(f"Content-Length: {len(response.body)}")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    if has_body:
        body = response.body
        if len(body) <= STREAM_CHUNK_BYTES:
            writer.write(body)
        else:
            for offset in range(0, len(body), STREAM_CHUNK_BYTES):
                writer.write(body[offset : offset + STREAM_CHUNK_BYTES])
                await writer.drain()
    await writer.drain()
