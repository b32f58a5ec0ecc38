"""The serve wire protocol: JSON lines over a local stream socket.

One message per line, UTF-8 JSON, newline-terminated — trivially
debuggable with ``nc -U`` and robust to partial reads. Clients send
*request* objects (``{"op": ..., ...}``); the daemon answers with one or
more *event* objects (``{"event": ..., ...}``) where the final event for
a request is always ``done``, ``error`` or ``bye``. Streaming requests
(``submit``) interleave ``progress`` events before the terminal one;
events that are ready together arrive in one write.

Operations
----------

``ping``      liveness + protocol/simulator version handshake
``submit``    run a sweep: ``tenant`` + list of run-request dicts
``status``    queue depths, tenants, cache/store accounting, metrics
``metrics``   full telemetry scrape: snapshot + Prometheus exposition
``trace``     Perfetto-loadable lifecycle trace (one job or the session)
``tables``    serve a tuned decision out of ``results/tuned/``
``shutdown``  stop accepting, drain in-flight work, flush, exit

The full schema (including the provenance block every served result
carries) is documented in docs/serving.md.
"""

from __future__ import annotations

import asyncio
import json
import os

#: Protocol revision; bumped on wire-incompatible changes. The handshake
#: is advisory — clients warn on mismatch, they don't refuse.
PROTOCOL_VERSION = 1

#: Where the daemon listens (and keeps its event log) by default.
DEFAULT_STATE_DIR = os.path.join("results", "serve")
DEFAULT_SOCKET_NAME = "daemon.sock"

#: Ops the daemon understands (anything else is an ``error`` event).
OPS = ("ping", "submit", "status", "metrics", "trace", "tables", "shutdown")

#: Hard cap on one message line — a submit of ~100k requests fits; a
#: runaway client cannot make the daemon buffer gigabytes.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


def default_socket_path(state_dir: str | None = None) -> str:
    return os.path.join(state_dir or DEFAULT_STATE_DIR, DEFAULT_SOCKET_NAME)


def encode(message: dict) -> bytes:
    """One protocol line (compact JSON + newline)."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one protocol line; raises ``ProtocolError`` on junk."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    return message


class ProtocolError(ValueError):
    """A malformed message — the peer's fault, never fatal to the daemon."""


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Next message from the stream; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError("message exceeds MAX_MESSAGE_BYTES")
    return decode(line)


async def write_message(writer: asyncio.StreamWriter,
                        *messages: dict) -> None:
    """Send one or more messages with one write and one drain, so events
    that are ready together cost the socket one system call."""
    writer.write(b"".join(map(encode, messages)))
    await writer.drain()


def error_event(reason: str, **extra) -> dict:
    return {"event": "error", "reason": reason, **extra}
