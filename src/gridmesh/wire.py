"""Framed, versioned, checksummed message layer (see PROTOCOL.md).

Frame layout, all integers big-endian::

    magic 'GM' (2) | version (1) | msg_type (1) | run_id (16) |
    payload_len u32 | payload | crc32(header and payload) u32

The CRC covers the 24 header bytes too, so a damaged msg_type, run_id or
payload_len is a classified error, never another valid envelope.

Payloads are canonical JSON: UTF-8, lexicographically sorted keys, no
insignificant whitespace, shortest round-trip float representation. The
decoder is total: any byte string yields either an envelope or a classified
error, never a crash.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field

MAGIC = b"GM"
VERSION = 0x02
RUN_ID_LEN = 16
ZERO_RUN_ID = bytes(RUN_ID_LEN)
HEADER_LEN = 2 + 1 + 1 + RUN_ID_LEN + 4
TRAILER_LEN = 4
MAX_PAYLOAD = 16 * 1024 * 1024


class ProtocolError(Exception):
    """Base for every wire-level failure."""


class FramingError(ProtocolError):
    """Bad magic, oversized declared length, or trailing garbage."""


class VersionError(ProtocolError):
    pass


class UnknownMessageTypeError(ProtocolError):
    pass


class CorruptionError(ProtocolError):
    """Checksum mismatch."""


class IncompleteFrameError(ProtocolError):
    """Not enough bytes yet; retryable for streaming reads."""


class MessageKind(enum.IntEnum):
    HELLO = 0x01
    TOPOLOGY_REPORT = 0x02
    FORECAST_REPORT = 0x03
    ACK = 0x04
    UPLOAD_READY = 0x05
    RUN_RESULT = 0x07
    ERROR = 0x08
    RUN_OPEN = 0x09


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class Envelope:
    msg_type: MessageKind
    payload: bytes = b"{}"
    run_id: bytes = ZERO_RUN_ID
    version: int = VERSION

    def obj(self) -> dict:
        return json.loads(self.payload.decode("utf-8"))


def make_envelope(kind: MessageKind, obj: dict, run_id: bytes = ZERO_RUN_ID) -> Envelope:
    return Envelope(msg_type=kind, payload=canonical_json(obj), run_id=run_id)


def encode(env: Envelope) -> bytes:
    """Serialize one envelope to its frame bytes."""
    if env.version != VERSION:
        raise VersionError(f"cannot encode version {env.version:#x}")
    try:
        kind = MessageKind(env.msg_type)
    except ValueError:
        raise UnknownMessageTypeError(f"unknown msg_type {env.msg_type:#x}") from None
    if len(env.run_id) != RUN_ID_LEN:
        raise FramingError(f"run_id must be {RUN_ID_LEN} bytes")
    if len(env.payload) > MAX_PAYLOAD:
        raise FramingError(f"payload of {len(env.payload)} bytes exceeds {MAX_PAYLOAD}")
    head = (MAGIC + struct.pack(">BB", env.version, int(kind)) + env.run_id
            + struct.pack(">I", len(env.payload)))
    crc = zlib.crc32(env.payload, zlib.crc32(head))
    return head + env.payload + struct.pack(">I", crc)


def decode_prefix(data: bytes | bytearray, start: int = 0) -> tuple[Envelope, int]:
    """Parse one frame at offset ``start`` of ``data``; returns (envelope, bytes
    consumed)."""
    have = len(data) - start
    if have < HEADER_LEN:
        raise IncompleteFrameError(f"need {HEADER_LEN} header bytes, have {have}")
    head = bytes(data[start:start + HEADER_LEN])
    if head[:2] != MAGIC:
        raise FramingError(f"bad magic {head[:2]!r}")
    version, msg_type = head[2], head[3]
    if version != VERSION:
        raise VersionError(f"unknown version {version:#x}")
    try:
        kind = MessageKind(msg_type)
    except ValueError:
        raise UnknownMessageTypeError(f"unknown msg_type {msg_type:#x}") from None
    run_id = head[4:4 + RUN_ID_LEN]
    (length,) = struct.unpack(">I", head[20:24])
    if length > MAX_PAYLOAD:
        raise FramingError(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    total = HEADER_LEN + length + TRAILER_LEN
    if have < total:
        raise IncompleteFrameError(f"need {total} bytes, have {have}")
    payload = bytes(data[start + HEADER_LEN:start + HEADER_LEN + length])
    (crc,) = struct.unpack_from(">I", data, start + HEADER_LEN + length)
    actual = zlib.crc32(payload, zlib.crc32(head))
    if crc != actual:
        raise CorruptionError(f"crc mismatch: frame says {crc:#010x}, frame is {actual:#010x}")
    return Envelope(msg_type=kind, payload=payload, run_id=run_id, version=version), total


def decode(data: bytes) -> Envelope:
    """Parse exactly one frame; trailing bytes are a framing error."""
    env, used = decode_prefix(data)
    if used != len(data):
        raise FramingError(f"{len(data) - used} trailing bytes after frame")
    return env


@dataclass
class StreamDecoder:
    """Reassembles frames from arbitrarily split stream reads."""

    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, chunk: bytes) -> list[Envelope]:
        """Buffer ``chunk`` and return every complete envelope now available.
        Frames are parsed in place; the consumed prefix is cut once per call."""
        self._buf.extend(chunk)
        out, pos = [], 0
        try:
            while True:
                env, used = decode_prefix(self._buf, pos)
                pos += used
                out.append(env)
        except IncompleteFrameError:
            return out
        finally:
            del self._buf[:pos]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# ----------------------------------------------------------------------
# Message builders (payload schemas are documented in PROTOCOL.md)

def hello(node_id: str, role: str, seq: int, region: str | None = None) -> Envelope:
    obj = {"node_id": node_id, "role": role, "seq": seq}
    if region is not None:
        obj["region"] = region
    return make_envelope(MessageKind.HELLO, obj)


def topology_report(branches: list[dict], seq: int, buses: list[dict] | None = None) -> Envelope:
    return make_envelope(MessageKind.TOPOLOGY_REPORT,
                         {"branches": branches, "buses": buses or [], "seq": seq})


def forecast_report(spec: dict, seq: int) -> Envelope:
    return make_envelope(MessageKind.FORECAST_REPORT, {"spec": spec, "seq": seq})


def ack(of: int) -> Envelope:
    return make_envelope(MessageKind.ACK, {"of": of})


def upload_ready(region: str, store_key: str, run_id: bytes) -> Envelope:
    return make_envelope(MessageKind.UPLOAD_READY,
                         {"region": region, "store_key": store_key}, run_id)


def run_result(store_key: str, verdict_summary: str, seq: int, run_id: bytes) -> Envelope:
    return make_envelope(MessageKind.RUN_RESULT,
                         {"store_key": store_key, "verdict_summary": verdict_summary,
                          "seq": seq}, run_id)


def error_msg(code: str, text: str, run_id: bytes = ZERO_RUN_ID,
              of: int | None = None) -> Envelope:
    """``of`` is the seq of the rejected UE frame, or None."""
    return make_envelope(MessageKind.ERROR, {"code": code, "text": text, "of": of}, run_id)


def run_open(manifest_obj: dict, run_id: bytes) -> Envelope:
    return make_envelope(MessageKind.RUN_OPEN, manifest_obj, run_id)
