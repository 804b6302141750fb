"""The telemetry wire protocol: length-prefixed frames over a socket.

Every message is one *frame*::

    payload-length u32 (little-endian) + frame-type u8 + payload

Control frames (HELLO, END, STATUS, REPORT, and all responses) carry JSON
payloads; SEGMENT frames carry one binary segment
(:mod:`repro.eventlog.segment`) verbatim, so the hot ingest path never
touches JSON.  The server answers every request frame — SEGMENT with ACK
once the segment is journaled and written into the input pipes of the
workers that own the client, which is how backpressure reaches the
client: while an owner has ``--queue-depth`` segments unanswered, the
server holds the ACK back, and the client's next send waits for it.

Frame types::

    HELLO    client -> server   {"name": ...}            -> OK {"client_id"}
    SEGMENT  client -> server   <segment bytes>          -> ACK {"seq"}
    END      client -> server   {"segments": N}          -> OK {report stats}
    STATUS   any    -> server   {}                       -> OK {counters}
    REPORT   any    -> server   {}                       -> OK {report}
    VERDICTS any    -> server   {"verdicts": [...]}      -> OK {"verdicts": N}
    SHUTDOWN any    -> server   {}                       -> OK {}
    ERR      server -> client   {"error": ...}

VERDICTS rows are ``{"pcs": [pc, pc], "verdict": "confirmed" |
"unconfirmed" | "infeasible"}`` — the output of ``repro validate``
(:mod:`repro.validate`) fed back so the fleet report can label each
deduplicated race with its validation status.

Addresses are spelled ``unix:/path/to.sock`` or ``tcp:host:port``
(:func:`parse_address`), the same syntax the CLI flags take.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Tuple

from ..detector.races import RaceInstance, RaceReport

__all__ = [
    "T_HELLO", "T_SEGMENT", "T_END", "T_STATUS", "T_REPORT", "T_SHUTDOWN",
    "T_VERDICTS",
    "T_OK", "T_ACK", "T_ERR",
    "ProtocolError", "ConnectionClosed",
    "send_frame", "recv_frame", "send_json", "decode_json",
    "parse_address", "connect_to", "bind_listener",
    "report_to_wire", "report_from_wire",
]

T_HELLO = 1
T_SEGMENT = 2
T_END = 3
T_STATUS = 4
T_REPORT = 5
T_SHUTDOWN = 6
T_VERDICTS = 7

T_OK = 0x80
T_ACK = 0x81
T_ERR = 0xFF

_FRAME = struct.Struct("<IB")

#: Upper bound on one frame's payload; a length prefix beyond this is
#: treated as a torn/garbage connection rather than honored with a 4 GiB
#: allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """The peer violated the framing or message rules."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (possibly mid-frame)."""

    def __init__(self, message: str = "connection closed", *,
                 mid_frame: bool = False):
        super().__init__(message)
        self.mid_frame = mid_frame


def _recv_exact(sock: socket.socket, count: int, *,
                mid_frame: bool) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(mid_frame=mid_frame or bool(chunks))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, frame_type: int,
               payload: bytes = b"") -> None:
    sock.sendall(_FRAME.pack(len(payload), frame_type) + payload)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    header = _recv_exact(sock, _FRAME.size, mid_frame=False)
    length, frame_type = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length, mid_frame=True) if length else b""
    return frame_type, payload


def send_json(sock: socket.socket, frame_type: int, obj: Any) -> None:
    send_frame(sock, frame_type,
               json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from None


# -- addresses -------------------------------------------------------------

def parse_address(spec: str) -> Tuple[str, Any]:
    """Parse ``unix:/path`` or ``tcp:host:port`` into (family, address)."""
    scheme, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"address {spec!r}: expected unix:PATH or "
                         f"tcp:HOST:PORT")
    if scheme == "unix":
        return "unix", rest
    if scheme == "tcp":
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address {spec!r}: tcp needs HOST:PORT")
        return "tcp", (host, int(port))
    raise ValueError(f"address {spec!r}: unknown scheme {scheme!r}")


def connect_to(spec: str, timeout: float = 30.0) -> socket.socket:
    """Open a client connection to a ``unix:``/``tcp:`` address."""
    family, address = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(address)
    return sock


def bind_listener(spec: str, backlog: int = 64) -> socket.socket:
    """Bind and listen on a ``unix:``/``tcp:`` address."""
    family, address = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(address)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
    sock.listen(backlog)
    return sock


# -- race-report serialization ---------------------------------------------

def report_to_wire(report: RaceReport) -> Dict[str, Any]:
    """A JSON-safe rendering of a report, exact enough to reconstruct it."""
    races = []
    for pc1, pc2, count in report.summary_rows():
        example = report.examples[(pc1, pc2)]
        races.append({
            "pcs": [pc1, pc2],
            "count": count,
            "example": {
                "addr": example.addr,
                "tids": [example.first_tid, example.second_tid],
                "pcs": [example.first_pc, example.second_pc],
                "writes": [example.first_is_write, example.second_is_write],
            },
        })
    return {"races": races, "addresses": sorted(report.addresses)}


def report_from_wire(wire: Dict[str, Any]) -> RaceReport:
    report = RaceReport()
    for row in wire["races"]:
        example = row["example"]
        key = (row["pcs"][0], row["pcs"][1])
        report.occurrences[key] = row["count"]
        report.examples[key] = RaceInstance(
            addr=example["addr"],
            first_tid=example["tids"][0],
            second_tid=example["tids"][1],
            first_pc=example["pcs"][0],
            second_pc=example["pcs"][1],
            first_is_write=example["writes"][0],
            second_is_write=example["writes"][1],
        )
    report.addresses.update(wire.get("addresses", ()))
    return report
