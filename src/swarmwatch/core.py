"""Domain types shared by every module, plus the trace file format.

Node and content identifiers live in a 256-bit space. Trace records are the
unit of observation: one want-list entry seen by one monitor. Files are
plain CSV (optionally gzipped, detected by a ``.gz`` suffix) so traces stay
greppable and diffable.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import random
import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

from .errors import TraceParseError

ID_BITS = 256
ID_SPACE = 1 << ID_BITS

# Flag bits populated by the pipeline; raw records carry 0.
FLAG_INTER_MONITOR_DUPLICATE = 0x1
FLAG_REBROADCAST = 0x2


class NodeId(int):
    """A 256-bit overlay identifier, uniformly distributed when generated.

    A plain int underneath: hashing, equality and ordering are the int's,
    so a NodeId compares equal to the int of the same value."""

    __slots__ = ()

    def __new__(cls, value: int) -> "NodeId":
        if not 0 <= value < ID_SPACE:
            raise ValueError("node id out of 256-bit range")
        return super().__new__(cls, value)

    @classmethod
    def generate(cls, rng: random.Random) -> "NodeId":
        return cls(rng.getrandbits(ID_BITS))

    @classmethod
    def from_hex(cls, text: str) -> "NodeId":
        return cls(int(text, 16))

    @property
    def hex(self) -> str:
        return f"{self:064x}"

    def pos(self) -> float:
        """Normalized position of the id in [0, 1)."""
        return self / ID_SPACE

    def xor(self, other: "NodeId") -> "NodeId":
        return NodeId(self ^ other)

    def __repr__(self) -> str:
        return f"NodeId({self.hex[:8]}..)"


_CODEC_NAMES = {
    0x70: "dag-pb",
    0x55: "raw",
    0x71: "dag-cbor",
    0x0129: "dag-json",
    0x78: "git-raw",
    0x93: "eth-tx",
}
_CODEC_CODES = {name: code for code, name in _CODEC_NAMES.items()}


class Codec(int):
    """Content-encoding tag of a Cid, a plain int code. Known codecs get
    readable names; anything else round-trips as ``codec-0x<code>``."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return _CODEC_NAMES.get(self, f"codec-0x{self:x}")

    @classmethod
    def from_name(cls, name: str) -> "Codec":
        if name in _CODEC_CODES:
            return cls(_CODEC_CODES[name])
        m = re.fullmatch(r"codec-0x([0-9a-fA-F]+)", name)
        if m:
            return cls(int(m.group(1), 16))
        raise ValueError(f"unknown codec name: {name!r}")


DAG_PROTOBUF = Codec(0x70)
RAW = Codec(0x55)
DAG_CBOR = Codec(0x71)
DAG_JSON = Codec(0x0129)
GIT_RAW = Codec(0x78)
ETHEREUM_TX = Codec(0x93)

DIGEST_BITS = 256
DIGEST_BYTES = DIGEST_BITS // 8


class Cid(tuple):
    """Content address: the ``(codec, digest)`` pair of a codec tag and the
    256-bit hash of the content. A plain tuple underneath, so a Cid
    compares equal to the tuple of the same pair."""

    __slots__ = ()

    def __new__(cls, codec: Codec, digest: bytes) -> "Cid":
        if len(digest) != DIGEST_BYTES:
            raise ValueError("digest must be 32 bytes")
        return super().__new__(cls, (codec, digest))

    def __getnewargs__(self):  # for pickle and copy: tuple's passes the pair as one argument
        return tuple(self)

    codec = property(itemgetter(0))
    digest = property(itemgetter(1))

    @property
    def digest_hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return f"{self.codec.name}:{self.digest_hex}"

    @classmethod
    def from_string(cls, text: str) -> "Cid":
        name, _, hexpart = text.partition(":")
        if not hexpart:
            raise ValueError(f"not a cid string: {text!r}")
        return cls(Codec.from_name(name), bytes.fromhex(hexpart))

    def __repr__(self) -> str:
        return f"Cid({self.codec.name}:{self.digest_hex[:8]}..)"


def hash_content(data: bytes, codec: Codec = RAW) -> Cid:
    """Address a block of content: a deterministic 256-bit digest of its bytes."""
    return Cid(codec, hashlib.sha256(data).digest())


class RequestType(Enum):
    WANT_HAVE = "want_have"
    WANT_BLOCK = "want_block"
    CANCEL = "cancel"


class ConnEventKind(Enum):
    CONNECT = "connect"
    DISCONNECT = "disconnect"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One want-list entry as observed by one monitor."""

    timestamp_ns: int
    monitor: str
    peer: NodeId
    address: str
    request_type: RequestType
    cid: Cid
    flags: int = 0

    @property
    def is_want(self) -> bool:
        return self.request_type is not RequestType.CANCEL

    @property
    def is_duplicate(self) -> bool:
        return bool(self.flags & FLAG_INTER_MONITOR_DUPLICATE)

    @property
    def is_rebroadcast(self) -> bool:
        return bool(self.flags & FLAG_REBROADCAST)

    def with_flags(self, flags: int) -> "TraceRecord":
        return TraceRecord(
            self.timestamp_ns, self.monitor, self.peer, self.address,
            self.request_type, self.cid, flags,
        )


@dataclass(frozen=True, slots=True)
class ConnEvent:
    """A peer connecting to or disconnecting from a monitor."""

    timestamp_ns: int
    monitor: str
    peer: NodeId
    kind: ConnEventKind


TRACE_HEADER = [
    "timestamp_ns",
    "monitor",
    "peer_id",
    "address",
    "request_type",
    "cid_codec",
    "cid_digest_hex",
    "flags",
]
CONN_HEADER = ["timestamp_ns", "monitor", "peer_id", "kind"]

PathOrStream = Union[str, Path, IO]


def _open_for(target: PathOrStream, mode: str):
    """Open a path (gzip-aware) or wrap a caller stream. Returns the text
    stream plus a flag telling the caller whether it owns the handle."""
    if isinstance(target, (str, Path)):
        path = Path(target)
        if path.suffix == ".gz":
            return gzip.open(path, mode + "t", encoding="utf-8", newline=""), True
        return open(path, mode, encoding="utf-8", newline=""), True
    if isinstance(target, io.TextIOBase):
        return target, False
    # byte stream supplied by the caller
    return io.TextIOWrapper(target, encoding="utf-8", newline=""), False


def _finish(stream, owned: bool):
    if owned:
        stream.close()
    elif isinstance(stream, io.TextIOWrapper):
        stream.flush()
        stream.detach()


def write_trace(records: Iterable[TraceRecord], sink: PathOrStream) -> None:
    stream, owned = _open_for(sink, "w")
    try:
        writer = csv.writer(stream)
        writer.writerow(TRACE_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.timestamp_ns,
                    r.monitor,
                    r.peer.hex,
                    r.address,
                    r.request_type.value,
                    r.cid.codec.name,
                    r.cid.digest_hex,
                    r.flags,
                ]
            )
    finally:
        _finish(stream, owned)


def _parse_trace_row(row: Sequence[str], lineno: int) -> TraceRecord:
    if len(row) != len(TRACE_HEADER):
        raise TraceParseError(
            f"expected {len(TRACE_HEADER)} fields, got {len(row)}", lineno
        )
    try:
        rtype = RequestType(row[4])
    except ValueError:
        raise TraceParseError(f"unknown request_type token {row[4]!r}", lineno)
    try:
        return TraceRecord(
            timestamp_ns=int(row[0]),
            monitor=row[1],
            peer=NodeId.from_hex(row[2]),
            address=row[3],
            request_type=rtype,
            cid=Cid(Codec.from_name(row[5]), bytes.fromhex(row[6])),
            flags=int(row[7]),
        )
    except (ValueError, TypeError) as exc:
        raise TraceParseError(str(exc), lineno)


def read_trace(source: PathOrStream) -> list[TraceRecord]:
    stream, owned = _open_for(source, "r")
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError("empty file, missing header", 1)
        if header != TRACE_HEADER:
            raise TraceParseError(f"unexpected header {header!r}", 1)
        return [_parse_trace_row(row, i) for i, row in enumerate(reader, start=2)]
    finally:
        _finish(stream, owned)


def write_conn_events(events: Iterable[ConnEvent], sink: PathOrStream) -> None:
    stream, owned = _open_for(sink, "w")
    try:
        writer = csv.writer(stream)
        writer.writerow(CONN_HEADER)
        for e in events:
            writer.writerow([e.timestamp_ns, e.monitor, e.peer.hex, e.kind.value])
    finally:
        _finish(stream, owned)


def read_conn_events(source: PathOrStream) -> list[ConnEvent]:
    stream, owned = _open_for(source, "r")
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError("empty file, missing header", 1)
        if header != CONN_HEADER:
            raise TraceParseError(f"unexpected header {header!r}", 1)
        out = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CONN_HEADER):
                raise TraceParseError(
                    f"expected {len(CONN_HEADER)} fields, got {len(row)}", lineno
                )
            try:
                out.append(
                    ConnEvent(
                        timestamp_ns=int(row[0]),
                        monitor=row[1],
                        peer=NodeId.from_hex(row[2]),
                        kind=ConnEventKind(row[3]),
                    )
                )
            except ValueError as exc:
                raise TraceParseError(str(exc), lineno)
        return out
    finally:
        _finish(stream, owned)
