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
import math
import random
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

from .errors import InputError, TraceParseError

# nanoseconds per second: every timestamp and span is a whole number of ns
NS = 1_000_000_000

ID_BITS = 256
ID_SPACE = 1 << ID_BITS

# Flag bits populated by the pipeline; raw records carry 0.
FLAG_INTER_MONITOR_DUPLICATE = 0x1
FLAG_REBROADCAST = 0x2

# node id and cid digest text: hex digits only, no sign, prefix, underscore or space
_ID_HEX = re.compile(r"[0-9a-fA-F]{1,64}")
_DIGEST_HEX = re.compile(r"[0-9a-fA-F]{64}")


class NodeId(int):
    """A 256-bit overlay identifier, uniformly distributed when generated.

    A plain int underneath: hashing, equality and ordering are the int's,
    so a NodeId compares equal to the int of the same value."""

    __slots__ = ()

    def __new__(cls, value: int) -> "NodeId":
        if not 0 <= value < ID_SPACE:
            raise InputError("node id out of 256-bit range")
        return super().__new__(cls, value)

    @classmethod
    def generate(cls, rng: random.Random) -> "NodeId":
        return cls(rng.getrandbits(ID_BITS))

    @classmethod
    def from_hex(cls, text: str) -> "NodeId":
        """The id written as 1 to 64 hex digits; InputError otherwise."""
        if not _ID_HEX.fullmatch(text):
            raise InputError(f"peer_id must be 1 to 64 hex digits, got {text!r}")
        return cls(int(text, 16))

    @property
    def hex(self) -> str:
        return f"{self:064x}"

    def pos(self) -> float:
        """Normalized position of the id in [0, 1)."""
        return self / ID_SPACE

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


class Codec(int):
    """Content-encoding tag of a Cid, a plain int code. A known codec has a readable name
    and one shared object; any other code round-trips as ``codec-0x<code>``."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return _CODEC_NAMES.get(self, f"codec-0x{self:x}")

    @classmethod
    def from_name(cls, name: str) -> "Codec":
        if name in _KNOWN_CODECS:
            return _KNOWN_CODECS[name]
        m = re.fullmatch(r"codec-0x([0-9a-fA-F]+)", name)
        if m:
            return cls(int(m.group(1), 16))
        raise InputError(f"unknown codec name: {name!r}")


DAG_PROTOBUF = Codec(0x70)
RAW = Codec(0x55)
DAG_CBOR = Codec(0x71)
DAG_JSON = Codec(0x0129)
GIT_RAW = Codec(0x78)
ETHEREUM_TX = Codec(0x93)
_KNOWN_CODECS = {c.name: c for c in (DAG_PROTOBUF, RAW, DAG_CBOR, DAG_JSON, GIT_RAW, ETHEREUM_TX)}

DIGEST_BITS = 256
DIGEST_BYTES = DIGEST_BITS // 8


class Cid(tuple):
    """Content address: the ``(codec, digest)`` pair of a codec tag and the
    256-bit hash of the content. A plain tuple underneath, so a Cid
    compares equal to the tuple of the same pair."""

    __slots__ = ()
    # named fields, as on a namedtuple: dataclasses.asdict/astuple then
    # rebuild a Cid as Cid(*values), not Cid(iterable)
    _fields = ("codec", "digest")

    def __new__(cls, codec: Codec, digest: bytes) -> "Cid":
        if len(digest) != DIGEST_BYTES:
            raise InputError("digest must be 32 bytes")
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
    def from_fields(cls, codec_name: str, digest_hex: str) -> "Cid":
        """The cid of a codec name and a digest of exactly 64 hex digits;
        InputError names the codec or the digest otherwise."""
        codec = Codec.from_name(codec_name)
        if not _DIGEST_HEX.fullmatch(digest_hex):
            raise InputError(f"cid_digest_hex must be 64 hex digits, got {digest_hex!r}")
        return cls(codec, bytes.fromhex(digest_hex))

    @classmethod
    def from_string(cls, text: str) -> "Cid":
        name, _, hexpart = text.partition(":")
        return cls.from_fields(name, hexpart)

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
    def is_duplicate(self) -> bool:
        return bool(self.flags & FLAG_INTER_MONITOR_DUPLICATE)

    @property
    def is_rebroadcast(self) -> bool:
        return bool(self.flags & FLAG_REBROADCAST)

    def with_flags(self, flags: int) -> "TraceRecord":
        return build_trace_record(
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


def _slot_builder(cls):
    """A function that takes every field of the frozen slotted dataclass
    ``cls`` in order (none may be left to its default) and returns what
    ``cls(...)`` would. It stores each field with its slot descriptor's
    ``__set__`` on an ``object.__new__`` instance, which skips the frozen
    ``__init__``'s ``object.__setattr__`` per field: less than half the
    cost of ``cls(...)`` on a seven-field record."""
    names = [f.name for f in fields(cls)]
    scope = {"_new": object.__new__, "_cls": cls}
    scope.update((f"_set_{name}", getattr(cls, name).__set__) for name in names)
    stores = "".join(f"    _set_{name}(_obj, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n    _obj = _new(_cls)\n{stores}    return _obj\n", scope)
    build = scope["build"]
    build.__qualname__ = build.__name__ = f"build_{cls.__name__}"
    return build


build_trace_record = _slot_builder(TraceRecord)
build_conn_event = _slot_builder(ConnEvent)


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


@contextmanager
def open_text(target: PathOrStream, mode: str):
    """A path opened as text in ``mode`` (gzipped if it ends in ``.gz``) and
    closed on exit, or a caller's stream, left open (a byte stream wrapped).
    Bytes that are not UTF-8, a truncated gzip stream, or text that UTF-8
    cannot encode (a lone surrogate) raise InputError naming the target."""
    try:
        if isinstance(target, (str, Path)):
            opener = gzip.open if Path(target).suffix == ".gz" else open
            with opener(target, mode + "t", encoding="utf-8", newline="") as stream:
                yield stream
        elif isinstance(target, io.TextIOBase):
            yield target
        else:
            stream = io.TextIOWrapper(target, encoding="utf-8", newline="")
            try:
                yield stream
            finally:
                stream.detach()  # flushes first
    except (UnicodeError, EOFError, zlib.error) as exc:
        verb = "write" if mode == "w" else "read"
        raise InputError(f"cannot {verb} {target} as text: {exc}") from None


def to_ns(seconds: float, name: str) -> int:
    """``seconds`` in whole nanoseconds; raise InputError naming ``name`` unless finite."""
    if not math.isfinite(seconds * NS):
        raise InputError(f"{name} must be finite, got {seconds!r}")
    return int(seconds * NS)


def span_ns(seconds: float, name: str) -> int:
    """``seconds`` in whole nanoseconds; raise InputError naming ``name``
    unless it is finite and at least 1 ns."""
    span = seconds * NS
    if not (math.isfinite(span) and span >= 1):
        raise InputError(f"{name} must be a finite span of at least 1 ns, got {seconds!r}")
    return int(span)


# value -> member tables: a dict look-up instead of an Enum call per row
_REQUEST_TYPE_BY_VALUE = {m.value: m for m in RequestType}
_CONN_KIND_BY_VALUE = {m.value: m for m in ConnEventKind}

# Lines are joined and written in batches of this many.
_WRITE_BATCH = 512


def _csv_text(value: str) -> str:
    """``value`` as ``csv.writer`` (excel dialect) writes it as one of
    several fields: quoted, with inner quotes doubled, only when it holds
    a comma, a quote or a line break."""
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


class Interner(dict):
    """``codes[value]`` is the int code of ``value``, a new value taking the
    next code, so codes are in first-seen order; ``by_code[i]`` has code i."""

    __slots__ = ("by_code",)

    def __init__(self):
        self.by_code: list = []

    def __missing__(self, value):
        code = self[value] = len(self.by_code)
        self.by_code.append(value)
        return code


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed on the first look-up of each
    key; an exception from ``fn`` propagates and stores nothing."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _write_lines(stream, header: Sequence[str], lines: Iterable[str]) -> None:
    stream.write(",".join(header) + "\r\n")
    lines = iter(lines)
    while batch := "".join(islice(lines, _WRITE_BATCH)):
        stream.write(batch)


def _read_rows(stream, header: Sequence[str]):
    """Check the header, then yield ``(line number, row)`` for every row
    of exactly ``len(header)`` fields; any other row raises. Rows are
    those ``csv.reader`` (excel dialect) parses. The number is that of the
    row's last physical line, so a quoted field holding a line break moves
    the numbers of the rows after it.

    A line with no quote, NUL or inner line break that no field can make
    longer than ``csv.field_size_limit()`` is split on commas; any other
    starts a ``csv.reader`` over the same lines, which reads on through a
    quoted field's line breaks and raises ``csv.Error`` as it would."""
    limit = csv.field_size_limit()
    width = len(header)
    expect = header
    lines = iter(stream)
    lineno = 0
    for line in lines:
        lineno += 1
        row = line.rstrip("\r\n")
        if '"' in row or "\0" in row or "\r" in row or "\n" in row or len(line) > limit:
            reader = csv.reader(chain((line,), lines))
            row = next(reader)
            lineno += reader.line_num - 1
        else:
            row = row.split(",") if row else []
        if expect is not None:
            if row != expect:
                raise TraceParseError(f"unexpected header {row!r}", 1)
            expect = None
        elif len(row) != width:
            raise TraceParseError(f"expected {width} fields, got {len(row)}", lineno)
        else:
            yield lineno, row
    if expect is not None:
        raise TraceParseError("empty file, missing header", 1)


def write_trace(records: Iterable[TraceRecord], sink: PathOrStream) -> None:
    """Write ``records`` as an excel-dialect CSV: fields quoted only where
    needed, CRLF line ends, byte-identical to ``csv.writer``'s output."""
    text = _Memo(_csv_text)
    peer_text = _Memo(attrgetter("hex"))
    cid_text = _Memo(lambda cid: f"{_csv_text(cid.codec.name)},{cid.digest_hex}")
    with open_text(sink, "w") as stream:
        _write_lines(stream, TRACE_HEADER, (
            f"{r.timestamp_ns},{text[r.monitor]},{peer_text[r.peer]},{text[r.address]},"
            f"{r.request_type._value_},{cid_text[r.cid]},{r.flags}\r\n"
            for r in records
        ))


# the readers' integer fields take the text the writers write for an int:
# ASCII digits, and a leading "-" for a timestamp; no "+", underscore or space
_TIMESTAMP_RULE = "timestamp_ns must be ASCII digits after an optional '-', got {!r}"


def _flags_from_text(text: str) -> int:
    if not (text.isdigit() and text.isascii()):
        raise InputError(f"flags must be ASCII digits, got {text!r}")
    return int(text)


def read_trace(source: PathOrStream) -> list[TraceRecord]:
    """Read a trace written by ``write_trace``. Each distinct peer, cid,
    flags text, monitor and address is parsed once per file: records that
    repeat one share the same object."""
    strings: dict[str, str] = {}
    peers = _Memo(NodeId.from_hex)
    cids = _Memo(lambda pair: Cid.from_fields(*pair))
    flag_values = _Memo(_flags_from_text)
    out = []
    with open_text(source, "r") as stream:
        for lineno, (ts, monitor, peer_hex, address, rtype, codec, digest, flags) in \
                _read_rows(stream, TRACE_HEADER):
            request_type = _REQUEST_TYPE_BY_VALUE.get(rtype)
            if request_type is None:
                raise TraceParseError(f"unknown request_type token {rtype!r}", lineno)
            # fields parse in column order, so a malformed row reports its
            # first bad field whether or not its ids were seen before
            if not (ts.isdigit() or ts[:1] == "-" and ts[1:].isdigit()) or not ts.isascii():
                raise TraceParseError(_TIMESTAMP_RULE.format(ts), lineno)
            try:
                ts, peer, cid = int(ts), peers[peer_hex], cids[codec, digest]
                flags = flag_values[flags]
            except (ValueError, TypeError) as exc:
                raise TraceParseError(str(exc), lineno)
            out.append(build_trace_record(
                ts, strings.setdefault(monitor, monitor), peer,
                strings.setdefault(address, address), request_type, cid, flags,
            ))
        return out


def write_conn_events(events: Iterable[ConnEvent], sink: PathOrStream) -> None:
    """Write ``events`` in the same excel dialect as ``write_trace``."""
    text = _Memo(_csv_text)
    peer_text = _Memo(attrgetter("hex"))
    with open_text(sink, "w") as stream:
        _write_lines(stream, CONN_HEADER, (
            f"{e.timestamp_ns},{text[e.monitor]},{peer_text[e.peer]},{e.kind._value_}\r\n"
            for e in events
        ))


def read_conn_events(source: PathOrStream) -> list[ConnEvent]:
    """Read events written by ``write_conn_events``; like ``read_trace``,
    events that repeat a peer or monitor share the same object."""
    strings: dict[str, str] = {}
    peers = _Memo(NodeId.from_hex)
    out = []
    with open_text(source, "r") as stream:
        for lineno, (ts, monitor, peer_hex, kind) in _read_rows(stream, CONN_HEADER):
            if not (ts.isdigit() or ts[:1] == "-" and ts[1:].isdigit()) or not ts.isascii():
                raise TraceParseError(_TIMESTAMP_RULE.format(ts), lineno)
            try:
                ts, peer = int(ts), peers[peer_hex]
                event_kind = _CONN_KIND_BY_VALUE.get(kind)
                if event_kind is None:
                    event_kind = ConnEventKind(kind)  # raises, naming the token
            except ValueError as exc:
                raise TraceParseError(str(exc), lineno)
            out.append(build_conn_event(ts, strings.setdefault(monitor, monitor), peer, event_kind))
        return out
