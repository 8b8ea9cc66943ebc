import copy
import csv
import dataclasses
import gzip
import io
import pickle
import random
import re
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from swarmwatch.analytics import GeoDb
from swarmwatch.core import (
    CONN_HEADER,
    DAG_CBOR,
    DAG_PROTOBUF,
    ID_SPACE,
    RAW,
    TRACE_HEADER,
    Cid,
    Codec,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    _read_rows,
    build_conn_event,
    build_trace_record,
    hash_content,
    open_text,
    read_conn_events,
    read_trace,
    span_ns,
    to_ns,
    write_conn_events,
    write_trace,
)
from swarmwatch.errors import InputError, TraceParseError


def test_hash_content_deterministic():
    a = hash_content(b"", RAW)
    b = hash_content(b"", RAW)
    assert a == b
    assert len(a.digest) == 32


def test_hash_content_codec_distinguishes():
    assert hash_content(b"x", RAW) != hash_content(b"x", DAG_PROTOBUF)
    assert hash_content(b"x", RAW).digest == hash_content(b"x", DAG_PROTOBUF).digest


def test_hash_content_differs_on_different_bytes():
    assert hash_content(b"b1") != hash_content(b"b2")


def test_hash_content_random_blocks_all_distinct():
    # generate-and-compare oracle: 1000 random 1 KiB blocks
    rng = random.Random(7)
    digests = {hash_content(rng.randbytes(1024)).digest for _ in range(1000)}
    assert len(digests) == 1000


def test_cid_string_round_trip():
    c = hash_content(b"hello", DAG_CBOR)
    assert Cid.from_string(str(c)) == c
    other = Cid(Codec(0x1234), bytes(32))
    assert Cid.from_string(str(other)) == other


def test_codec_names():
    assert Codec.from_name("dag-pb") == DAG_PROTOBUF
    assert Codec(0xABCD).name == "codec-0xabcd"
    with pytest.raises(ValueError):
        Codec.from_name("nonsense")


def test_known_codec_names_give_the_shared_objects():
    assert Codec.from_name("raw") is RAW and Codec.from_name("dag-pb") is DAG_PROTOBUF
    assert Codec.from_name("codec-0xabcd") == 0xABCD


def test_ids_are_plain_values():
    # a NodeId or Codec is an int, a Cid a (codec, digest) tuple: equal to,
    # hashed and ordered like the plain value, and surviving pickle and copy
    n, c = NodeId(7), hash_content(b"x", RAW)
    assert n == 7 and hash(n) == hash(7) and sorted([NodeId(9), n]) == [7, 9]
    assert RAW == 0x55 and c == (RAW, c.digest) and hash(c) == hash((0x55, c.digest))
    assert sorted([hash_content(b"y", DAG_CBOR), c])[0] == c
    for value in (n, RAW, c):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert clone == value and type(clone) is type(value)
    with pytest.raises(ValueError):
        NodeId(ID_SPACE)
    with pytest.raises(ValueError):
        NodeId(-1)
    with pytest.raises(ValueError):
        Cid(RAW, bytes(31))


def test_node_id_pos_range():
    rng = random.Random(1)
    for _ in range(100):
        n = NodeId.generate(rng)
        assert 0.0 <= n.pos() < 1.0
        assert NodeId.from_hex(n.hex) == n


def test_node_id_uniformity_ks():
    # mirrors the quantile-quantile uniformity check on generated ids
    rng = random.Random(42)
    xs = [NodeId.generate(rng).pos() for _ in range(5000)]
    result = stats.kstest(xs, "uniform")
    assert result.pvalue > 0.01


def _random_record(rng: random.Random) -> TraceRecord:
    return TraceRecord(
        timestamp_ns=rng.randrange(0, 10**15),
        monitor=rng.choice(["m0", "m1", "m2"]),
        peer=NodeId.generate(rng),
        address=f"/ip4/{rng.randrange(256)}.{rng.randrange(256)}"
        f".{rng.randrange(256)}.{rng.randrange(256)}/tcp/4001",
        request_type=rng.choice(list(RequestType)),
        cid=hash_content(rng.randbytes(8), rng.choice([RAW, DAG_PROTOBUF, DAG_CBOR])),
        flags=rng.randrange(4),
    )


# Monitor names and addresses that exercise every quoting rule of the excel
# dialect: delimiter, quote, both line-break characters, non-ASCII text and
# the empty string.
_csv_texts = st.one_of(
    st.just(""),
    st.text(st.one_of(st.sampled_from(',"\r\n é漢😀'), st.characters()), max_size=8),
)


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _csv_writer_trace(records) -> bytes:
    return _csv_writer_bytes(TRACE_HEADER, (
        [r.timestamp_ns, r.monitor, r.peer.hex, r.address, r.request_type.value,
         r.cid.codec.name, r.cid.digest_hex, r.flags]
        for r in records
    ))


def test_trace_round_trip_empty():
    buf = io.BytesIO()
    write_trace([], buf)
    buf.seek(0)
    assert read_trace(buf) == []


def test_trace_round_trip_single_flags_3():
    rec = TraceRecord(
        timestamp_ns=12345,
        monitor="m0",
        peer=NodeId(2**256 - 1),
        address="/ip4/10.0.0.1/tcp/4001",
        request_type=RequestType.WANT_HAVE,
        cid=Cid(RAW, bytes([0xFF] * 32)),
        flags=3,
    )
    buf = io.BytesIO()
    write_trace([rec], buf)
    text = buf.getvalue().decode()
    assert text.strip().splitlines()[1].endswith(",3")
    buf.seek(0)
    assert read_trace(buf) == [rec]


def test_trace_round_trip_large_byte_identical():
    # round-trip oracle: write/read/write must be byte-identical
    rng = random.Random(3)
    records = sorted(
        (_random_record(rng) for _ in range(100_000)),
        key=lambda r: (r.monitor, r.timestamp_ns),
    )
    buf1 = io.BytesIO()
    write_trace(records, buf1)
    assert buf1.getvalue() == _csv_writer_trace(records)  # spans many write batches
    buf1.seek(0)
    recovered = read_trace(buf1)
    assert recovered == records
    buf2 = io.BytesIO()
    write_trace(recovered, buf2)
    assert buf1.getvalue() == buf2.getvalue()


@given(st.data())
@settings(max_examples=30)
def test_trace_round_trip_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    records = [_random_record(rng) for _ in range(data.draw(st.integers(0, 20)))]
    buf = io.BytesIO()
    write_trace(records, buf)
    buf.seek(0)
    assert read_trace(buf) == records


def test_trace_gzip_round_trip(tmp_path):
    rng = random.Random(5)
    records = [_random_record(rng) for _ in range(50)]
    path = tmp_path / "trace.csv.gz"
    write_trace(records, path)
    with open(path, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"  # really gzipped
    assert read_trace(path) == records


def _not_utf8(path):
    path.write_bytes(b"timestamp_ns,monitor,peer_id,kind\r\n1,m\xff,ab,connect\r\n")


def _truncated_gzip(path):
    # one long first line: reading it reaches the cut
    path.write_bytes(gzip.compress(b"x" * 100_000)[:-12])


@pytest.mark.parametrize("read", [read_trace, read_conn_events, GeoDb.from_csv])
@pytest.mark.parametrize("name, make", [("x.csv", _not_utf8), ("x.csv.gz", _truncated_gzip)])
def test_bytes_that_are_not_text_raise_input_error(tmp_path, read, name, make):
    path = tmp_path / name
    make(path)
    with pytest.raises(InputError, match="cannot read .* as text"):
        read(path)
    with pytest.raises(InputError, match="cannot read .* as text"):
        read(io.BytesIO(path.read_bytes()) if name.endswith(".csv") else gzip.open(path))


def test_open_text_leaves_a_caller_stream_open_and_flushed():
    raw = io.BytesIO()
    with open_text(raw, "w") as stream:
        stream.write("é")
    assert not raw.closed and raw.getvalue() == "é".encode()
    text = io.StringIO()
    with open_text(text, "w") as stream:
        assert stream is text
    assert not text.closed


@pytest.mark.parametrize("seconds, ns", [(0, 0), (-1.5, -1_500_000_000), (1e-10, 0),
                                         (1e299, int(1e299 * 1_000_000_000))])
def test_to_ns_takes_every_finite_value(seconds, ns):
    assert to_ns(seconds, "w") == ns


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf"), 1e300])
def test_to_ns_names_a_non_finite_value(seconds):
    with pytest.raises(InputError, match=re.escape(f"w must be finite, got {seconds!r}")):
        to_ns(seconds, "w")


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), 0, -1.0, 1e-10])
def test_span_ns_names_a_span_under_one_ns(seconds):
    with pytest.raises(InputError, match=r"^b must be a finite span of at least 1 ns"):
        span_ns(seconds, "b")


def test_span_ns_floors_to_whole_nanoseconds():
    assert span_ns(1e-9, "b") == 1
    assert span_ns(2.5, "b") == 2_500_000_000


def test_trace_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    rng = random.Random(6)
    buf = io.BytesIO()
    write_trace([_random_record(rng), _random_record(rng)], buf)
    lines = buf.getvalue().decode().splitlines()
    lines[2] = lines[2] + ",extra"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("tail, message", [
    (",x\r\n", "invalid literal for int() with base 10: 'x'"),
    (",0,extra\r\n", f"expected {len(TRACE_HEADER)} fields, got {len(TRACE_HEADER) + 1}"),
], ids=["bad-flags", "extra-field"])
def test_trace_parse_error_counts_physical_lines(tail, message):
    # both records' quoted address holds a line break, so the second record
    # spans lines 4 and 5 of the file; its error names line 5, not record 3
    rng = random.Random(8)
    records = [dataclasses.replace(_random_record(rng), address="/dns/a\nb", flags=0)
               for _ in range(2)]
    buf = io.BytesIO()
    write_trace(records, buf)
    text = buf.getvalue().decode()
    assert text.count('"/dns/a\nb"') == 2 and text.endswith(",0\r\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(io.BytesIO((text[: -len(",0\r\n")] + tail).encode()))
    assert exc.value.line == 5
    assert str(exc.value) == f"line 5: {message}"


def test_conn_event_parse_error_counts_physical_lines():
    events = [ConnEvent(1, "m\n0", NodeId(77), ConnEventKind.CONNECT)] * 2
    buf = io.BytesIO()
    write_conn_events(events, buf)
    text = buf.getvalue().decode()
    assert text.endswith(",connect\r\n")
    with pytest.raises(TraceParseError) as exc:
        read_conn_events(io.BytesIO(text.replace(",connect\r\n", ",reconnect\r\n").encode()))
    assert exc.value.line == 3


def test_trace_parse_error_unknown_request_type(tmp_path):
    path = tmp_path / "bad.csv"
    rng = random.Random(8)
    buf = io.BytesIO()
    write_trace([_random_record(rng)], buf)
    text = buf.getvalue().decode()
    for token in ("want_have", "want_block", "cancel"):
        if f",{token}," in text:
            text = text.replace(f",{token},", ",want_maybe,")
            break
    path.write_text(text)
    with pytest.raises(TraceParseError, match="want_maybe"):
        read_trace(path)


def test_conn_events_round_trip():
    rng = random.Random(9)
    events = [
        ConnEvent(
            timestamp_ns=i * 1000,
            monitor="m0",
            peer=NodeId.generate(rng),
            kind=ConnEventKind.CONNECT if i % 2 == 0 else ConnEventKind.DISCONNECT,
        )
        for i in range(20)
    ]
    buf = io.BytesIO()
    write_conn_events(events, buf)
    buf.seek(0)
    assert read_conn_events(buf) == events


def _encodable(text: str) -> bool:
    try:
        text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


# a monitor name or address UTF-8 cannot encode, which a writer must reject
# as bad input naming the target
LONE_SURROGATE = "m\ud800"


@given(seed=st.integers(0, 2**32), monitors=st.lists(_csv_texts, min_size=1, max_size=3),
       addresses=st.lists(_csv_texts, min_size=1, max_size=4), n=st.integers(0, 12))
@example(seed=0, monitors=[LONE_SURROGATE], addresses=["a"], n=2)
@settings(max_examples=60, deadline=None)
def test_write_trace_matches_csv_writer(seed, monitors, addresses, n):
    rng = random.Random(seed)
    records = [
        dataclasses.replace(
            _random_record(rng), monitor=rng.choice(monitors), address=rng.choice(addresses)
        )
        for _ in range(n)
    ]
    buf = io.BytesIO()
    if not all(_encodable(r.monitor) and _encodable(r.address) for r in records):
        with pytest.raises(InputError, match="cannot write .* as text"):
            write_trace(records, buf)
        return
    write_trace(records, buf)
    assert buf.getvalue() == _csv_writer_trace(records)
    buf.seek(0)
    assert read_trace(buf) == records


@given(seed=st.integers(0, 2**32), monitors=st.lists(_csv_texts, min_size=1, max_size=3),
       n=st.integers(0, 12))
@example(seed=0, monitors=[LONE_SURROGATE], n=2)
@settings(max_examples=60, deadline=None)
def test_write_conn_events_matches_csv_writer(seed, monitors, n):
    rng = random.Random(seed)
    events = [
        ConnEvent(rng.randrange(10**15), rng.choice(monitors), NodeId.generate(rng),
                  rng.choice(list(ConnEventKind)))
        for _ in range(n)
    ]
    buf = io.BytesIO()
    if not all(_encodable(e.monitor) for e in events):
        with pytest.raises(InputError, match="cannot write .* as text"):
            write_conn_events(events, buf)
        return
    write_conn_events(events, buf)
    assert buf.getvalue() == _csv_writer_bytes(
        CONN_HEADER, ([e.timestamp_ns, e.monitor, e.peer.hex, e.kind.value] for e in events)
    )
    buf.seek(0)
    assert read_conn_events(buf) == events


def test_text_that_utf8_cannot_encode_raises_input_error_naming_the_file(tmp_path):
    path = tmp_path / "trace.csv.gz"
    record = TraceRecord(0, LONE_SURROGATE, NodeId(1), "a", RequestType.WANT_HAVE,
                         hash_content(b"x", RAW))
    with pytest.raises(InputError, match=f"cannot write {re.escape(str(path))} as text"):
        write_trace([record], path)


def test_read_trace_shares_repeated_ids():
    rng = random.Random(12)
    a, b = _random_record(rng), _random_record(rng)
    records = [a, b, a, b, a]
    buf = io.BytesIO()
    write_trace(records, buf)
    buf.seek(0)
    got = read_trace(buf)
    assert got == records
    for x, y in ((got[0], got[2]), (got[0], got[4]), (got[1], got[3])):
        assert x.peer is y.peer and x.cid is y.cid
        assert x.monitor is y.monitor and x.address is y.address
    assert got[0].peer is not got[1].peer and got[0].cid is not got[1].cid


def test_one_cid_read_from_two_files_holds_one_codec_object():
    record = TraceRecord(0, "m0", NodeId(1), "a", RequestType.WANT_HAVE, hash_content(b"x", RAW))
    reads = []
    for _ in range(2):
        buf = io.BytesIO()
        write_trace([record], buf)
        buf.seek(0)
        reads.append(read_trace(buf)[0].cid)
    assert reads[0] is not reads[1]  # each file parses its own Cid
    assert reads[0].codec is reads[1].codec is RAW


def test_read_conn_events_shares_repeated_ids():
    peers = [NodeId(5), NodeId(2**255)]
    events = [ConnEvent(i, "m0", NodeId(int(peers[i % 2])), ConnEventKind.CONNECT)
              for i in range(4)]
    buf = io.BytesIO()
    write_conn_events(events, buf)
    buf.seek(0)
    got = read_conn_events(buf)
    assert got == events
    assert got[0].peer is got[2].peer and got[1].peer is got[3].peer
    assert got[0].monitor is got[3].monitor


def _reference_trace_error(text: str) -> tuple[str, int]:
    """The message and line a row-at-a-time parser with no caches raises:
    type first, then timestamp, peer, codec, digest and flags in order."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRACE_HEADER):
            return f"expected {len(TRACE_HEADER)} fields, got {len(row)}", lineno
        try:
            RequestType(row[4])
        except ValueError:
            return f"unknown request_type token {row[4]!r}", lineno
        try:
            int(row[0]), NodeId.from_hex(row[2])
            Cid(Codec.from_name(row[5]), bytes.fromhex(row[6]))
            int(row[7])
        except ValueError as exc:
            return str(exc), lineno
    raise AssertionError("reference parser found no error")


_BAD_TRACE_FIELDS = {
    "timestamp": (0, "12x"),
    "peer": (2, "xyz"),
    "peer range": (2, "1" + "0" * 64),
    "type": (4, "want_maybe"),
    "codec": (5, "bogus"),
    "digest hex": (6, "zz"),
    "digest length": (6, "ab" * 31),
    "flags": (7, "one"),
}


@pytest.mark.parametrize("bad", [
    ("timestamp",), ("peer",), ("peer range",), ("type",), ("codec",),
    ("digest hex",), ("digest length",), ("flags",),
    # several bad fields: the first in parse order is the one reported
    ("timestamp", "peer"), ("type", "timestamp"), ("peer", "codec"),
    ("codec", "digest hex"), ("digest length", "flags"), ("timestamp", "flags"),
], ids="+".join)
@pytest.mark.parametrize("repeat", [False, True], ids=["fresh", "after-same-ids"])
def test_read_trace_errors_unchanged_by_caches(bad, repeat):
    # row 3 is malformed; with ``repeat`` the valid row 2 before it has the
    # same peer and cid, so its untouched ids are already cached
    rng = random.Random(13)
    rec = _random_record(rng)
    buf = io.BytesIO()
    write_trace([rec, rec if repeat else _random_record(rng)], buf)
    lines = buf.getvalue().decode().split("\r\n")
    fields = lines[1 if repeat else 2].split(",")
    for name in bad:
        index, value = _BAD_TRACE_FIELDS[name]
        fields[index] = value
    lines[2] = ",".join(fields)
    text = "\r\n".join(lines)
    message, line = _reference_trace_error(text)
    with pytest.raises(TraceParseError) as exc:
        read_trace(io.BytesIO(text.encode()))
    assert exc.value.line == line == 3
    assert str(exc.value) == f"line 3: {message}"


@pytest.mark.parametrize("column, value, message", [
    (0, "t0", "invalid literal for int() with base 10: 't0'"),
    (2, "xyz", "invalid literal for int() with base 16: 'xyz'"),
    (3, "reconnect", "'reconnect' is not a valid ConnEventKind"),
])
def test_read_conn_events_errors_unchanged_by_caches(column, value, message):
    peer = NodeId(77)
    buf = io.BytesIO()
    write_conn_events([ConnEvent(1, "m0", peer, ConnEventKind.CONNECT)] * 2, buf)
    lines = buf.getvalue().decode().split("\r\n")
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    with pytest.raises(TraceParseError) as exc:
        read_conn_events(io.BytesIO("\r\n".join(lines).encode()))
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: {message}"


def _reference_rows(stream, header):
    """``_read_rows`` as it was before its split fast path: every line
    goes through one ``csv.reader``."""
    reader = csv.reader(stream)
    try:
        first = next(reader)
    except StopIteration:
        raise TraceParseError("empty file, missing header", 1)
    if first != header:
        raise TraceParseError(f"unexpected header {first!r}", 1)
    width = len(header)
    for row in reader:
        if len(row) != width:
            raise TraceParseError(f"expected {width} fields, got {len(row)}", reader.line_num)
        yield reader.line_num, row


_STREAMS = ["bytes", "gzip", "stringio", "cr-lines"]


def _rows_outcome(read_rows, text: str, kind: str):
    """Every ``(line, row)`` ``read_rows`` yields for a CONN_HEADER file of
    ``text``, or the type and text of what it raised on the way. ``kind``
    picks the source: a byte stream, plain or gzipped, as ``open_text``
    wraps it; a caller's ``StringIO``, whose lines end only at LF; or lines
    that end only at CR, so that a line may hold an LF."""
    if kind == "stringio":
        opened = nullcontext(io.StringIO(text))
    elif kind == "cr-lines":
        opened = nullcontext(re.split("(?<=\r)", text))
    else:
        data = text.encode()
        raw = io.BytesIO(gzip.compress(data) if kind == "gzip" else data)
        opened = open_text(gzip.GzipFile(fileobj=raw) if kind == "gzip" else raw, "r")
    with opened as stream:
        try:
            return list(read_rows(stream, CONN_HEADER))
        except (TraceParseError, csv.Error) as exc:
            return type(exc), str(exc)


# Fields for the reader comparison: plain ones, quoted ones holding the
# delimiter, doubled quotes and line breaks, and raw text that may leave a
# quote open or put a line break or NUL inside an unquoted field.
_SMALL_FIELD_LIMIT = 16
_plain_fields = st.text(st.sampled_from("ab7 é;"), max_size=6)
_quoted_fields = st.lists(st.sampled_from(["a", ",", '""', "\r", "\n", "\r\n", " "]),
                          max_size=5).map(lambda parts: '"' + "".join(parts) + '"')
_raw_fields = st.text(st.sampled_from('a,"\r\n\0 '), max_size=4)
_long_fields = st.sampled_from(["x" * (_SMALL_FIELD_LIMIT + 1), '"' + "y," * 9 + '"'])
_line_ends = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def _csv_files(draw, kind: str, long_fields: bool) -> str:
    """Mostly well-formed files, so that most rows get compared: a valid
    header, four plain or quoted fields a row and the stream's own line
    end, with the odd wrong header, blank line, wrong width, other line
    end, over-long field, or, in one file of four, raw fields."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform odds, unlike hypothesis' own

    def odds(one_in: int) -> bool:
        return rng.randrange(one_in) == 0

    end = draw(st.sampled_from({"stringio": ["\n"], "cr-lines": ["\r"]}.get(
        kind, ["\r\n", "\n", "\r"])))
    raw = odds(4)

    def field() -> str:
        if long_fields and odds(40):
            return draw(_long_fields)
        if raw and odds(6):
            return draw(_raw_fields)
        return draw(_quoted_fields if odds(2) else _plain_fields)

    def line_end() -> str:
        return draw(_line_ends) if odds(20) else end

    header = ",".join(CONN_HEADER)
    if odds(5):
        header = draw(st.sampled_from(['"timestamp_ns",monitor,"peer_id",kind',
                                       "timestamp_ns,monitor"]))
    text = [] if odds(30) else [header + line_end()]
    for _ in range(draw(st.integers(0, 8))):
        if odds(25):
            text.append(line_end())  # a blank line
            continue
        width = len(CONN_HEADER) + (draw(st.sampled_from([-3, 1])) if odds(15) else 0)
        text.append(",".join(field() for _ in range(width)) + line_end())
    if text and odds(2):
        text[-1] = text[-1].rstrip("\r\n")  # no line end at the end of the file
    return "".join(text)


@given(data=st.data(), kind=st.sampled_from(_STREAMS), lowered=st.booleans())
@settings(max_examples=400, deadline=None)
def test_read_rows_matches_csv_reader(data, kind, lowered):
    text = data.draw(_csv_files(kind, lowered))
    saved = csv.field_size_limit()
    try:
        if lowered:
            csv.field_size_limit(_SMALL_FIELD_LIMIT)
        expected = _rows_outcome(_reference_rows, text, kind)
        assert _rows_outcome(_read_rows, text, kind) == expected
    finally:
        csv.field_size_limit(saved)


@pytest.mark.parametrize("text, outcome", [
    ("timestamp_ns,monitor,peer_id,kind\r\n1,m,p,k\r\n", [(2, ["1", "m", "p", "k"])]),
    ('timestamp_ns,monitor,peer_id,kind\n1,"m\r\n0",p,k\n2,m,p,k', [
        (3, ["1", "m\r\n0", "p", "k"]), (4, ["2", "m", "p", "k"])]),
    ("timestamp_ns,monitor,peer_id,kind\r1,m,p,k\r\r2,m,p,k\r",
     (TraceParseError, "line 3: expected 4 fields, got 0")),
    ("", (TraceParseError, "line 1: empty file, missing header")),
    ("timestamp_ns,monitor\n",
     (TraceParseError, "line 1: unexpected header ['timestamp_ns', 'monitor']")),
    ('timestamp_ns,monitor,peer_id,kind\n1,m"0,p,k\n', [(2, ["1", 'm"0', "p", "k"])]),
    # csv.reader keeps a NUL from Python 3.11 on and raises on it before
    ("timestamp_ns,monitor,peer_id,kind\n1,m\x000,p,k\n", None),
], ids=["plain", "quoted-crlf", "blank-line", "empty", "header", "inner-quote", "nul"])
def test_read_rows_cases(text, outcome):
    for kind in ("bytes", "gzip"):
        expected = _rows_outcome(_reference_rows, text, kind)
        assert _rows_outcome(_read_rows, text, kind) == expected
        assert outcome is None or expected == outcome


@pytest.mark.parametrize("kind, text", [
    ("stringio", "timestamp_ns,monitor,peer_id,kind\n1,m\r0,p,k\n"),
    ("cr-lines", "timestamp_ns,monitor,peer_id,kind\r1,m\n0,p,k\r"),
])
def test_read_rows_inner_line_break_raises_as_csv_does(kind, text):
    outcome = _rows_outcome(_read_rows, text, kind)
    assert outcome[0] is csv.Error and "new-line character seen in unquoted field" in outcome[1]
    assert outcome == _rows_outcome(_reference_rows, text, kind)


def test_read_rows_field_size_limit():
    text = "timestamp_ns,monitor,peer_id,kind\n1," + "m" * 40 + ",p,k\n"
    saved = csv.field_size_limit()
    try:
        csv.field_size_limit(39)
        outcome = _rows_outcome(_read_rows, text, "bytes")
        assert outcome == (csv.Error, "field larger than field limit (39)")
        csv.field_size_limit(40)
        assert _rows_outcome(_read_rows, text, "bytes") == [(2, ["1", "m" * 40, "p", "k"])]
    finally:
        csv.field_size_limit(saved)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("cls, build, make", [
    (TraceRecord, build_trace_record, _random_record),
    (ConnEvent, build_conn_event,
     lambda rng: ConnEvent(rng.randrange(10**15), "m0", NodeId.generate(rng),
                           ConnEventKind.CONNECT)),
], ids=["TraceRecord", "ConnEvent"])
def test_built_records_match_init(cls, build, make):
    rng = random.Random(21)
    first = dataclasses.fields(cls)[0].name
    for _ in range(20):
        made = make(rng)
        values = [getattr(made, f.name) for f in dataclasses.fields(cls)]
        built = build(*values)
        assert type(built) is cls
        assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
        for other in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
            assert type(other) is cls and other == made
        assert dataclasses.replace(built, **{first: 7}) == dataclasses.replace(made, **{first: 7})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, first, 0)
        assert getattr(built, first) == getattr(made, first)
        assert _raised(setattr, built, "extra", 1) is _raised(setattr, made, "extra", 1)
    with pytest.raises(TypeError):
        build(*values[:-1])


def test_with_flags_leaves_its_record_alone():
    rng = random.Random(22)
    rec = dataclasses.replace(_random_record(rng), flags=1)
    before = copy.copy(rec)
    flagged = rec.with_flags(2)
    assert rec == before and rec.flags == 1
    assert flagged == dataclasses.replace(rec, flags=2)
    assert type(flagged) is TraceRecord and flagged is not rec
