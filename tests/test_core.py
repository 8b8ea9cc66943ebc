import copy
import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from swarmwatch.core import (
    DAG_CBOR,
    DAG_PROTOBUF,
    ID_SPACE,
    RAW,
    Cid,
    Codec,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
    read_conn_events,
    read_trace,
    write_conn_events,
    write_trace,
)
from swarmwatch.errors import TraceParseError


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


@given(x=st.integers(0, ID_SPACE - 1), j=st.integers(0, ID_SPACE - 1))
@settings(max_examples=50)
def test_xor_unidirectional(x, j):
    # for fixed x and distance j there is exactly one y with x ^ y == j
    y = x ^ j
    assert x ^ y == j
    assert NodeId(x).xor(NodeId(y)) == NodeId(j)


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
