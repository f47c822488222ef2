"""``WireMessage.decode`` against the generic reference decoder.

The table-driven decoder must be indistinguishable from
``reference_decode``: on seeded mutations (bit flip / truncate / insert)
of real protocol messages the two return equal values or raise
``DecodingError`` with the same text.  One test also pins the seam the
benchmark's tracer rebinds: ``encode`` / ``decode`` exist once, on
``WireMessage`` itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import AdlpAck, AdlpMessage
from repro.core.remote import LoggerRequest, LoggerResponse
from repro.errors import DecodingError
from repro.middleware.messages import Header
from repro.middleware.msgtypes import RawBytes
from repro.serialization import WireMessage

from .reference_decode import reference_decode
from .test_schema import Color, Inner, Sample

MUTATIONS_PER_CLASS = 3_500

#: ``LoggerRequest`` field 8 (the retired shard tag) as varint 3.
RETIRED_SHARD_TAG = b"\x40\x03"


def _entry(rng: random.Random, seq: int, aggregated: bool = False) -> LogEntry:
    entry = LogEntry(
        component_id="/camera",
        topic="/image",
        type_name="std/RawBytes",
        direction=Direction.OUT if seq % 2 else Direction.IN,
        seq=seq,
        timestamp=1_700_000_000.25 + seq,
        scheme=Scheme.ADLP,
        data=rng.randbytes(rng.choice([0, 20, 200])),
        data_hash=rng.randbytes(32),
        own_sig=rng.randbytes(128),
        peer_id="/planner",
        peer_hash=rng.randbytes(32),
        peer_sig=rng.randbytes(128),
    )
    if aggregated:
        entry.aggregated = True
        entry.ack_peer_ids = ["/a", "/b", ""]
        entry.ack_peer_hashes = [rng.randbytes(32), b"", rng.randbytes(32)]
        entry.ack_peer_sigs = [rng.randbytes(64) for _ in range(3)]
    return entry


def _seeds(rng: random.Random):
    """Real messages of every class on the logger's and the links' paths."""
    entries = [_entry(rng, seq, aggregated=seq == 3) for seq in range(1, 5)]
    records = [entry.encode() for entry in entries]
    return {
        LogEntry: records,
        LoggerRequest: [
            LoggerRequest(op=9, component_id="/camera", entry_batch=[records[0]],
                          sync=True, corr_id=7).encode(),
            # a frame still carrying the retired shard tag (field 8)
            LoggerRequest(op=9, entry_batch=records).encode() + RETIRED_SHARD_TAG
            + LoggerRequest(deadline_ms=250, corr_id=300).encode(),
            LoggerRequest(op=5, start=128, count=64, proof_index=1 << 40).encode(),
        ],
        LoggerResponse: [
            LoggerResponse(ok=True, entries=4, chain_head=rng.randbytes(32),
                           merkle_root=rng.randbytes(32), total_bytes=1 << 33,
                           records=records, corr_id=300).encode(),
            LoggerResponse(error="busy", code=17,
                           key_ids=["/camera", "/planner"],
                           key_blobs=[rng.randbytes(140), rng.randbytes(33)],
                           stats_json='{"ingested": 4, "né": 1}').encode(),
            LoggerResponse(ok=True, proof_hashes=[rng.randbytes(32) for _ in range(9)],
                           proof_flags=bytes(9), proof_index=5, proof_tree_size=300,
                           proof_old_size=17, sth_bytes=rng.randbytes(90)).encode(),
        ],
        AdlpMessage: [
            AdlpMessage(seq=seq, payload=rng.randbytes(size),
                        signature=rng.randbytes(128)).encode()
            for seq, size in ((1, 0), (2, 20), (1 << 35, 700))
        ],
        AdlpAck: [
            AdlpAck(seq=9, data_hash=rng.randbytes(32),
                    signature=rng.randbytes(128)).encode(),
            AdlpAck(seq=10, signature=rng.randbytes(64), returns_data=True,
                    payload=rng.randbytes(50)).encode(),
        ],
        RawBytes: [
            RawBytes(header=Header(seq=3, stamp=12.5, frame_id="cam"),
                     data=rng.randbytes(300)).encode(),
            RawBytes(data=b"x").encode(),
        ],
        # every field kind the protocol classes do not use (sint64, double,
        # enum and nested message beside repeated varints)
        Sample: [
            Sample(count=7, delta=-42, ratio=2.5, flag=True, name="héllo",
                   blob=b"\x00\x01", color=Color.BLUE,
                   inner=Inner(value=5, label="in"), tags=["a", "", "c"],
                   values=[0, 1, 1 << 63]).encode(),
        ],
    }


def _mutate(rng: random.Random, raw: bytes) -> bytes:
    data = bytearray(raw)
    for _ in range(rng.choice([1, 1, 2, 3])):
        how = rng.randrange(3)
        if how == 0 and data:  # flip one bit
            at = rng.randrange(len(data))
            data[at] ^= 1 << rng.randrange(8)
        elif how == 1 and data:  # truncate
            del data[rng.randrange(len(data)):]
        else:  # insert 1..4 bytes, biased to tag / varint-continuation bytes
            at = rng.randrange(len(data) + 1)
            data[at:at] = bytes(
                rng.choice([0x00, 0x07, 0x80, 0xFF, rng.randrange(256)])
                for _ in range(rng.randrange(1, 5))
            )
    return bytes(data)


def _outcome(decode, data: bytes):
    try:
        return "value", decode(data)
    except DecodingError as exc:
        return "error", str(exc)


def _assert_same_value(fast, slow) -> None:
    assert fast == slow
    # ``==`` compares field values; also pin their types (``True == 1``)
    # and that nothing beyond the declared fields was set
    assert fast.__dict__.keys() == slow.__dict__.keys()
    for name, value in fast.__dict__.items():
        assert type(value) is type(slow.__dict__[name]), name


def test_table_decoder_matches_reference_on_mutations():
    rng = random.Random(0xADB1)
    checked = errors = 0
    for cls, raws in _seeds(rng).items():
        for raw in raws:
            assert _outcome(cls.decode, raw) == _outcome(
                lambda d: reference_decode(cls, d), raw
            )
        for _ in range(MUTATIONS_PER_CLASS):
            data = _mutate(rng, rng.choice(raws))
            kind, fast = _outcome(cls.decode, data)
            slow_kind, slow = _outcome(lambda d: reference_decode(cls, d), data)
            assert kind == slow_kind, (cls.__name__, data.hex(), fast, slow)
            if kind == "error":
                assert fast == slow, (cls.__name__, data.hex())
                errors += 1
            else:
                _assert_same_value(fast, slow)
            checked += 1
    assert checked >= 20_000
    # the mutations must reach both outcomes, or the comparison is vacuous
    assert checked // 10 < errors < checked - checked // 10


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\x08", "truncated varint"),
        (b"\x08" + b"\xff" * 10 + b"\x01", "varint longer than 10 bytes"),
        (b"\x80", "truncated varint"),
        (b"\x2a\x05ab", "truncated length-delimited payload"),
        (b"\x19\x00\x00", "truncated double"),
        (b"\x2a\x02\xff\xfe", "field 5: invalid UTF-8"),
        (b"\x38\x09", "field 7: 9 is not a valid Color"),
        (b"\x00", "field number must be positive"),
        (b"\x0b", "unknown wire type 3"),
        (b"\x0a\x01a", "field 1 (count): expected wire type VARINT, got LEN"),
        (b"\x48\x01", "field 9 (tags): expected wire type LEN, got VARINT"),
        (b"\x40\x01", "field 8: nested messages use LEN"),
        (b"\x42\x02\x08", "truncated length-delimited payload"),
    ],
)
def test_every_rejection_is_kept(data, message):
    with pytest.raises(DecodingError) as fast:
        Sample.decode(data)
    with pytest.raises(DecodingError) as slow:
        reference_decode(Sample, data)
    assert str(fast.value) == str(slow.value) == message


def test_unknown_fields_are_skipped():
    known = Sample(count=3, name="n").encode()
    # field 31 as varint, I64, LEN and I32, one between and around the known
    unknown = b"\xf8\x01\x96\x01" + b"\xf9\x01" + bytes(8) + b"\xfa\x01\x02hi" + b"\xfd\x01" + bytes(4)
    data = unknown + known[:2] + unknown + known[2:] + unknown
    assert Sample.decode(data) == reference_decode(Sample, data) == Sample(count=3, name="n")


def test_retired_shard_tag_is_skipped():
    """A frame from a client that still tags shards (bytes encoded when
    field 8 existed) decodes as the untagged request, in both decoders."""
    tagged = bytes.fromhex("08063a057265632d31400350fa0170ac02")
    untagged = LoggerRequest(
        op=6, entry_batch=[b"rec-1"], deadline_ms=250, corr_id=300
    )
    assert RETIRED_SHARD_TAG in tagged
    assert LoggerRequest.decode(tagged) == untagged
    assert reference_decode(LoggerRequest, tagged) == untagged
    assert untagged.encode() == tagged.replace(RETIRED_SHARD_TAG, b"")


def test_repeated_field_appends_to_a_private_list():
    raw = Sample(values=[1, 2, 3]).encode()
    first, second = Sample.decode(raw), Sample.decode(raw)
    first.values.append(4)
    assert second.values == [1, 2, 3]
    assert Sample().values == []


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_encode_and_decode_exist_once():
    """The benchmark's tracer rebinds ``WireMessage.__dict__["decode"]`` and
    ``WireMessage.encode``; a subclass with its own would escape it."""
    assert isinstance(WireMessage.__dict__["decode"], classmethod)
    subclasses = list(_all_subclasses(WireMessage))
    assert len(subclasses) > 20
    for sub in subclasses:
        assert "encode" not in vars(sub), sub
        assert "decode" not in vars(sub), sub
