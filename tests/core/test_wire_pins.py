"""Byte pins for the logger link and signed tree heads.

Topic sharding retired three wire fields: ``LoggerRequest`` field 8 (the
shard tag), ``LoggerResponse`` field 10 (the shard count) and
``SignedTreeHead`` field 6 (the scope).  Untagged frames and whole-log
heads never carried them, so their bytes must not move: a peer on either
side of the removal decodes the other's frames, and a head signed on one
side verifies on the other.  The hex below was produced by the encoder
that still had those fields.
"""

from repro.core.remote import (
    OP_STH,
    OP_SUBMIT_BATCH,
    LoggerRequest,
    LoggerResponse,
)
from repro.crypto.keys import PublicKey, generate_keypair
from repro.gossip.sth import SignedTreeHead, issue_sth

SUBMIT = "080612042f63616d3a057265632d313a057265632d32480150fa017007"
STH_REQUEST = "080c7009"
HEALTH_REPLY = (
    "080118042220000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d"
    "1e1f2a20202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
    "30808040a80107"
)
STH_PAYLOAD = (
    "726570726f2e676f737369702e7374682e7631000000076c6f672d70696e0000000000"
    "00000c000000000000000000000020111111111111111111111111111111111111111111"
    "111111111111111111111100000020222222222222222222222222222222222222222222"
    "222222222222222222222241d954fc40200000"
)
STH_BYTES = (
    "0a076c6f672d70696e100c1a20111111111111111111111111111111111111111111111111"
    "11111111111111112220222222222222222222222222222222222222222222222222222222"
    "22222222222900002040fc54d9413a10306337663030386139363331386439664240b62787"
    "21a61f1f5a291c9cf5b4c1efca6361b0bf0cc0ef87943a15041a539b5f1957478dc0378884"
    "a735d7949bf6c10e493d220962d87faf88f34c81356f630d"
)
#: The Ed25519 key (test seed 41) that signed ``STH_BYTES``.
STH_KEY = "a502804280a287b4e2d1e7b52e79fbc3c580406ee25d18298fcfddc3bafe1621fc05"


def _sth() -> SignedTreeHead:
    keys = generate_keypair(seed=41, scheme="ed25519")
    assert keys.public.to_bytes().hex() == STH_KEY
    return issue_sth(
        keys.private, "log-pin", 12, b"\x11" * 32, b"\x22" * 32,
        timestamp=1_700_000_000.5,
    )


def test_untagged_submit_request_bytes():
    request = LoggerRequest(
        op=OP_SUBMIT_BATCH, component_id="/cam",
        entry_batch=[b"rec-1", b"rec-2"], sync=True, deadline_ms=250, corr_id=7,
    )
    assert request.encode().hex() == SUBMIT
    assert LoggerRequest.decode(bytes.fromhex(SUBMIT)) == request


def test_sth_request_bytes():
    assert LoggerRequest(op=OP_STH, corr_id=9).encode().hex() == STH_REQUEST


def test_health_reply_bytes():
    reply = LoggerResponse(
        ok=True, entries=4, chain_head=bytes(range(32)),
        merkle_root=bytes(range(32, 64)), total_bytes=1 << 20, corr_id=7,
    )
    assert reply.encode().hex() == HEALTH_REPLY
    assert LoggerResponse.decode(bytes.fromhex(HEALTH_REPLY)) == reply


def test_unsharded_sth_signing_payload_and_bytes():
    sth = _sth()
    assert sth.signing_payload().hex() == STH_PAYLOAD
    assert sth.to_bytes().hex() == STH_BYTES


def test_head_signed_before_the_removal_verifies():
    sth = SignedTreeHead.from_bytes(bytes.fromhex(STH_BYTES))
    assert sth.verify(PublicKey.from_bytes(bytes.fromhex(STH_KEY)))
    assert sth.entries == 12 and sth.log_id == "log-pin"
