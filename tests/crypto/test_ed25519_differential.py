"""The libcrypto binding against the pure-Python reference.

:mod:`repro.crypto.ed25519` signs and verifies through OpenSSL;
``reference_ed25519`` is RFC 8032 written out in Python.  Here the two
must produce byte-identical public keys and signatures, and the same
verdict on honest signatures and on every malformation a hostile peer can
send that does not involve a small-order component: bit flips, wrong keys
and lengths, ``S >= L``, non-canonical ``R``, off-curve keys, and the two
key encodings OpenSSL 3.0 decodes leniently (``y >= p`` and ``-0``).  The
inputs where the two equations part ways (small-order components) are
pinned in ``test_verify_batch.py::TestSmallOrder``; keys of small order are
refused at decode, which is checked here.
"""

import random

import pytest

from repro.crypto import ed25519
from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.crypto.schemes import KEY_TAG_MAGIC, get_scheme
from repro.errors import DecodingError
from tests.crypto import reference_ed25519 as reference
from tests.crypto.test_ed25519_vectors import VECTORS
from tests.crypto.test_verify_batch import small_order_points

KEYS = 20
MESSAGES = 200

#: the identity's encoding: ``R = identity, S = 0`` is what a key that
#: decodes to a small-order point accepts
IDENTITY = (1).to_bytes(32, "little")
FORGERY = IDENTITY + bytes(32)

#: encodings OpenSSL 3.0 decodes and the reference refuses
LENIENT_KEYS = {
    "y = p + 1": (ed25519.P + 1).to_bytes(32, "little"),
    "y = p": ed25519.P.to_bytes(32, "little"),
    "-0, y = 1": (1 | 1 << 255).to_bytes(32, "little"),
    "-0, y = -1": (ed25519.P - 1 | 1 << 255).to_bytes(32, "little"),
}


def _both(public, message, signature):
    """(binding, reference) verdicts on one input."""
    return (
        ed25519.verify(public, message, signature),
        reference.verify(public, message, signature),
    )


@pytest.fixture(scope="module")
def corpus(deterministic_seed):
    """20 seeded keys, 200 messages in rotation over them, each signed by
    both implementations."""
    rng = random.Random(deterministic_seed)
    secrets = [ed25519.generate_secret(deterministic_seed + 900 + i) for i in range(KEYS)]
    publics = [ed25519.public_from_secret(secret) for secret in secrets]
    assert publics == [reference.public_from_secret(secret) for secret in secrets]
    items = []
    for i in range(MESSAGES):
        message = rng.randbytes(rng.choice((0, 1, 32, 100)))
        signature = ed25519.sign(secrets[i % KEYS], message)
        assert signature == reference.sign(secrets[i % KEYS], message), i
        items.append((publics[i % KEYS], message, signature))
    return publics, items


@pytest.mark.parametrize("vector", VECTORS, ids=[v[0] for v in VECTORS])
def test_rfc8032_vectors_on_both(vector):
    _, secret, public, message, signature = vector
    secret, public, signature = map(bytes.fromhex, (secret, public, signature))
    for implementation in (ed25519, reference):
        assert implementation.public_from_secret(secret) == public
        assert implementation.sign(secret, message) == signature
    assert _both(public, message, signature) == (True, True)
    assert _both(public, message + b"x", signature) == (False, False)


def test_seeded_corpus_verifies_on_both(corpus):
    _, items = corpus
    assert len({public for public, _, _ in items}) == KEYS
    for item in items:
        assert _both(*item) == (True, True)


def test_bit_flips(corpus, deterministic_seed):
    rng = random.Random(deterministic_seed)
    _, items = corpus
    for public, message, signature in items:
        flipped = bytearray(signature)
        flipped[rng.randrange(64)] ^= 1 << rng.randrange(8)
        assert _both(public, message, bytes(flipped)) == (False, False)
        if message:
            altered = bytearray(message)
            altered[rng.randrange(len(message))] ^= 1 << rng.randrange(8)
            assert _both(public, bytes(altered), signature) == (False, False)


def test_wrong_keys(corpus):
    publics, items = corpus
    for i, (public, message, signature) in enumerate(items[:60]):
        other = publics[(i + 1 + i // KEYS) % KEYS]
        assert other != public
        assert _both(other, message, signature) == (False, False)


def test_wrong_lengths(corpus):
    public, message, signature = corpus[1][0]
    for bad_public, bad_signature in (
        (public, signature[:-1]),
        (public, signature + b"\x00"),
        (public, b""),
        (public[:-1], signature),
        (public + b"\x00", signature),
        (b"", signature),
    ):
        assert _both(bad_public, message, bad_signature) == (False, False)


def test_s_out_of_range(corpus):
    for public, message, signature in corpus[1][:20]:
        s = int.from_bytes(signature[32:], "little")
        for bad in (s + reference.L, reference.L, 2**256 - 1):
            forged = signature[:32] + bad.to_bytes(32, "little")
            assert _both(public, message, forged) == (False, False)


def test_noncanonical_r(corpus):
    public, message, signature = corpus[1][0]
    for r in (
        (ed25519.P + 1).to_bytes(32, "little"),  # the identity, y >= p
        (1 | 1 << 255).to_bytes(32, "little"),  # the identity as -0
        (2).to_bytes(32, "little"),  # off the curve
    ):
        assert _both(public, message, r + signature[32:]) == (False, False)
        assert _both(public, message, r + bytes(32)) == (False, False)


def test_off_curve_key(corpus):
    _, message, signature = corpus[1][0]
    off_curve = (2).to_bytes(32, "little")
    assert not ed25519.is_valid_public(off_curve)
    assert _both(off_curve, message, signature) == (False, False)
    assert _both(off_curve, message, FORGERY) == (False, False)


@pytest.mark.parametrize("name", list(LENIENT_KEYS))
def test_lenient_key_encodings_are_refused(name):
    """Each of these decodes in OpenSSL 3.0 to a small-order point, under
    which ``R = identity, S = 0`` verifies; the binding refuses the
    encoding before it reaches libcrypto, as the reference does."""
    public = LENIENT_KEYS[name]
    for message in (b"", b"a", b"b", b"c", sha256(b"any")):
        assert _both(public, message, FORGERY) == (False, False)
    assert not ed25519.is_valid_public(public)


class TestSmallOrderKeys:
    def test_identity_key_accepts_the_trivial_forgery(self):
        """Why small-order keys must be refused at decode: under the
        identity key, both equations accept ``R = identity, S = 0`` on
        every message."""
        for message in (b"", b"a", sha256(b"any")):
            assert _both(IDENTITY, message, FORGERY) == (True, True)

    def test_the_eight_small_order_encodings_are_refused(self):
        tag = bytes((KEY_TAG_MAGIC, get_scheme("ed25519").tag))
        encodings = {reference.point_compress(p) for p in small_order_points()}
        assert IDENTITY in encodings and len(encodings) == 8
        for encoding in encodings:
            assert not ed25519.is_valid_public(encoding)
            with pytest.raises(DecodingError):
                PublicKey.from_bytes(tag + encoding)

    def test_keys_of_large_order_are_accepted(self, corpus):
        publics, _ = corpus
        scheme = get_scheme("ed25519")
        for public in publics:
            assert scheme.public_from_bytes(public).point == public
