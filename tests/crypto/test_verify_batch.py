"""Batch verification must be indistinguishable from single verification.

ADLP's signers are the adversaries: a signature that one verification
path accepts and another rejects is a verdict that depends on who audits.
So ``SignatureScheme.verify_batch`` is held, element by element, to the
loop of ``verify_digest`` -- on honest signatures, on every malformation
the decoders reject, and on the inputs built to split cofactored from
cofactorless Ed25519 verification (small-order components in ``R`` and
``A``).  Everything is seeded: the batch coefficients come from a
transcript of the batch, so a failure replays exactly.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import ed25519
from repro.crypto.hashing import sha256
from repro.crypto.keys import generate_keypair
from repro.crypto.rsa import RsaPublicNumbers
from repro.crypto.schemes import Ed25519Public, get_scheme
from tests.crypto.test_ed25519_vectors import VECTORS

KEYS = 5
MESSAGES = 4

#: mutations a triple may carry; the scheme-specific ones fall back to a
#: bit flip under the other scheme
MUTATIONS = [
    "valid",
    "valid",  # weighted: a batch of nothing but garbage never reaches the
    "valid",  # combined equation's accepting branch
    "bit_flip",
    "wrong_key",
    "wrong_digest",
    "truncated",
    "extended",
    "noncanonical_s",
    "off_curve_r",
    "negative_zero_r",
    "off_curve_key",
    "negative_zero_key",
]

OFF_CURVE = (2).to_bytes(32, "little")  # y = 2: no matching x
NEGATIVE_ZERO = (1 | (1 << 255)).to_bytes(32, "little")  # y = 1, x = -0


@pytest.fixture(scope="module")
def corpus(deterministic_seed):
    """Per scheme: key pairs, digests and the honest signature of every
    (key, digest) pair -- signed once, mutated per example."""
    digests = [sha256(b"message-%d" % m) for m in range(MESSAGES)]
    out = {}
    for name in ("rsa", "ed25519"):
        pairs = [
            generate_keypair(512, seed=deterministic_seed + 300 + i, scheme=name)
            for i in range(KEYS)
        ]
        signatures = {
            (k, m): pairs[k].private.sign_digest(digests[m])
            for k in range(KEYS)
            for m in range(MESSAGES)
        }
        out[name] = (pairs, digests, signatures)
    return out


def _mutate(name, corpus, key, message, mutation, position):
    """One ``(public material, digest, signature)`` triple."""
    pairs, digests, signatures = corpus[name]
    material = pairs[key].public.numbers
    digest = digests[message]
    signature = signatures[(key, message)]
    if mutation == "wrong_key":
        material = pairs[(key + 1) % KEYS].public.numbers
    elif mutation == "wrong_digest":
        digest = digests[(message + 1) % MESSAGES]
    elif mutation == "truncated":
        signature = signature[: position % len(signature)]
    elif mutation == "extended":
        signature = signature + bytes([position % 256])
    elif mutation == "noncanonical_s" and name == "ed25519":
        s = int.from_bytes(signature[32:], "little") + ed25519.L
        signature = signature[:32] + s.to_bytes(32, "little")
    elif mutation == "noncanonical_s":
        # the RSA analogue: the same residue, one modulus higher
        s = int.from_bytes(signature, "big") + material.n
        signature = s.to_bytes(len(signature) + 1, "big")[-len(signature):]
    elif mutation == "off_curve_r" and name == "ed25519":
        signature = OFF_CURVE + signature[32:]
    elif mutation == "negative_zero_r" and name == "ed25519":
        signature = NEGATIVE_ZERO + signature[32:]
    elif mutation == "off_curve_key" and name == "ed25519":
        material = Ed25519Public(OFF_CURVE)
    elif mutation == "negative_zero_key" and name == "ed25519":
        material = Ed25519Public(NEGATIVE_ZERO)
    elif mutation != "valid":
        flipped = bytearray(signature)
        flipped[position % len(flipped)] ^= 1 << (position % 8)
        signature = bytes(flipped)
    return material, digest, signature


class TestDifferential:
    @pytest.mark.parametrize("name", ["rsa", "ed25519"])
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        keys=st.integers(1, KEYS),
        plan=st.lists(
            st.tuples(
                st.integers(0, KEYS - 1),
                st.integers(0, MESSAGES - 1),
                st.sampled_from(MUTATIONS),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_batch_equals_loop(self, name, corpus, keys, plan):
        scheme = get_scheme(name)
        items = [
            _mutate(name, corpus, key % keys, message, mutation, position)
            for key, message, mutation, position in plan
        ]
        singles = [scheme.verify_digest(*item) for item in items]
        assert scheme.verify_batch(items) == singles
        # "valid" plans do verify: the comparison is not False == False
        for item, step, single in zip(items, plan, singles):
            if step[2] == "valid":
                assert single

    def test_same_batch_same_booleans(self, corpus):
        """No RNG state: the coefficients are a function of the batch."""
        pairs, digests, signatures = corpus["ed25519"]
        items = [
            (pairs[k].public.numbers.point, digests[m], signatures[(k, m)])
            for k in range(KEYS)
            for m in range(MESSAGES)
        ]
        items[7] = (items[7][0], items[7][1], bytes(64))
        first = ed25519.verify_batch(items)
        assert first == ed25519.verify_batch(items)
        assert first == [i != 7 for i in range(len(items))]


def test_rfc8032_vectors_through_verify_batch():
    items = [
        (bytes.fromhex(public), message, bytes.fromhex(signature))
        for _, _, public, message, signature in VECTORS
    ]
    assert ed25519.verify_batch(items) == [True] * len(VECTORS)
    for broken in range(len(items)):
        public, message, signature = items[broken]
        batch = list(items)
        batch[broken] = (public, message + b"x", signature)
        assert ed25519.verify_batch(batch) == [
            i != broken for i in range(len(items))
        ]


# -- small-order components --------------------------------------------------

#: a point of order 8 (the torsion subgroup is cyclic: its multiples are
#: all eight small-order points)
ORDER_8 = bytes.fromhex(
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
)


def _small_order_points():
    generator = ed25519.point_decompress(ORDER_8)
    points, multiple = [], ed25519._NEUTRAL
    for _ in range(8):
        points.append(multiple)
        multiple = ed25519._point_add(multiple, generator)
    encodings = {ed25519.point_compress(p) for p in points}
    assert len(encodings) == 8  # distinct: the generator has order 8 ...
    assert ed25519.point_compress(multiple) in encodings  # ... exactly
    assert all(ed25519._is_small_order(p) for p in points)
    return points


def _sign_with_torsion(secret, message, r_torsion, a_torsion):
    """An Ed25519 signature by the holder of ``secret`` whose ``R`` and
    public key each carry a small-order component: ``S*B - R - h*A`` is a
    small-order point, not the neutral element, so only the cofactored
    equation accepts it."""
    digest = ed25519._sha512(secret)
    a = ed25519._clamp(digest[:32])
    public = ed25519.point_compress(
        ed25519._point_add(ed25519._base_mul(a), a_torsion)
    )
    r = int.from_bytes(ed25519._sha512(digest[32:], message), "little") % ed25519.L
    r_bytes = ed25519.point_compress(
        ed25519._point_add(ed25519._base_mul(r), r_torsion)
    )
    h = int.from_bytes(ed25519._sha512(r_bytes, public, message), "little") % ed25519.L
    s = (r + h * a) % ed25519.L
    return public, r_bytes + s.to_bytes(32, "little")


class TestSmallOrder:
    def test_torsion_in_r_and_a_single_equals_batch(self, deterministic_seed):
        torsion = _small_order_points()
        secret = ed25519.generate_secret(deterministic_seed)
        message = sha256(b"torsion")
        honest_public = ed25519.public_from_secret(secret)
        honest = (honest_public, message, ed25519.sign(secret, message))
        items = [honest]
        for point in torsion:
            public, signature = _sign_with_torsion(
                secret, message, point, ed25519._NEUTRAL
            )
            items.append((public, message, signature))  # torsion added to R
            public, signature = _sign_with_torsion(
                secret, message, ed25519._NEUTRAL, point
            )
            items.append((public, message, signature))  # torsion added to A
            # a small-order point *as* the key, R small-order too, S = 0
            items.append((ed25519.point_compress(point), message,
                          ed25519.point_compress(torsion[3]) + bytes(32)))
        singles = [ed25519.verify(*item) for item in items]
        # the cofactored equation accepts every one of them ...
        assert singles == [True] * len(items)
        # ... alone, together, and in any order, on every run
        rng = random.Random(deterministic_seed)
        for _ in range(4):
            assert ed25519.verify_batch(items) == singles
            for item in items:
                assert ed25519.verify_batch([item]) == [True]
            rng.shuffle(items)

    def test_torsion_does_not_rescue_a_forgery(self, deterministic_seed):
        torsion = _small_order_points()
        secret = ed25519.generate_secret(deterministic_seed + 1)
        message = sha256(b"forged")
        items = []
        for point in torsion:
            public, signature = _sign_with_torsion(secret, message, point, point)
            items.append((public, message + b"!", signature))
        assert [ed25519.verify(*item) for item in items] == [False] * 8
        assert ed25519.verify_batch(items) == [False] * 8


# -- attribution -------------------------------------------------------------


class TestAttribution:
    N = 80  # several bisection levels above the leaf size

    @pytest.fixture(scope="class")
    def signed(self, deterministic_seed):
        pairs = [
            generate_keypair(seed=deterministic_seed + 700 + i, scheme="ed25519")
            for i in range(3)
        ]
        items = []
        for i in range(self.N):
            pair = pairs[i % 3]
            digest = sha256(b"entry-%d" % i)
            items.append((pair.public.numbers, digest, pair.private.sign_digest(digest)))
        return items

    @pytest.mark.parametrize("forged", [0, 1, 2, N // 2, N])
    def test_exactly_the_forged_positions_are_false(
        self, signed, forged, deterministic_seed
    ):
        assert self.N > 4 * ed25519._BISECT_LEAF
        rng = random.Random(deterministic_seed + forged)
        positions = set(rng.sample(range(self.N), forged))
        items = list(signed)
        for position in positions:
            material, digest, signature = items[position]
            broken = bytearray(signature)
            broken[rng.randrange(64)] ^= 1 << rng.randrange(8)
            items[position] = (material, digest, bytes(broken))
        results = get_scheme("ed25519").verify_batch(items)
        assert results == [i not in positions for i in range(self.N)]


def test_rsa_default_is_the_loop(rsa_keypool):
    """RSA has no combined check: the default ``verify_batch`` is the
    loop, including for key material no signature can verify under."""
    scheme = get_scheme("rsa")
    digest = sha256(b"rsa")
    good = rsa_keypool[0].private.sign_digest(digest)
    items = [
        (rsa_keypool[0].public.numbers, digest, good),
        (rsa_keypool[1].public.numbers, digest, good),
        (rsa_keypool[0].public.numbers, digest[:-1], good),
        (RsaPublicNumbers(n=3, e=3), digest, b"\x01"),
    ]
    assert scheme.verify_batch(items) == [True, False, False, False]
