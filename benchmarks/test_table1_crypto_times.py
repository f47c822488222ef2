"""Table I: hashing and signing time for the three representative data
types (Steering 20 B, Scan 8705 B, Image 921641 B).

Paper's numbers (PyCrypto on an i5-7260U):

    Steering:  hash 0.109 ms   hash+sign 3.042 ms
    Scan:      hash 0.201 ms   hash+sign 3.129 ms
    Image:     hash 2.638 ms   hash+sign 3.457 ms

Expected shape (what we validate): signing dominates and is nearly flat
across data sizes, because the RSA operation runs on the 32-byte digest
regardless of |D|; only the hashing component grows with |D|.

A second table compares the registered signature schemes (RSA-1024 vs
Ed25519) on sign/verify throughput, each beside the pure-Python code its
C path replaced (RSA on built-in ``pow``, Ed25519 on the reference in
``tests/crypto/reference_ed25519.py``).  A third times
``SignatureScheme.verify_batch`` -- the auditor's one verify path, the
loop for every scheme -- against the per-signature loop, on an all-valid
batch and on a batch in which every signature is forged, over two keys
(the audit corpus) and over 32 (a fleet).  Every saved row carries the
``cpu_count`` it was measured on.  Set ``REPRO_BENCH_SMOKE=1`` for a tiny
CI-sized workload.
"""

import os

import pytest

from benchmarks.harness import (
    Table,
    host_cpu_count,
    save_results,
    measure,
    PAPER_SIZES,
    paper_payloads,
)
from repro.crypto import bignum
from repro.crypto.hashing import data_digest
from repro.crypto.keys import generate_keypair
from tests.crypto import reference_ed25519

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Samples per measurement; the paper uses 3000.  Hashing is cheap enough
#: for the paper's count; signing gets fewer.
HASH_SAMPLES = 3000
SIGN_SAMPLES = 300

SCHEME_SAMPLES = 30 if SMOKE else 150
#: one audit pass of the spine's ``audit_ed25519`` corpus is ~200 triples
BATCH_TRIPLES = 48 if SMOKE else 200
BATCH_ROUNDS = 1 if SMOKE else 5
#: signatures the pure-Python reference verifies per measurement (~3 ms each)
REFERENCE_TRIPLES = 16 if SMOKE else 64
#: the fleet row: keys in rotation, two signatures each
FLEET_KEYS = 32

_results = {}
_scheme_results = {}
_batch_results = {}


@pytest.fixture(scope="module")
def payloads():
    return paper_payloads()


@pytest.mark.parametrize("type_name", list(PAPER_SIZES))
def test_hash_only(benchmark, payloads, type_name):
    payload = payloads[type_name]
    stats = measure(lambda: data_digest(1, payload), samples=HASH_SAMPLES)
    _results.setdefault(type_name, {})["hash_ms"] = stats.mean_ms
    _results[type_name]["hash_stdev_ms"] = stats.stdev_ms
    benchmark(data_digest, 1, payload)


@pytest.mark.parametrize("type_name", list(PAPER_SIZES))
def test_hash_and_sign(benchmark, bench_keys, payloads, type_name):
    payload = payloads[type_name]
    private = bench_keys[0].private

    def hash_and_sign():
        return private.sign_digest(data_digest(1, payload))

    stats = measure(hash_and_sign, samples=SIGN_SAMPLES)
    _results.setdefault(type_name, {})["hash_sign_ms"] = stats.mean_ms
    _results[type_name]["hash_sign_stdev_ms"] = stats.stdev_ms
    digest = data_digest(1, payload)
    stats = measure(lambda: private.sign_digest(digest), samples=SIGN_SAMPLES)
    _results[type_name]["sign_ms"] = stats.mean_ms
    benchmark(hash_and_sign)


def test_report_table1(benchmark, payloads):
    """Render the Table I analogue and check the paper's shape claims."""
    benchmark(lambda: None)  # keep this report under --benchmark-only
    table = Table(
        "Table I -- hashing and signing time per data type (RSA-1024, SHA-256)",
        ["Type", "Size (B)", "Hash only (ms)", "Hash+Sign (ms)", "Sign only (ms)"],
    )
    for type_name, size in PAPER_SIZES.items():
        row = _results[type_name]
        table.add_row(
            type_name, size, row["hash_ms"], row["hash_sign_ms"], row["sign_ms"]
        )
    table.show()
    save_results("table1", _results)

    # Shape 1: signing cost dwarfs hashing for small payloads.
    assert _results["Steering"]["hash_sign_ms"] > 5 * _results["Steering"]["hash_ms"]
    # Shape 2: hash time grows with size; Image hashing is the big one.
    assert _results["Image"]["hash_ms"] > 5 * _results["Steering"]["hash_ms"]
    # Shape 3: signing is ~flat across sizes -- within 40% between
    # Steering's digest and Image's (each timed alone, not as the
    # difference of two means that each carry the hash's noise).
    sign_small = _results["Steering"]["sign_ms"]
    sign_large = _results["Image"]["sign_ms"]
    assert abs(sign_large - sign_small) / sign_small < 0.4


# --------------------------------------------------------------------------
# Signature-scheme comparison and batched verification
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scheme_pairs():
    """One seeded key pair per registered scheme, paper-sized for RSA."""
    return {
        "rsa": generate_keypair(1024, seed=90210, scheme="rsa"),
        "ed25519": generate_keypair(seed=90210, scheme="ed25519"),
    }


def _scheme_row(scheme):
    return _scheme_results.setdefault(scheme, {"cpu_count": host_cpu_count()})


@pytest.mark.parametrize("scheme", ["rsa", "ed25519"])
def test_scheme_sign(benchmark, scheme_pairs, payloads, scheme, monkeypatch):
    private = scheme_pairs[scheme].private
    digest = data_digest(1, payloads["Steering"])
    stats = measure(lambda: private.sign_digest(digest), samples=SCHEME_SAMPLES)
    row = _scheme_row(scheme)
    row["sign_ms"] = stats.mean_ms
    row["sign_per_s"] = 1000.0 / stats.mean_ms
    benchmark(private.sign_digest, digest)
    if scheme == "rsa":
        # the same signatures on built-in pow, the reference the OpenSSL
        # exponentiation kernel replaces
        expected = private.sign_digest(digest)
        monkeypatch.setattr(bignum, "_lib", False)
        assert private.sign_digest(digest) == expected
        stats = measure(lambda: private.sign_digest(digest), samples=SCHEME_SAMPLES)
        row["sign_pow_ms"] = stats.mean_ms
    else:
        # the same signature from the pure-Python reference
        secret = private.numbers.secret
        assert reference_ed25519.sign(secret, digest) == private.sign_digest(digest)
        stats = measure(
            lambda: reference_ed25519.sign(secret, digest),
            samples=max(1, SCHEME_SAMPLES // 10),
        )
        row["sign_reference_ms"] = stats.mean_ms


@pytest.mark.parametrize("scheme", ["rsa", "ed25519"])
def test_scheme_verify(benchmark, scheme_pairs, payloads, scheme):
    pair = scheme_pairs[scheme]
    digest = data_digest(1, payloads["Steering"])
    signature = pair.private.sign_digest(digest)
    assert pair.public.verify_digest(digest, signature)
    stats = measure(
        lambda: pair.public.verify_digest(digest, signature),
        samples=SCHEME_SAMPLES,
    )
    row = _scheme_row(scheme)
    row["verify_ms"] = stats.mean_ms
    row["verify_per_s"] = 1000.0 / stats.mean_ms
    benchmark(pair.public.verify_digest, digest, signature)
    if scheme == "ed25519":
        point = pair.public.numbers.point
        assert reference_ed25519.verify(point, digest, signature)
        stats = measure(
            lambda: reference_ed25519.verify(point, digest, signature),
            samples=max(1, SCHEME_SAMPLES // 10),
        )
        row["verify_reference_ms"] = stats.mean_ms


def _signed_batch(pairs, count):
    """``count`` valid triples over ``pairs`` in rotation, and the same
    triples with one bit of every ``S`` flipped."""
    valid, forged = [], []
    for i in range(count):
        pair = pairs[i % len(pairs)]
        digest = data_digest(i, b"batch-%d" % i)
        signature = pair.private.sign_digest(digest)
        valid.append((pair.public.numbers, digest, signature))
        broken = bytearray(signature)
        broken[-2] ^= 0x01
        forged.append((pair.public.numbers, digest, bytes(broken)))
    return valid, forged


def _time_batch(backend, valid, forged):
    """Per-signature times of the loop, the batch and the all-forged
    batch, after checking all three give the loop's booleans."""

    def singles(items):
        return [backend.verify_digest(*item) for item in items]

    count = len(valid)
    assert backend.verify_batch(valid) == singles(valid) == [True] * count
    assert backend.verify_batch(forged) == singles(forged) == [False] * count
    per_sig = {
        name: measure(call, samples=BATCH_ROUNDS).mean_ms / count
        for name, call in (
            ("single_ms", lambda: singles(valid)),
            ("batch_ms", lambda: backend.verify_batch(valid)),
            ("batch_all_forged_ms", lambda: backend.verify_batch(forged)),
        )
    }
    return {
        "triples": count,
        "keys": len({item[0] for item in valid}),
        "speedup": per_sig["single_ms"] / per_sig["batch_ms"],
        "cpu_count": host_cpu_count(),
        **per_sig,
    }


def _time_reference(valid):
    """Per-signature time of the pure-Python reference on (a prefix of)
    the same valid triples."""
    items = [(m.point, d, s) for m, d, s in valid[:REFERENCE_TRIPLES]]
    assert all(reference_ed25519.verify(*item) for item in items)
    stats = measure(
        lambda: [reference_ed25519.verify(*item) for item in items],
        samples=1,
        warmup=0,
    )
    return stats.mean_ms / len(items)


@pytest.mark.parametrize("scheme", ["rsa", "ed25519"])
def test_verify_batch(benchmark, scheme_pairs, scheme):
    """``verify_batch`` vs the loop of ``verify_digest``, per signature,
    over two keys like the audit corpus.  The forged batch flips one bit
    of every ``S``."""
    benchmark(lambda: None)  # keep this report under --benchmark-only
    pairs = [scheme_pairs[scheme], generate_keypair(1024, seed=90211, scheme=scheme)]
    valid, forged = _signed_batch(pairs, BATCH_TRIPLES)
    row = _batch_results[scheme] = _time_batch(pairs[0].public.scheme, valid, forged)
    if scheme == "ed25519":
        row["reference_ms"] = _time_reference(valid)
        # the batch is the loop: a forged signature costs what a valid one
        # does, with no bisection behind it
        assert row["batch_all_forged_ms"] < 2 * row["batch_ms"]
        # the speed is libcrypto's, not a batch's: at least 10x the same
        # signatures on the pure-Python reference in this run
        assert row["reference_ms"] >= 10 * row["batch_ms"]


def test_verify_batch_fleet(benchmark):
    """The same over 32 Ed25519 keys in rotation: with no per-key state,
    a fleet costs per signature what two keys do."""
    benchmark(lambda: None)  # keep this report under --benchmark-only
    pairs = [
        generate_keypair(seed=90300 + i, scheme="ed25519") for i in range(FLEET_KEYS)
    ]
    valid, forged = _signed_batch(pairs, 2 * FLEET_KEYS)
    row = _time_batch(pairs[0].public.scheme, valid, forged)
    row["reference_ms"] = _time_reference(valid)
    _batch_results[f"ed25519, {FLEET_KEYS} keys"] = row
    assert row["keys"] == FLEET_KEYS
    assert row["reference_ms"] >= 10 * row["batch_ms"]


def test_report_schemes(benchmark):
    """Render the per-scheme table and pin the cheap shape claim."""
    benchmark(lambda: None)  # keep this report under --benchmark-only
    table = Table(
        "Signature schemes -- sign/verify per op (32-byte digest)",
        ["Scheme", "Sign (ms)", "Sign/s", "Verify (ms)", "Verify/s"],
    )
    for scheme in ("rsa", "ed25519"):
        row = _scheme_results[scheme]
        table.add_row(
            scheme,
            row["sign_ms"],
            row["sign_per_s"],
            row["verify_ms"],
            row["verify_per_s"],
        )
    table.add_row(
        "rsa on pow", _scheme_results["rsa"]["sign_pow_ms"],
        1000.0 / _scheme_results["rsa"]["sign_pow_ms"], "-", "-",
    )
    ed = _scheme_results["ed25519"]
    table.add_row(
        "ed25519 reference (Python)",
        ed["sign_reference_ms"], 1000.0 / ed["sign_reference_ms"],
        ed["verify_reference_ms"], 1000.0 / ed["verify_reference_ms"],
    )
    order = sorted(("rsa", "ed25519"), key=lambda s: _scheme_results[s]["sign_ms"])
    _scheme_results["sign_order"] = order
    table.add_row("faster signer", order[0], "-", "-", "-")
    table.show()
    batch_table = Table(
        "verify_batch vs per-signature verify_digest (ms per signature)",
        ["Scheme", "Keys", "Triples", "Single", "Batch", "Speedup",
         "Batch, all forged", "Reference (Python)", "CPUs"],
    )
    for scheme, row in _batch_results.items():
        batch_table.add_row(
            scheme, row["keys"], row["triples"], row["single_ms"],
            row["batch_ms"], row["speedup"], row["batch_all_forged_ms"],
            row.get("reference_ms", "-"), row["cpu_count"],
        )
    batch_table.show()
    _scheme_results["verify_batch"] = _batch_results
    save_results("crypto_schemes", _scheme_results)

    # RSA's two CRT exponentiations run on OpenSSL's bignum, at least 5x
    # faster than the same signatures on built-in pow in this run.
    rsa = _scheme_results["rsa"]
    assert rsa["sign_pow_ms"] >= 5 * rsa["sign_ms"]
    # Ed25519 signs on libcrypto, at least 5x faster than the same
    # signatures from the pure-Python reference in this run.
    assert ed["sign_reference_ms"] >= 5 * ed["sign_ms"]
