"""Ablation: RSA modulus size (the paper fixes 1024; §VI-E discusses
lightweight crypto as future work).

Measures signing/verification time and per-message byte overhead for
512/1024/2048-bit keys.  Expected: the exponentiations grow ~cubically with
the modulus (CRT halves are quadratic per multiply, linear in length count)
on top of a per-sign cost that does not depend on it (padding, integer
conversions, the calls into OpenSSL); signature bytes grow linearly
(64/128/256).
"""

import pytest

from benchmarks.harness import Table, save_results, measure
from repro.core.protocol import AdlpMessage, message_digest
from repro.crypto.bignum import modexp
from repro.crypto.keys import generate_keypair

KEY_BITS = [512, 1024, 2048]
PAYLOAD = b"p" * 8705  # Scan-sized

_results = {}


@pytest.fixture(scope="module")
def keys_by_bits():
    return {bits: generate_keypair(bits, seed=777 + bits) for bits in KEY_BITS}


@pytest.mark.parametrize("bits", KEY_BITS)
def test_sign_time(benchmark, keys_by_bits, bits):
    private = keys_by_bits[bits].private
    digest = message_digest(1, PAYLOAD)
    stats = measure(lambda: private.sign_digest(digest), samples=100)
    _results.setdefault(str(bits), {})["sign_ms"] = stats.mean_ms
    benchmark(private.sign_digest, digest)


@pytest.mark.parametrize("bits", KEY_BITS)
def test_exponentiation_time(benchmark, keys_by_bits, bits):
    # one CRT half of a sign, less a call with exponent 1 at the same prime:
    # what is left is the exponentiation proper, without the per-call cost
    # (integer conversions, contexts, the call into OpenSSL).  Fastest of
    # many calls, so scheduler noise does not enter the difference.
    numbers = keys_by_bits[bits].private.numbers
    base = int.from_bytes(message_digest(1, PAYLOAD), "big") % numbers.p
    half = measure(lambda: modexp(base, numbers.dp, numbers.p, True), samples=1000)
    call = measure(lambda: modexp(base, 1, numbers.p, True), samples=1000)
    _results.setdefault(str(bits), {})["exp_ms"] = (half.min - call.min) * 1e3
    benchmark(modexp, base, numbers.dp, numbers.p, True)


@pytest.mark.parametrize("bits", KEY_BITS)
def test_verify_time(benchmark, keys_by_bits, bits):
    pair = keys_by_bits[bits]
    digest = message_digest(1, PAYLOAD)
    signature = pair.private.sign_digest(digest)
    stats = measure(lambda: pair.public.verify_digest(digest, signature), samples=200)
    _results.setdefault(str(bits), {})["verify_ms"] = stats.mean_ms
    benchmark(pair.public.verify_digest, digest, signature)


@pytest.mark.parametrize("bits", KEY_BITS)
def test_message_overhead(benchmark, keys_by_bits, bits):
    pair = keys_by_bits[bits]
    digest = message_digest(1, PAYLOAD)
    signature = pair.private.sign_digest(digest)
    raw = AdlpMessage(seq=1, payload=PAYLOAD, signature=signature).encode()
    _results.setdefault(str(bits), {})["overhead_bytes"] = len(raw) - len(PAYLOAD)
    benchmark(lambda: AdlpMessage(seq=1, payload=PAYLOAD, signature=signature).encode())


def test_report_key_bits(benchmark, keys_by_bits):
    benchmark(lambda: None)
    table = Table(
        "Ablation -- RSA key size (Scan payload)",
        ["Bits", "Sign (ms)", "CRT half exp (ms)", "Verify (ms)", "Msg overhead (B)"],
    )
    for bits in KEY_BITS:
        row = _results[str(bits)]
        table.add_row(
            bits, row["sign_ms"], row["exp_ms"], row["verify_ms"], row["overhead_bytes"]
        )
    table.show()
    save_results("ablation_key_bits", _results)

    # signing grows superlinearly in modulus bits; from 512 to 1024 the
    # size-independent per-sign cost still dominates a whole sign, so that
    # step is checked on the exponentiation term alone
    assert _results["2048"]["sign_ms"] > 3.0 * _results["1024"]["sign_ms"]
    assert _results["1024"]["exp_ms"] > 2.0 * _results["512"]["exp_ms"]
    # signature overhead is linear: 64/128/256 bytes (+/- one varint byte
    # as the length prefix widens)
    o512 = _results["512"]["overhead_bytes"]
    o1024 = _results["1024"]["overhead_bytes"]
    o2048 = _results["2048"]["overhead_bytes"]
    assert 64 <= o1024 - o512 <= 66
    assert 128 <= o2048 - o1024 <= 130
