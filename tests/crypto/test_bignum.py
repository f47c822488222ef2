"""The OpenSSL modular-exponentiation kernel against built-in ``pow``,
and the one binder it shares with the Ed25519 calls.

``pow`` is the reference: every test here either compares the kernel to it
(integers, signatures, keys) or checks what only the binding can get wrong
(threads sharing libcrypto, OpenSSL's error queue, freed BIGNUMs and EVP
objects, a libcrypto missing some symbols).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.crypto import bignum, ed25519
from repro.crypto.bignum import modexp
from repro.crypto.pkcs1 import sign_digest, verify_digest
from repro.crypto.rsa import RsaPublicNumbers, generate_rsa_numbers
from repro.errors import SignatureError

_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))

HAS_KERNEL = (
    sys.platform.startswith("linux")
    and platform.python_implementation() == "CPython"
    and importlib.util.find_spec("_hashlib") is not None
)


def _lib():
    modexp(2, 3, 5, secret=False)  # binds on first use
    if not bignum._lib:
        pytest.skip("no libcrypto reachable through _hashlib")
    return bignum._lib


def _evp():
    """libcrypto with the Ed25519 calls bound; skips where it has none."""
    try:
        return ed25519._libcrypto()
    except SignatureError:
        pytest.skip("no Ed25519 in the libcrypto behind _hashlib")


def _python(code: str):
    """Run ``code`` in a fresh interpreter; its stdout, split into words."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.split()


def _digests(seed: int, count: int):
    rng = random.Random(seed)
    return [rng.getrandbits(256).to_bytes(32, "big") for _ in range(count)]


class TestModexpEqualsPow:
    @pytest.mark.parametrize("secret", [True, False])
    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    def test_rsa_moduli(self, secret, bits):
        key = generate_rsa_numbers(bits, random.Random(bits))
        rng = random.Random(bits + 1)
        for _ in range(8):
            base = rng.randrange(key.n)
            assert modexp(base, key.d, key.n, secret) == pow(base, key.d, key.n)
            assert modexp(base, key.e, key.n, secret) == pow(base, key.e, key.n)
        for base in (0, 1, key.n - 1, key.n, key.n + 5):
            for exp in (0, 1, 2, key.e, key.d):
                assert modexp(base, exp, key.n, secret) == pow(base, exp, key.n)

    @pytest.mark.parametrize("secret", [True, False])
    def test_seeded_triples(self, secret):
        rng = random.Random(4242)
        for _ in range(300):
            mod = rng.getrandbits(rng.randrange(2, 700)) | 1
            base = rng.getrandbits(rng.randrange(0, 800))
            exp = rng.getrandbits(rng.randrange(0, 700))
            assert modexp(base, exp, mod, secret) == pow(base, exp, mod)

    @pytest.mark.parametrize("mod", [1, 2, 3, 4, 10, 1 << 64])
    def test_small_and_even_moduli(self, mod):
        for base in (0, 1, 2, mod - 1):
            for exp in (0, 1, 5):
                assert modexp(base, exp, mod, True) == pow(base, exp, mod)
                assert modexp(base, exp, mod, False) == pow(base, exp, mod)


class TestSignaturesUnchanged:
    def test_sign_digest_identical_with_kernel_off(self, rsa_keypool, monkeypatch):
        digests = _digests(7, 5)
        with_kernel = [
            sign_digest(pair.private.numbers, d) for pair in rsa_keypool for d in digests
        ]
        monkeypatch.setattr(bignum, "_lib", False)
        with_pow = [
            sign_digest(pair.private.numbers, d) for pair in rsa_keypool for d in digests
        ]
        assert with_kernel == with_pow

    @pytest.mark.parametrize(
        "seed, n_sha256",
        [
            (1, "f5acaee61cb6c9f9dfb59f13"),
            (2, "d23ad268ce93b9fab2474437"),
            (3, "2e39e5f5f24b6fce49ce4d54"),
        ],
    )
    def test_seeded_keys_pinned(self, seed, n_sha256):
        # the same moduli that pow-driven Miller-Rabin produced
        n = generate_rsa_numbers(1024, random.Random(seed)).n
        assert hashlib.sha256(n.to_bytes(128, "big")).hexdigest()[:24] == n_sha256

    def test_threads_match_single_thread(self, keypair_1024):
        priv = keypair_1024.private.numbers
        digests = _digests(11, 250)
        reference = [sign_digest(priv, d) for d in digests]
        results = {}

        def worker(index):
            results[index] = [sign_digest(priv, d) for d in digests]

        # more threads than cores, switching often: ctypes drops the GIL
        # inside OpenSSL, so the exponentiations really run side by side
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(4)] == [reference] * 4


class TestErrorQueue:
    @pytest.mark.parametrize("n", [0, 3, 1 << 64, (1 << 127) + 1])
    def test_hostile_moduli_verify_false_and_leave_no_error(self, n):
        lib = _lib()
        pub = RsaPublicNumbers(n=n, e=65537)
        size = pub.byte_size
        for signature in (bytes(size), b"\x01" * size, b"\x02" * size):
            assert verify_digest(pub, bytes(32), signature) is False
        assert lib.ERR_peek_error() == 0

    def test_failed_exponentiation_raises_and_clears_the_queue(self, monkeypatch):
        lib = _lib()

        class EvenModulus:
            """libcrypto, except its exponentiation is handed an even
            modulus: a real failure that leaves a real queued error."""

            def __getattr__(self, name):
                return getattr(lib, name)

            def BN_mod_exp_mont(self, r, a, p, m, ctx, mont):
                even = lib.BN_bin2bn(b"\x04", 1, None)
                try:
                    return lib.BN_mod_exp_mont(r, a, p, even, ctx, mont)
                finally:
                    lib.BN_free(even)

        monkeypatch.setattr(bignum, "_lib", EvenModulus())
        with pytest.raises(SignatureError):
            modexp(2, 65537, 101, secret=False)
        assert lib.ERR_peek_error() == 0
        assert verify_digest(RsaPublicNumbers(n=101, e=65537), bytes(32), b"\x05") is False
        assert lib.ERR_peek_error() == 0
        assert hashlib.sha256(b"abc").hexdigest().startswith("ba7816bf")

    def test_failed_ed25519_calls_leave_no_error(self):
        lib = _evp()
        secret = ed25519.generate_secret(3)
        public = ed25519.public_from_secret(secret)
        signature = ed25519.sign(secret, b"m")
        off_curve = (2).to_bytes(32, "little")
        for key, sig in (
            (public, signature[:-1] + b"\x80"),  # S >= L
            (public, bytes(64)),
            (off_curve, signature),  # a key libcrypto cannot decode
        ):
            assert ed25519.verify(key, b"m", sig) is False
            assert lib.ERR_peek_error() == 0
        assert ed25519.verify(public, b"m", signature) is True


class TestOneBinder:
    """One ``_bind`` and one symbol table serve both groups, and each group
    binds whole or not at all."""

    def _rebind(self, monkeypatch, group):
        _lib()
        monkeypatch.setitem(bignum._SYMBOLS[group], "no_such_symbol_in_libcrypto", "v")
        monkeypatch.setattr(bignum, "_lib", None)
        monkeypatch.setattr(bignum, "_evp", None)
        bignum._bind()

    def test_missing_evp_symbol_keeps_modexp(self, monkeypatch):
        self._rebind(monkeypatch, "ed25519")
        assert bignum._lib and bignum._evp is False
        assert modexp(3, 65537, 2**127 - 1, secret=True) == pow(3, 65537, 2**127 - 1)
        # no Ed25519 fallback: the first use says why
        with pytest.raises(SignatureError, match="no Ed25519"):
            ed25519.sign(ed25519.generate_secret(1), b"m")
        with pytest.raises(SignatureError, match="no Ed25519"):
            ed25519.verify(bytes(32), b"m", bytes(64))

    def test_missing_bignum_symbol_keeps_ed25519(self, monkeypatch):
        self._rebind(monkeypatch, "bignum")
        assert bignum._lib is False and bignum._evp
        # modexp falls back to pow and says nothing
        assert modexp(3, 65537, 2**127 - 1, secret=True) == pow(3, 65537, 2**127 - 1)
        secret = ed25519.generate_secret(1)
        signature = ed25519.sign(secret, b"m")
        assert ed25519.verify(ed25519.public_from_secret(secret), b"m", signature)


# The peak RSS of the child's own address space, VmHWM: ru_maxrss would
# start at the RSS of the (large) test process that forked it and hide
# the growth under that.
_LEAK_PROBE = """
import random
from repro.crypto.rsa import generate_rsa_numbers, rsa_private_op
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
key = generate_rsa_numbers(1024, random.Random(5))
c = random.Random(6).randrange(key.n)
for _ in range(2000):
    rsa_private_op(key, c)
before = peak_kb()
for _ in range(20000):
    rsa_private_op(key, c)
print(peak_kb() - before)
"""

_ED25519_LEAK_PROBE = """
from repro.crypto import ed25519
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
secret = ed25519.generate_secret(5)
public = ed25519.public_from_secret(secret)
def calls(n):
    for i in range(n):
        signature = ed25519.sign(secret, b"%d" % i)
        ed25519.verify(public, b"%d" % i, signature)
        ed25519.verify(public, b"", signature)
        ed25519.public_from_secret(secret)
calls(500)
before = peak_kb()
calls(1500)
print(peak_kb() - before)
"""


@pytest.mark.skipif(not HAS_KERNEL, reason="needs Linux CPython with _hashlib")
class TestKernelIsWhatRuns:
    def test_private_ops_free_their_bignums(self):
        out = _python(_LEAK_PROBE)
        # it grows by 0 here; leaking just the result BIGNUM of each
        # exponentiation grows it by about 1.9 MB
        growth_kb = int(out[-1])
        assert growth_kb < 1024

    def test_signing_uses_openssl_and_not_cryptography(self):
        probe = (
            "import sys, repro\n"
            "from repro.crypto import bignum\n"
            "from repro.crypto.keys import generate_keypair\n"
            "pair = generate_keypair(1024, seed=1, scheme='rsa')\n"
            "pair.private.sign_digest(bytes(32))\n"
            "print(bool(bignum._lib), 'cryptography' in sys.modules)\n"
        )
        out = _python(probe)
        assert out == ["True", "False"]

    def test_ed25519_uses_openssl_and_not_cryptography(self):
        probe = (
            "import sys, repro\n"
            "from repro.crypto import bignum\n"
            "from repro.crypto.keys import generate_keypair\n"
            "pair = generate_keypair(seed=1, scheme='ed25519')\n"
            "ok = pair.public.verify_digest(bytes(32), pair.private.sign_digest(bytes(32)))\n"
            "print(ok, bool(bignum._evp), 'cryptography' in sys.modules)\n"
        )
        out = _python(probe)
        assert out == ["True", "True", "False"]

    def test_ed25519_calls_free_their_keys_and_contexts(self):
        out = _python(_ED25519_LEAK_PROBE)
        # leaking one EVP_PKEY and one EVP_MD_CTX per call grows it by
        # megabytes over these 6 000 calls
        growth_kb = int(out[-1])
        assert growth_kb < 1024

    def test_binds_on_first_use_only(self):
        probe = (
            "import sys\n"
            "from repro.crypto import bignum\n"
            "import repro.crypto, repro.core\n"
            "print(bignum._lib, 'ctypes' in sys.modules)\n"
        )
        out = _python(probe)
        assert out == ["None", "False"]
