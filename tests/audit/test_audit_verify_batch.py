"""Batched (key, digest, sig) verification: ``SignatureScheme.verify_batch``.

The same contract the auditor's old verify pool pinned, now held by
``verify_batch`` under the pool-era test names: results come back in input
order, malformed key material verifies False (never raises), a batch of
any size equals the per-signature loop, concurrent batches share the
key-table cache safely, and ``audit_replica_set`` reports what a
signature-by-signature audit reports.
"""

import sys
import threading

from repro.crypto import ed25519
from repro.crypto.hashing import sha256
from repro.crypto.keys import generate_keypair
from repro.crypto.rsa import RsaPublicNumbers
from repro.crypto.schemes import Ed25519Public, get_scheme
from tests.audit.reference import per_signature_verification


def _triples(keypool, count, tamper_every=0):
    """(public material, digest, signature) under the suite's scheme."""
    triples, expected = [], []
    for i in range(count):
        pair = keypool[i % 3]
        digest = sha256(b"payload-%d" % i)
        sig = pair.private.sign_digest(digest)
        ok = True
        if tamper_every and i % tamper_every == 0:
            corrupted = bytearray(sig)
            corrupted[0] ^= 0x01
            sig = bytes(corrupted)
            ok = False
        triples.append((pair.public.numbers, digest, sig))
        expected.append(ok)
    return triples, expected


def _verify_batch(keypool, triples):
    return keypool[0].public.scheme.verify_batch(triples)


class TestChunkKernel:
    def test_verifies_in_order(self, keypool):
        triples, expected = _triples(keypool, 10, tamper_every=3)
        assert _verify_batch(keypool, triples) == expected

    def test_bad_key_bytes_verify_false_not_raise(self, deterministic_seed):
        digest = sha256(b"x")
        pair = generate_keypair(seed=deterministic_seed, scheme="ed25519")
        sig = pair.private.sign_digest(digest)
        off_curve = (2).to_bytes(32, "little")
        batch = [
            (Ed25519Public(point), digest, sig)
            for point in (b"\xa5\x7f junk", b"", off_curve)
        ] + [(pair.public.numbers, digest, sig)]
        assert get_scheme("ed25519").verify_batch(batch) == [False, False, False, True]
        # RSA: a modulus too short to hold a DigestInfo, and no modulus
        for numbers in (RsaPublicNumbers(n=(1 << 127) + 1, e=65537),
                        RsaPublicNumbers(n=0, e=0)):
            sig = bytes(numbers.byte_size)
            assert get_scheme("rsa").verify_batch([(numbers, digest, sig)]) == [False]

    def test_key_cache_shares_decodes(self, keypool, deterministic_seed):
        # many triples under few keys: one table per key serves them all
        triples, expected = _triples(keypool, 6)
        assert _verify_batch(keypool, triples * 3) == expected * 3
        # more Ed25519 keys than the cache holds: evicted, rebuilt, bounded
        digest = sha256(b"evict")
        pairs = [
            generate_keypair(seed=deterministic_seed + i, scheme="ed25519")
            for i in range(ed25519._KEY_CACHE_SIZE + 2)
        ]
        batch = [(p.public.numbers, digest, p.private.sign_digest(digest)) for p in pairs]
        for _ in range(2):
            assert get_scheme("ed25519").verify_batch(batch) == [True] * len(batch)
        assert len(ed25519._KEYS) <= ed25519._KEY_CACHE_SIZE


class TestPool:
    def test_empty_batch(self):
        for name in ("rsa", "ed25519"):
            assert get_scheme(name).verify_batch([]) == []

    def test_small_batch_inline(self, keypool):
        # below the bisection leaf: judged one by one, same booleans
        triples, expected = _triples(keypool, 5, tamper_every=2)
        assert len(triples) < ed25519._BISECT_LEAF
        assert _verify_batch(keypool, triples) == expected

    def test_large_batch_across_workers(self, deterministic_seed):
        """More threads than cores verify the same large Ed25519 batch,
        racing to fill the module's (emptied) key-table cache; nobody sees
        a wrong or missing boolean (concurrent auditors share the cache)."""
        pairs = [
            generate_keypair(seed=deterministic_seed + 50 + i, scheme="ed25519")
            for i in range(3)
        ]
        triples, expected = _triples(pairs, 64, tamper_every=7)
        results, errors = {}, []

        def work(slot):
            try:
                results[slot] = _verify_batch(pairs, triples)
            except Exception as exc:  # surfaced below, with its traceback
                errors.append(exc)

        with ed25519._KEYS_LOCK:
            ed25519._KEYS.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert [results[i] for i in range(4)] == [expected] * 4


class TestAuditIntegration:
    def test_audit_replica_set_equals_inline(self, keypool, rng):
        from repro.audit.replica_audit import audit_replica_set
        from repro.core import LogServer, LogServerEndpoint, RemoteLogger
        from tests.audit.workload import build_stream, report_summary

        servers = [LogServer() for _ in range(3)]
        for server in servers:
            server.register_key("/pub", keypool[0].public)
            server.register_key("/sub", keypool[1].public)
        for record in build_stream(keypool, rng, transmissions=12):
            for server in servers:
                server.submit(record)
        endpoints = [LogServerEndpoint(s) for s in servers]
        clients = [RemoteLogger(e.address) for e in endpoints]
        try:
            batched = audit_replica_set(clients)
            with per_signature_verification():
                inline = audit_replica_set(clients)
        finally:
            for client in clients:
                client.close()
            for endpoint in endpoints:
                endpoint.close()
        assert report_summary(inline.report) == report_summary(batched.report)
        assert inline.agreeing == batched.agreeing
