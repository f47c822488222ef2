"""The audit hashes each fed entry's reported data once.

``LogEntry.reported_hash`` re-hashes ``seq || data`` on every call, and a
publisher entry's digest is needed by its own-signature check, by the
consistency check against the acknowledged hash and by the pairwise
comparison.  :class:`AuditFold` computes it once per entry in ``feed``;
these tests count the ``message_digest`` calls of whole audits.
"""

import random

import pytest

import repro.core.protocol as protocol
from repro.audit.auditor import AuditFold, Auditor, Topology
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest
from repro.crypto.keystore import KeyStore


def _corpus(keypool, seed=7, transmissions=24):
    """Publisher entries storing data, subscriber entries storing either
    data or its hash; some falsified, some one-sided, one naive entry."""
    rng = random.Random(seed)
    pub, sub = keypool[0], keypool[1]
    entries = []
    for seq in range(1, transmissions + 1):
        payload = rng.randbytes(rng.randrange(1, 200))
        digest = message_digest(seq, payload)
        s_x = pub.private.sign_digest(digest)
        s_y = sub.private.sign_digest(digest)
        kind = rng.choice(["honest", "honest", "falsified", "pub_only", "sub_only"])
        logged = payload
        if kind == "falsified":
            logged = payload + b"!"
        if kind != "sub_only":
            entries.append(LogEntry(
                component_id="/pub", topic="/t", type_name="std/String",
                direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
                data=logged, own_sig=pub.private.sign_digest(
                    message_digest(seq, logged)),
                peer_id="/sub", peer_hash=digest, peer_sig=s_y,
            ))
        if kind != "pub_only":
            stored = {"data": payload} if rng.random() < 0.5 else {"data_hash": digest}
            entries.append(LogEntry(
                component_id="/sub", topic="/t", type_name="std/String",
                direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
                own_sig=s_y, peer_id="/pub", peer_sig=s_x, **stored,
            ))
    entries.append(LogEntry(
        component_id="/pub", topic="/t", direction=Direction.OUT, seq=999,
        scheme=Scheme.NAIVE, data=b"naive",
    ))
    rng.shuffle(entries)
    return entries


@pytest.fixture()
def keystore(keypool):
    store = KeyStore()
    store.register("/pub", keypool[0].public)
    store.register("/sub", keypool[1].public)
    return store


@pytest.fixture()
def digest_calls(monkeypatch):
    """Counts ``repro.core.protocol.message_digest`` calls."""
    calls = []
    original = protocol.message_digest

    def counted(seq, payload):
        calls.append(seq)
        return original(seq, payload)

    monkeypatch.setattr(protocol, "message_digest", counted)
    return calls


def test_one_digest_per_data_carrying_entry(keypool, keystore, digest_calls):
    entries = _corpus(keypool)
    carrying = sum(1 for entry in entries if entry.data)
    assert carrying and not any(entry.data and entry.data_hash for entry in entries)
    report = Auditor(keystore).audit(entries)
    assert len(digest_calls) == carrying
    assert len(report.classified) == len(entries)


def test_chunked_feed_hashes_as_often_and_reports_the_same(keypool, keystore, digest_calls):
    entries = _corpus(keypool)
    whole = Auditor(keystore).audit(entries)
    once = len(digest_calls)
    digest_calls.clear()
    fold = AuditFold(keystore, Topology.from_entries(entries))
    third = len(entries) // 3
    for chunk in (entries[:third], entries[third:2 * third], entries[2 * third:]):
        fold.feed(chunk)
    assert fold.report() == whole
    assert len(digest_calls) == once
