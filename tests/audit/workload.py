"""Transmission builders shared by the auditor and proof-plane tests.

One publisher (``/pub`` = keypool[0]) and one subscriber (``/sub`` =
keypool[1]) exchange transmissions across several topics: honest pairs,
plus the two deviations verdicts must disagree on -- a forged
own-signature (invalid) and a subscriber-only transmission whose peer
proof convicts the publisher of hiding its entry.
"""

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest

TOPICS = ["/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"]


def register_pair(server, keypool) -> None:
    server.register_key("/pub", keypool[0].public)
    server.register_key("/sub", keypool[1].public)


def honest_pair(keypool, topic, seq, payload):
    """The publisher's OUT (with the subscriber's ACK proof) and the
    subscriber's IN (with the publisher's counterpart proof)."""
    digest = message_digest(seq, payload)
    s_x = keypool[0].private.sign_digest(digest)
    s_y = keypool[1].private.sign_digest(digest)
    pub = LogEntry(
        component_id="/pub", topic=topic, type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=payload, own_sig=s_x,
        peer_id="/sub", peer_hash=digest, peer_sig=s_y,
    )
    sub = LogEntry(
        component_id="/sub", topic=topic, type_name="std/String",
        direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
        data_hash=digest, own_sig=s_y, peer_id="/pub", peer_sig=s_x,
    )
    return pub, sub


def forged_out(keypool, topic, seq, payload):
    """An OUT entry whose own-signature does not verify (invalid)."""
    digest = message_digest(seq, payload)
    sig = bytearray(keypool[0].private.sign_digest(digest))
    sig[0] ^= 0x01
    return LogEntry(
        component_id="/pub", topic=topic, type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=payload, own_sig=bytes(sig),
    )


def build_stream(keypool, rng, topics=TOPICS, transmissions=24):
    """A randomized encoded-entry stream: mostly honest pairs, with the
    occasional forged signature or publisher-hidden entry mixed in.

    Returns ``(records, topics)`` where ``records`` is the shuffled list
    of encoded entries.  Sequence numbers increment per topic so replay
    dedup never fires.
    """
    seqs = {t: 0 for t in topics}
    records = []
    for _ in range(transmissions):
        topic = rng.choice(topics)
        seqs[topic] += 1
        seq = seqs[topic]
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(4, 24)))
        roll = rng.random()
        if roll < 0.70:
            pub, sub = honest_pair(keypool, topic, seq, payload)
            records.append(pub.encode())
            records.append(sub.encode())
        elif roll < 0.85:
            # subscriber logs with a valid peer proof; the publisher's
            # entry is provably hidden
            _, sub = honest_pair(keypool, topic, seq, payload)
            records.append(sub.encode())
        else:
            records.append(forged_out(keypool, topic, seq, payload).encode())
    rng.shuffle(records)
    return records


def verdict_key(classified):
    """An order-independent identity for one classified entry."""
    e = classified.entry
    return (
        e.component_id, e.topic, e.seq, e.direction,
        classified.verdict, tuple(sorted(r.name for r in classified.reasons)),
    )


def report_summary(report):
    """Order-independent digest of a report: verdict multiset, hidden
    set, per-component aggregates."""
    verdicts = sorted(verdict_key(c) for c in report.classified)
    hidden = sorted(
        (h.component_id, h.direction, h.transmission.topic, h.transmission.seq)
        for h in report.hidden
    )
    components = {
        cid: (v.valid_entries, v.invalid_entries, v.hidden_entries)
        for cid, v in report.components.items()
    }
    return verdicts, hidden, components
