"""Cross-scheme differential battery.

The scheme layer's core promise is that swapping RSA for Ed25519 changes
*no semantics*: the same abstract workload -- honest transmissions,
fabrications, hidden entries, falsified data, bad signatures -- must audit
to the *identical verdict multiset* under either scheme.  This battery
generates >= 50 PYTEST_SEED-derived randomized workloads, materializes
each one twice (once per scheme, same structure, scheme-appropriate
keys), and compares the full audit outcome.

It also pins the auditor's batched verification to the per-signature
reference (:mod:`tests.audit.reference`): for either scheme, and for a
deployment whose components mix the two, the batched audit must equal the
audit that verifies one signature at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.adversary.scenarios import (
    fabricate_publication_entry,
    fabricate_receipt_entry,
    forge_colluding_pair,
    forge_impersonated_entry,
)
from repro.audit import Auditor, AuditReport, Topology
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest
from repro.crypto.keys import KeyPair, generate_keypair
from tests.audit.reference import per_signature_verification

#: randomized workloads per scheme pair (the acceptance floor is 50)
WORKLOADS = 50

#: components shared by every workload (keys are the expensive part)
COMPONENTS = ["/c0", "/c1", "/c2", "/c3"]

KINDS = [
    "honest",
    "honest",  # weighted: most traffic is honest
    "hidden_subscriber",
    "hidden_publisher",
    "fabricated_publication",
    "fabricated_receipt",
    "impersonated",
    "falsified_data",
    "bad_own_sig",
]


@pytest.fixture(scope="module")
def ed25519_keys(deterministic_seed) -> Dict[str, KeyPair]:
    return {
        name: generate_keypair(seed=deterministic_seed + 100 + i, scheme="ed25519")
        for i, name in enumerate(COMPONENTS)
    }


@pytest.fixture(scope="module")
def rsa_keys(rsa_keypool) -> Dict[str, KeyPair]:
    return {name: rsa_keypool[i] for i, name in enumerate(COMPONENTS)}


def _abstract_workload(seed: int) -> List[Tuple]:
    """Scheme-independent description: one tuple per transmission."""
    rng = random.Random(seed)
    steps: List[Tuple] = []
    n_topics = rng.randint(1, 3)
    for t in range(n_topics):
        topic = f"/topic{t}"
        publisher, subscriber = rng.sample(COMPONENTS, 2)
        for seq in range(1, rng.randint(2, 5)):
            kind = rng.choice(KINDS)
            payload = rng.getrandbits(64).to_bytes(8, "big")
            steps.append((kind, topic, publisher, subscriber, seq, payload))
    return steps


def _materialize(
    steps: List[Tuple], keys: Dict[str, KeyPair]
) -> Tuple[List[LogEntry], Topology]:
    """Instantiate an abstract workload with one scheme's key material."""
    entries: List[LogEntry] = []
    topology = Topology()
    for kind, topic, publisher, subscriber, seq, payload in steps:
        topology.publisher_of[topic] = publisher
        topology.subscribers_of.setdefault(topic, [])
        if subscriber not in topology.subscribers_of[topic]:
            topology.subscribers_of[topic].append(subscriber)
        pub_pair, sub_pair = keys[publisher], keys[subscriber]
        if kind in ("honest", "hidden_subscriber", "hidden_publisher", "bad_own_sig"):
            pub_entry, sub_entry = forge_colluding_pair(
                publisher, pub_pair, subscriber, sub_pair, topic, "Str", seq, payload
            )
            if kind == "bad_own_sig":
                corrupted = bytearray(pub_entry.own_sig)
                corrupted[0] ^= 0x01
                pub_entry.own_sig = bytes(corrupted)
            if kind != "hidden_publisher":
                entries.append(pub_entry)
            if kind != "hidden_subscriber":
                entries.append(sub_entry)
        elif kind == "fabricated_publication":
            entries.append(
                fabricate_publication_entry(
                    publisher, pub_pair, topic, "Str", seq, payload, subscriber
                )
            )
        elif kind == "fabricated_receipt":
            entries.append(
                fabricate_receipt_entry(
                    subscriber, sub_pair, topic, "Str", seq, payload, publisher
                )
            )
        elif kind == "impersonated":
            entries.append(
                forge_impersonated_entry(
                    publisher, sub_pair, topic, "Str", seq, payload
                )
            )
        elif kind == "falsified_data":
            # the publisher really sent `payload` (the subscriber holds its
            # genuine signature) but logs a different payload
            real = message_digest(seq, payload)
            lied = payload + b"!"
            pub_entry, sub_entry = forge_colluding_pair(
                publisher, pub_pair, subscriber, sub_pair, topic, "Str", seq, payload
            )
            pub_entry.data = lied
            pub_entry.own_sig = pub_pair.private.sign_digest(
                message_digest(seq, lied)
            )
            assert pub_entry.peer_hash == real  # ACK stays over the real data
            entries.append(pub_entry)
            entries.append(sub_entry)
        else:  # pragma: no cover
            raise AssertionError(kind)
    return entries, topology


def _signature(report: AuditReport) -> Counter:
    """The scheme-independent audit outcome of a report."""
    outcome = Counter()
    for classified in report.classified:
        outcome[
            (
                "entry",
                classified.entry.component_id,
                classified.entry.topic,
                classified.entry.seq,
                classified.entry.direction.name,
                classified.verdict.name,
                tuple(r.name for r in classified.reasons),
            )
        ] += 1
    for hidden in report.hidden:
        outcome[
            (
                "hidden",
                hidden.component_id,
                hidden.transmission.topic,
                hidden.transmission.seq,
                hidden.direction.name,
            )
        ] += 1
    for anomaly in report.anomalies:
        outcome[("anomaly", anomaly.transmission.topic, anomaly.transmission.seq)] += 1
    return outcome


def _audit(entries, topology, keys) -> AuditReport:
    from repro.crypto.keystore import KeyStore

    keystore = KeyStore()
    for name, pair in keys.items():
        keystore.register(name, pair.public)
    return Auditor(keystore, topology).audit(entries)


class TestDifferentialBattery:
    def test_identical_verdict_multisets(
        self, deterministic_seed, rsa_keys, ed25519_keys
    ):
        """>= 50 randomized workloads; RSA and Ed25519 must agree exactly."""
        mismatches = []
        kinds_seen = set()
        for w in range(WORKLOADS):
            steps = _abstract_workload(deterministic_seed * 1000 + w)
            kinds_seen.update(step[0] for step in steps)
            rsa_entries, topology = _materialize(steps, rsa_keys)
            ed_entries, _ = _materialize(steps, ed25519_keys)
            rsa_outcome = _signature(_audit(rsa_entries, topology, rsa_keys))
            ed_outcome = _signature(_audit(ed_entries, topology, ed25519_keys))
            if rsa_outcome != ed_outcome:
                mismatches.append((w, rsa_outcome - ed_outcome, ed_outcome - rsa_outcome))
        assert not mismatches, f"verdicts diverged in workloads: {mismatches}"
        # the battery only proves equivalence if it exercised every path
        assert kinds_seen == set(KINDS)

    @pytest.mark.parametrize("scheme", ["rsa", "ed25519"])
    def test_forged_signature_flip_caught(
        self, scheme, deterministic_seed, rsa_keys, ed25519_keys
    ):
        """Flipping one signature byte in an otherwise-honest workload must
        surface under either scheme, in the same place."""
        keys = rsa_keys if scheme == "rsa" else ed25519_keys
        steps = [
            ("honest", "/topic0", "/c0", "/c1", seq, b"payload-%d" % seq)
            for seq in range(1, 5)
        ]
        entries, topology = _materialize(steps, keys)
        baseline = _audit(entries, topology, keys)
        assert not baseline.flagged_components()

        tampered = bytearray(entries[2].own_sig)
        tampered[3] ^= 0x40
        entries[2].own_sig = bytes(tampered)
        report = _audit(entries, topology, keys)
        flagged = report.flagged_components()
        assert entries[2].component_id in flagged
        bad = [
            c
            for c in report.classified
            if c.entry is entries[2]
        ]
        assert bad[0].verdict.name == "INVALID"

    def test_mixed_scheme_components_equal_inline(
        self, deterministic_seed, rsa_keys, ed25519_keys
    ):
        """The battery's workloads with half the components on each
        scheme: the auditor splits its triples into one batch per scheme
        and must report what per-signature verification reports."""
        mixed = {
            name: (rsa_keys if i % 2 == 0 else ed25519_keys)[name]
            for i, name in enumerate(COMPONENTS)
        }
        mismatches = []
        for w in range(WORKLOADS):
            steps = _abstract_workload(deterministic_seed * 1000 + w)
            entries, topology = _materialize(steps, mixed)
            batched = _signature(_audit(entries, topology, mixed))
            with per_signature_verification():
                inline = _signature(_audit(entries, topology, mixed))
            if batched != inline:
                mismatches.append((w, batched - inline, inline - batched))
        assert not mismatches, f"batched audit diverged in workloads: {mismatches}"

    def test_batch_equals_inline(
        self, deterministic_seed, rsa_keys, ed25519_keys
    ):
        """A batched audit of a large mixed workload returns identical
        verdicts to the signature-by-signature audit, for both schemes."""
        steps = []
        for w in range(8):
            steps.extend(_abstract_workload(deterministic_seed * 77 + w))
        # de-duplicate (topic, seq, kind) collisions across concatenated
        # workloads by renaming topics per slice
        steps = [
            (kind, f"{topic}-w{i % 8}", pub, sub, seq, payload)
            for i, (kind, topic, pub, sub, seq, payload) in enumerate(steps)
        ]
        for keys in (rsa_keys, ed25519_keys):
            entries, topology = _materialize(steps, keys)
            batched = _audit(entries, topology, keys)
            with per_signature_verification():
                inline = _audit(entries, topology, keys)
            assert _signature(inline) == _signature(batched)
