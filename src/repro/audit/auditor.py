"""The main audit algorithm.

Implements the classification goal of Section III-C using the machinery the
lemmas of Section IV-B rely on:

1. **Obvious detection** (eq. 3): every entry's own signature must verify
   under the owner's registered public key, for the digest of the data the
   entry reports; OUT entries must come from the topic's unique publisher.

2. **Pairwise verification** (Lemmas 1-3): for every transmission
   ``D_{x->y}`` identified by ``(topic, seq, subscriber)``, the publisher's
   entry ``L_x`` and the subscriber's entry ``L_y`` are checked against each
   other via the *counterpart* signatures they embed: ``L_y`` is proven by
   the publisher's signature ``s''_x`` it reports, ``L_x`` by the
   subscriber's acknowledgement signature ``s'_y``.  Disagreeing digests
   convict the side whose proof fails (Lemma 3); a missing counterpart entry
   whose transmission is proven by the present side's embedded signature is
   inferred **hidden** (Lemma 2).

The guarantees match the paper: every faithful component's entries are
classified valid (Theorem 1), and in a collusion-free run every unfaithful
act is attributed (Theorem 2).  Colluding pairs can still manufacture
mutually consistent lies; those are classified valid, exactly as the paper
concedes (:math:`\\widehat{L_V} \\subseteq L_{V,f}` need not hold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.audit.verdicts import (
    AuditReport,
    ClassifiedEntry,
    EntryClass,
    HiddenRecord,
    Reason,
    TransmissionId,
)
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.crypto.keys import PublicKey
from repro.crypto.keystore import KeyStore
from repro.crypto.schemes import get_scheme


@dataclass
class Topology:
    """Deployment knowledge the auditor may be given a priori.

    The system model guarantees a topic's type uniquely identifies its
    publisher (Section II), so investigators know ``publisher_of``.  When a
    topology is not supplied, the auditor falls back to majority evidence
    from the log itself.
    """

    publisher_of: Dict[str, str] = field(default_factory=dict)
    subscribers_of: Dict[str, List[str]] = field(default_factory=dict)
    #: expected message type per topic; entries disagreeing with it are
    #: "obviously detectable" (Section IV-B)
    type_of: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_master(cls, master) -> "Topology":
        """Capture the live middleware graph (for online audits)."""
        topology = cls()
        for topic, type_name in master.topics().items():
            info = master.lookup_publisher(topic)
            if info is not None:
                topology.publisher_of[topic] = info.node_id
            topology.subscribers_of[topic] = master.subscriber_ids(topic)
            topology.type_of[topic] = type_name
        return topology

    @classmethod
    def from_entries(cls, entries: List[LogEntry]) -> "Topology":
        """Best-effort topology from the log: per topic, the component most
        often named as publisher (by subscribers' ``peer_id``) or claiming
        OUT entries."""
        votes: Dict[str, Dict[str, int]] = {}
        subscribers: Dict[str, Set[str]] = {}
        for entry in entries:
            if entry.direction is Direction.OUT:
                votes.setdefault(entry.topic, {})
                votes[entry.topic][entry.component_id] = (
                    votes[entry.topic].get(entry.component_id, 0) + 1
                )
            elif entry.direction is Direction.IN:
                subscribers.setdefault(entry.topic, set()).add(entry.component_id)
                if entry.peer_id:
                    votes.setdefault(entry.topic, {})
                    votes[entry.topic][entry.peer_id] = (
                        votes[entry.topic].get(entry.peer_id, 0) + 1
                    )
        topology = cls()
        for topic, counts in votes.items():
            topology.publisher_of[topic] = max(counts, key=counts.get)
        for topic, subs in subscribers.items():
            topology.subscribers_of[topic] = sorted(subs)
        return topology


@dataclass
class _PubView:
    """One publisher entry's claim toward one subscriber."""

    entry: LogEntry
    subscriber: str
    peer_hash: bytes
    peer_sig: bytes
    index: int  # index of the parent entry in the input list


class Auditor:
    """Classifies a log into valid / invalid / hidden (Figure 5).

    :meth:`audit` first verifies every distinct ``(key, digest,
    signature)`` triple the classification will need, one
    :meth:`~repro.crypto.schemes.SignatureScheme.verify_batch` per scheme,
    and the phases read the booleans; a check the pre-pass did not
    anticipate is verified on the spot.  A scheme's batch returns what its
    single verify returns, so the report is the per-signature one.
    """

    def __init__(self, keystore: KeyStore, topology: Optional[Topology] = None):
        self._keystore = keystore
        self._topology = topology
        # (key, digest, signature) -> verified?; lives for one audit
        self._verify_cache: Dict[Tuple[PublicKey, bytes, bytes], bool] = {}

    @classmethod
    def for_server(
        cls, server: LogServer, topology: Optional[Topology] = None
    ) -> "Auditor":
        return cls(server.keystore, topology)

    def audit_server(self, server: LogServer) -> AuditReport:
        """Verify store integrity, then audit all entries."""
        server.verify_integrity()
        return self.audit(server.entries())

    # ------------------------------------------------------------------

    def audit(self, entries: List[LogEntry]) -> AuditReport:
        """Run the full classification over ``entries``."""
        topology = self._topology or Topology.from_entries(entries)
        try:
            self._precompute_verifications(entries, topology)
            return self._classify(entries, topology)
        finally:
            # one audit's booleans never answer the next
            self._verify_cache = {}

    def _classify(self, entries: List[LogEntry], topology: Topology) -> AuditReport:
        report = AuditReport()

        # verdict slot per input entry; filled in phases 1 and 2
        verdicts: List[Optional[Tuple[EntryClass, Tuple[Reason, ...]]]] = [
            None
        ] * len(entries)
        transmissions: List[Optional[TransmissionId]] = [None] * len(entries)

        usable = self._phase1_obvious(entries, topology, verdicts)
        self._phase2_pairwise(entries, topology, verdicts, transmissions, usable, report)

        for i, entry in enumerate(entries):
            verdict = verdicts[i]
            if verdict is None:
                # An ADLP entry that never matched any transmission pairing
                # (e.g. an OUT entry whose topic nobody audits); by Lemma 1
                # an unpaired entry proves nothing.
                verdict = (EntryClass.INVALID, (Reason.UNPROVEN_PUBLICATION,))
            report.classified.append(
                ClassifiedEntry(
                    entry=entry,
                    verdict=verdict[0],
                    reasons=verdict[1],
                    transmission=transmissions[i],
                )
            )
        report._account()
        return report

    # -- batched verification ------------------------------------------

    def _verify(self, key: PublicKey, digest: bytes, signature: bytes) -> bool:
        """One signature check: the batch's answer when
        :meth:`_precompute_verifications` anticipated it."""
        hit = self._verify_cache.get((key, digest, signature))
        if hit is not None:
            return hit
        return key.verify_digest(digest, signature)

    def _precompute_verifications(
        self, entries: List[LogEntry], topology: Topology
    ) -> None:
        """Collect every distinct (key, digest, sig) triple the two phases
        will check -- own signatures, the publisher signature each IN
        entry reports, the ACK signature behind each OUT view -- and
        verify them as one batch per signature scheme."""
        # scheme name -> its triples, first-seen order (the Ed25519 batch
        # coefficients depend on it: same log, same batch, same booleans)
        wanted: Dict[str, Dict[Tuple[PublicKey, bytes, bytes], None]] = {}

        def want(key: Optional[PublicKey], digest: bytes, signature: bytes) -> None:
            if key is not None and digest and signature:
                wanted.setdefault(key.scheme_name, {})[(key, digest, signature)] = None

        for i, entry in enumerate(entries):
            if entry.scheme is not Scheme.ADLP:
                continue
            own_key = self._keystore.find(entry.component_id)
            digest = entry.reported_hash()
            want(own_key, digest, entry.own_sig)
            if entry.direction is Direction.IN:
                publisher = topology.publisher_of.get(entry.topic)
                pub_key = self._keystore.find(publisher) if publisher else None
                want(pub_key, digest, entry.peer_sig)
            else:
                for view in self._pub_views(entry, i):
                    if view.subscriber:
                        want(
                            self._keystore.find(view.subscriber),
                            view.peer_hash,
                            view.peer_sig,
                        )
        for scheme_name, triples in wanted.items():
            results = get_scheme(scheme_name).verify_batch(
                [(key.numbers, digest, sig) for key, digest, sig in triples]
            )
            self._verify_cache.update(zip(triples, results))

    # -- phase 1: obvious detection ------------------------------------

    def _phase1_obvious(
        self,
        entries: List[LogEntry],
        topology: Topology,
        verdicts: List[Optional[Tuple[EntryClass, Tuple[Reason, ...]]]],
    ) -> List[int]:
        """Classify obviously invalid entries; return indices that survive."""
        usable: List[int] = []
        seen_in: Set[Tuple[str, str, int]] = set()
        seen_out: Set[Tuple[str, str, int, str]] = set()
        for i, entry in enumerate(entries):
            reasons: List[Reason] = []
            if entry.scheme is not Scheme.ADLP:
                # Naive/no-scheme entries carry no cryptographic commitment:
                # nothing about them is provable (the paper's motivation).
                verdicts[i] = (EntryClass.INVALID, (Reason.UNVERIFIABLE_SCHEME,))
                continue
            key = self._keystore.find(entry.component_id)
            if key is None:
                verdicts[i] = (EntryClass.INVALID, (Reason.UNKNOWN_COMPONENT,))
                continue
            digest = entry.reported_hash()
            if not digest or not entry.own_sig:
                verdicts[i] = (EntryClass.INVALID, (Reason.MISSING_COMMITMENT,))
                continue
            if not self._verify(key, digest, entry.own_sig):
                # eq. (3) fails: also covers impersonation -- an entry
                # written under someone else's id cannot carry their
                # signature (footnote on "Obvious Detection").
                verdicts[i] = (EntryClass.INVALID, (Reason.BAD_OWN_SIGNATURE,))
                continue
            expected_type = topology.type_of.get(entry.topic)
            if expected_type is not None and entry.type_name != expected_type:
                # "type(D_x) = type(D'_x) = ... always hold because
                # otherwise it is obviously detectable" (Section IV-B).
                verdicts[i] = (EntryClass.INVALID, (Reason.TYPE_MISMATCH,))
                continue
            if entry.direction is Direction.OUT:
                expected = topology.publisher_of.get(entry.topic)
                if expected is not None and expected != entry.component_id:
                    verdicts[i] = (EntryClass.INVALID, (Reason.NOT_TOPIC_PUBLISHER,))
                    continue
                for subscriber in self._entry_subscribers(entry):
                    out_key = (entry.component_id, entry.topic, entry.seq, subscriber)
                    if out_key in seen_out:
                        reasons.append(Reason.REPLAYED_SEQUENCE)
                        break
                    seen_out.add(out_key)
            else:
                in_key = (entry.component_id, entry.topic, entry.seq)
                if in_key in seen_in:
                    reasons.append(Reason.REPLAYED_SEQUENCE)
                seen_in.add(in_key)
            if Reason.REPLAYED_SEQUENCE in reasons:
                verdicts[i] = (EntryClass.INVALID, (Reason.REPLAYED_SEQUENCE,))
                continue
            usable.append(i)
        return usable

    @staticmethod
    def _entry_subscribers(entry: LogEntry) -> List[str]:
        """Subscribers an OUT entry claims ACKs from ('' for no-ACK)."""
        if entry.aggregated:
            return list(entry.ack_peer_ids)
        return [entry.peer_id]

    @staticmethod
    def _pub_views(entry: LogEntry, index: int) -> List[_PubView]:
        """Per-subscriber views of an OUT entry (aggregation-aware)."""
        if entry.aggregated:
            return [
                _PubView(entry, sid, shash, ssig, index)
                for sid, shash, ssig in zip(
                    entry.ack_peer_ids, entry.ack_peer_hashes, entry.ack_peer_sigs
                )
            ]
        return [_PubView(entry, entry.peer_id, entry.peer_hash, entry.peer_sig, index)]

    # -- phase 2: pairwise verification ----------------------------------

    def _phase2_pairwise(
        self,
        entries: List[LogEntry],
        topology: Topology,
        verdicts: List[Optional[Tuple[EntryClass, Tuple[Reason, ...]]]],
        transmissions: List[Optional[TransmissionId]],
        usable: List[int],
        report: AuditReport,
    ) -> None:
        # Index usable entries by transmission.
        pub_views: Dict[Tuple[str, int], Dict[str, _PubView]] = {}
        sub_entries: Dict[Tuple[str, int], Dict[str, int]] = {}
        for i in usable:
            entry = entries[i]
            key = (entry.topic, entry.seq)
            if entry.direction is Direction.OUT:
                views = pub_views.setdefault(key, {})
                for view in self._pub_views(entry, i):
                    views.setdefault(view.subscriber, view)
            else:
                subs = sub_entries.setdefault(key, {})
                subs.setdefault(entry.component_id, i)

        # Aggregated entries collect per-view verdicts and combine at the end.
        view_verdicts: Dict[int, List[Tuple[EntryClass, Tuple[Reason, ...]]]] = {}

        all_keys = set(pub_views) | set(sub_entries)
        for topic, seq in sorted(all_keys):
            views = pub_views.get((topic, seq), {})
            subs = sub_entries.get((topic, seq), {})
            publisher = topology.publisher_of.get(topic)
            if publisher is None and views:
                publisher = next(iter(views.values())).entry.component_id
            for subscriber in sorted(set(views) | set(subs)):
                if not subscriber:
                    # publisher view with no ACK: handled below via its entry
                    continue
                self._judge_pair(
                    topic,
                    seq,
                    publisher,
                    subscriber,
                    views.get(subscriber),
                    subs.get(subscriber),
                    entries,
                    verdicts,
                    transmissions,
                    view_verdicts,
                    report,
                )
            # OUT views with no acknowledged subscriber (ACK timeout)
            no_ack = views.get("")
            if no_ack is not None:
                self._record_view_verdict(
                    no_ack,
                    (EntryClass.INVALID, (Reason.UNPROVEN_PUBLICATION,)),
                    verdicts,
                    view_verdicts,
                )
                transmissions[no_ack.index] = TransmissionId(
                    topic=topic, seq=seq, publisher=publisher or "", subscriber=""
                )

        # combine per-view verdicts of aggregated entries
        for index, per_view in view_verdicts.items():
            if verdicts[index] is not None:
                continue
            if all(v[0] is EntryClass.VALID for v in per_view):
                reasons = tuple(sorted({r for v in per_view for r in v[1]}, key=str))
                verdicts[index] = (EntryClass.VALID, reasons)
            else:
                reasons = tuple(
                    sorted(
                        {
                            r
                            for v in per_view
                            if v[0] is EntryClass.INVALID
                            for r in v[1]
                        },
                        key=str,
                    )
                )
                verdicts[index] = (EntryClass.INVALID, reasons)

    def _record_view_verdict(
        self,
        view: _PubView,
        verdict: Tuple[EntryClass, Tuple[Reason, ...]],
        verdicts: List[Optional[Tuple[EntryClass, Tuple[Reason, ...]]]],
        view_verdicts: Dict[int, List[Tuple[EntryClass, Tuple[Reason, ...]]]],
    ) -> None:
        if view.entry.aggregated:
            view_verdicts.setdefault(view.index, []).append(verdict)
        else:
            verdicts[view.index] = verdict

    def _judge_pair(
        self,
        topic: str,
        seq: int,
        publisher: Optional[str],
        subscriber: str,
        pub_view: Optional[_PubView],
        sub_index: Optional[int],
        entries: List[LogEntry],
        verdicts: List[Optional[Tuple[EntryClass, Tuple[Reason, ...]]]],
        transmissions: List[Optional[TransmissionId]],
        view_verdicts: Dict[int, List[Tuple[EntryClass, Tuple[Reason, ...]]]],
        report: AuditReport,
    ) -> None:
        """Apply Lemmas 1-3 to one (topic, seq, subscriber) transmission."""
        transmission = TransmissionId(
            topic=topic, seq=seq, publisher=publisher or "", subscriber=subscriber
        )
        pub_key = self._keystore.find(publisher) if publisher else None
        sub_key = self._keystore.find(subscriber)

        sub_entry = entries[sub_index] if sub_index is not None else None
        if sub_index is not None:
            transmissions[sub_index] = transmission
        if pub_view is not None:
            transmissions[pub_view.index] = transmission

        # The subscriber's proof: the publisher's signature it reports must
        # verify (under the publisher's key) for the digest it reports.
        sub_proof = False
        if sub_entry is not None and pub_key is not None and sub_entry.peer_sig:
            sub_proof = self._verify(
                pub_key, sub_entry.reported_hash(), sub_entry.peer_sig
            )

        # The publisher's proof: the subscriber's ACK signature it reports
        # must verify for the acknowledged hash, and that hash must equal
        # the digest of the data the publisher claims to have sent.
        pub_proof = False
        pub_consistent = False
        if pub_view is not None and sub_key is not None and pub_view.peer_sig:
            pub_proof = self._verify(sub_key, pub_view.peer_hash, pub_view.peer_sig)
            pub_consistent = pub_view.peer_hash == pub_view.entry.reported_hash()

        if pub_view is not None and sub_entry is not None:
            digests_agree = (
                pub_view.entry.reported_hash() == sub_entry.reported_hash()
            )
            if sub_proof and pub_proof and pub_consistent and not digests_agree:
                # Both counterpart proofs verify for different digests:
                # each party signed two payloads for one seq -- provable
                # pairwise collusion (cf. DisputeVerdict UNRESOLVABLE).
                from repro.audit.verdicts import PairAnomaly

                report.anomalies.append(
                    PairAnomaly(
                        transmission=transmission,
                        publisher_digest=pub_view.entry.reported_hash(),
                        subscriber_digest=sub_entry.reported_hash(),
                    )
                )
            # subscriber side
            if sub_proof:
                reason = (
                    Reason.CONSISTENT_PAIR if digests_agree else Reason.COUNTERPART_ACK
                )
                verdicts[sub_index] = (EntryClass.VALID, (reason,))
            else:
                # By (4) a faithful publisher's M_x carried a valid pair, so
                # an unverifiable claimed s''_x means L_y lied (Lemma 3 ii /
                # Figure 8 (b)).
                verdicts[sub_index] = (
                    EntryClass.INVALID,
                    (Reason.FALSIFIED_DATA if not digests_agree else Reason.FABRICATED,),
                )
            # publisher side
            if pub_proof and pub_consistent:
                reason = (
                    Reason.CONSISTENT_PAIR if digests_agree else Reason.COUNTERPART_ACK
                )
                self._record_view_verdict(
                    pub_view, (EntryClass.VALID, (reason,)), verdicts, view_verdicts
                )
            elif pub_proof and not pub_consistent:
                # The subscriber acknowledged something other than what the
                # publisher claims to have sent: L_x falsified (Lemma 3 i).
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.INVALID, (Reason.FALSIFIED_DATA,)),
                    verdicts,
                    view_verdicts,
                )
            else:
                reason = (
                    Reason.FALSIFIED_DATA if not digests_agree and sub_proof
                    else Reason.FABRICATED
                )
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.INVALID, (reason,)),
                    verdicts,
                    view_verdicts,
                )
            return

        if pub_view is not None:
            # Only the publisher logged.  Its embedded ACK, if valid, proves
            # the subscriber received the data (Lemma 2) -> the subscriber's
            # missing entry is hidden.
            if not pub_view.peer_sig:
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.INVALID, (Reason.UNPROVEN_PUBLICATION,)),
                    verdicts,
                    view_verdicts,
                )
                return
            if pub_proof and pub_consistent:
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.VALID, (Reason.COUNTERPART_ACK,)),
                    verdicts,
                    view_verdicts,
                )
                report.hidden.append(
                    HiddenRecord(
                        component_id=subscriber,
                        direction=Direction.IN,
                        transmission=transmission,
                    )
                )
            elif pub_proof:
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.INVALID, (Reason.FALSIFIED_DATA,)),
                    verdicts,
                    view_verdicts,
                )
            else:
                # An ACK signature nobody can verify: fabricated (Lemma 1).
                self._record_view_verdict(
                    pub_view,
                    (EntryClass.INVALID, (Reason.FABRICATED,)),
                    verdicts,
                    view_verdicts,
                )
            return

        if sub_entry is not None:
            # Only the subscriber logged.  Its embedded publisher signature,
            # if valid, proves the publication (Lemma 2) -> the publisher's
            # missing entry is hidden.
            if sub_proof:
                verdicts[sub_index] = (EntryClass.VALID, (Reason.COUNTERPART_ACK,))
                if publisher:
                    report.hidden.append(
                        HiddenRecord(
                            component_id=publisher,
                            direction=Direction.OUT,
                            transmission=transmission,
                        )
                    )
            else:
                # No publisher entry and no verifiable publisher signature:
                # the subscriber fabricated the receipt (Lemma 1).
                verdicts[sub_index] = (EntryClass.INVALID, (Reason.FABRICATED,))
