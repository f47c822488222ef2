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

Both steps judge one entry or one transmission at a time, so the audit is
an incremental fold (:class:`AuditFold`): the batch :class:`Auditor` feeds
it the whole log once, the online auditor entry by entry.

The guarantees match the paper: every faithful component's entries are
classified valid (Theorem 1), and in a collusion-free run every unfaithful
act is attributed (Theorem 2).  Colluding pairs can still manufacture
mutually consistent lies; those are classified valid, exactly as the paper
concedes (:math:`\\widehat{L_V} \\subseteq L_{V,f}` need not hold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.audit.verdicts import (
    AuditReport,
    ClassifiedEntry,
    EntryClass,
    HiddenRecord,
    PairAnomaly,
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
    index: int  # index of the parent entry in the fold's input


@dataclass
class _Group:
    """The usable entries of one ``(topic, seq)``: per subscriber, the
    first OUT view toward it and the first IN entry by it."""

    views: Dict[str, _PubView] = field(default_factory=dict)
    subs: Dict[str, int] = field(default_factory=dict)


#: an entry's verdict: its class and the reasons behind it
Verdict = Tuple[EntryClass, Tuple[Reason, ...]]
#: one transmission: (topic, seq, subscriber); subscriber '' is an un-ACKed view
TransKey = Tuple[str, int, str]
_Triple = Tuple[PublicKey, bytes, bytes]

#: by Lemma 1 an entry no counterpart evidence backs proves nothing
_UNPAIRED: Verdict = (EntryClass.INVALID, (Reason.UNPROVEN_PUBLICATION,))
_REPLAYED: Verdict = (EntryClass.INVALID, (Reason.REPLAYED_SEQUENCE,))


def _entry_subscribers(entry: LogEntry) -> List[str]:
    """Subscribers an OUT entry claims ACKs from ('' for no-ACK)."""
    if entry.aggregated:
        return list(entry.ack_peer_ids)
    return [entry.peer_id]


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


def _combine(per_view: List[Verdict]) -> Verdict:
    """One OUT entry's verdict from those of its views: valid only if every
    view is (an aggregated entry answers for each subscriber)."""
    if all(v[0] is EntryClass.VALID for v in per_view):
        return EntryClass.VALID, tuple(sorted({r for v in per_view for r in v[1]}, key=str))
    return EntryClass.INVALID, tuple(
        sorted({r for v in per_view if v[0] is EntryClass.INVALID for r in v[1]}, key=str)
    )


class AuditFold:
    """The Figure 5 classification as an incremental fold over a log.

    - :meth:`feed` takes the next entries.  It verifies their distinct
      ``(key, digest, signature)`` triples with one
      :meth:`~repro.crypto.schemes.SignatureScheme.verify_batch` per
      scheme, runs obvious detection (eq. 3) against the replay sets the
      fold holds, and judges every transmission that now has both sides.
    - :meth:`close` judges one-sided transmissions -- Lemma 2's hidden
      inference.  A counterpart that arrives later re-opens its
      transmission and judges it again, as does a subscriber-only
      transmission whose publisher the first OUT entry of its ``(topic,
      seq)`` reveals.
    - :meth:`report` closes everything and returns the
      :class:`AuditReport`: entries in input order, hidden records and
      anomalies in ``(topic, seq, subscriber)`` order.

    :meth:`feed` and :meth:`close` return what they changed: the entries
    whose verdict is now decided or different, and new hidden records and
    anomalies.  A triple is verified once for the life of the fold; a
    check the batch did not anticipate is verified on the spot and kept.
    However the entries are split into feeds and closes, :meth:`report`
    equals one feed of all of them.  The topology is fixed for the life of
    the fold: entries not fed yet cannot vote on it, so
    :meth:`Auditor.audit` infers one from the whole log before the feed
    when it was given none.

    A fed entry is treated as immutable: :meth:`feed` hashes its reported
    data once, and every later check reads that digest.
    """

    def __init__(self, keystore: KeyStore, topology: Topology):
        self._keystore = keystore
        self._topology = topology
        self._entries: List[LogEntry] = []
        #: per fed entry, its :meth:`LogEntry.reported_hash`
        self._digests: List[bytes] = []
        #: per fed entry, its verdict once decided
        self._classified: List[Optional[ClassifiedEntry]] = []
        #: usable OUT entry index -> subscriber of each view it owns ->
        #: that transmission's verdict on it (None until judged)
        self._views: Dict[int, Dict[str, Optional[Tuple[Verdict, TransmissionId]]]] = {}
        self._groups: Dict[Tuple[str, int], _Group] = {}
        self._seen_in: Set[Tuple[str, str, int]] = set()
        self._seen_out: Set[Tuple[str, str, int, str]] = set()
        self._verified: Dict[_Triple, bool] = {}
        self._judged: Set[TransKey] = set()
        self._hidden: Dict[TransKey, HiddenRecord] = {}
        self._anomalies: Dict[TransKey, PairAnomaly] = {}
        #: one-sided transmissions not judged yet, in the order they opened
        self.pending: Dict[TransKey, None] = {}
        #: fed entries whose verdict is decided
        self.judged_entries = 0

    # -- the three operations ------------------------------------------

    def feed(self, entries: List[LogEntry]) -> AuditReport:
        """Fold ``entries`` in; judge every transmission now two-sided."""
        start = len(self._entries)
        self._entries.extend(entries)
        self._digests.extend([e.reported_hash() for e in self._entries[start:]])
        self._classified.extend([None] * len(entries))
        self._verify_batches(self._triples(start))
        delta = AuditReport()
        outs: Set[int] = set()
        touched: Dict[TransKey, None] = {}
        for i in range(start, len(self._entries)):
            entry = self._entries[i]
            verdict = self._obvious(entry, self._digests[i])
            if verdict is None and entry.direction is Direction.IN and not entry.component_id:
                verdict = _UNPAIRED  # no subscriber to pair with
            if verdict is not None:
                self._decide(i, verdict, None, delta)
                continue
            self._index(i, touched)
            if entry.direction is Direction.OUT:
                outs.add(i)
        for key in touched:
            topic, seq, subscriber = key
            group = self._groups[(topic, seq)]
            two_sided = subscriber in group.views and subscriber in group.subs
            if not subscriber or two_sided or key in self._judged:
                self._judge(key, outs, delta)
            else:
                self.pending[key] = None
        self._recombine(outs, delta)
        return delta

    def close(self, keys: Optional[Iterable[TransKey]] = None) -> AuditReport:
        """Judge the pending transmissions among ``keys`` (all if None)
        as they stand, one side missing."""
        delta = AuditReport()
        outs: Set[int] = set()
        for key in list(self.pending if keys is None else keys):
            if key in self.pending:
                self._judge(key, outs, delta)
        self._recombine(outs, delta)
        return delta

    def report(self) -> AuditReport:
        """Close every transmission and report the whole log."""
        self.close()
        report = AuditReport(
            classified=list(self._classified),
            hidden=[self._hidden[key] for key in sorted(self._hidden)],
            anomalies=[self._anomalies[key] for key in sorted(self._anomalies)],
        )
        report._account()
        return report

    # -- batched verification ------------------------------------------

    def _triples(self, start: int) -> Iterator[Tuple[Optional[PublicKey], bytes, bytes]]:
        """Every (key, digest, sig) the judgement of the entries from
        ``start`` on will check -- own signatures, the publisher signature
        each IN entry reports, the ACK signature behind each OUT view."""
        for i in range(start, len(self._entries)):
            entry = self._entries[i]
            if entry.scheme is not Scheme.ADLP:
                continue
            digest = self._digests[i]
            yield self._keystore.find(entry.component_id), digest, entry.own_sig
            if entry.direction is Direction.IN:
                publisher = self._topology.publisher_of.get(entry.topic)
                pub_key = self._keystore.find(publisher) if publisher else None
                yield pub_key, digest, entry.peer_sig
            else:
                for view in _pub_views(entry, i):
                    if view.subscriber:
                        yield self._keystore.find(view.subscriber), view.peer_hash, view.peer_sig

    def _verify_batches(self, triples) -> None:
        """Verify the triples the fold has not verified yet, one batch per
        signature scheme."""
        # scheme name -> its distinct triples, first-seen order
        wanted: Dict[str, Dict[_Triple, None]] = {}
        for key, digest, signature in triples:
            if key is not None and digest and signature:
                wanted.setdefault(key.scheme_name, {})[(key, digest, signature)] = None
        for scheme_name, distinct in wanted.items():
            batch = [triple for triple in distinct if triple not in self._verified]
            if not batch:
                continue
            results = get_scheme(scheme_name).verify_batch(
                [(key.numbers, digest, sig) for key, digest, sig in batch]
            )
            self._verified.update(zip(batch, results))

    def _verify(self, key: PublicKey, digest: bytes, signature: bytes) -> bool:
        """One signature check: the batch's answer, else verified now."""
        triple = (key, digest, signature)
        verified = self._verified.get(triple)
        if verified is None:
            verified = self._verified[triple] = key.verify_digest(digest, signature)
        return verified

    # -- obvious detection (eq. 3) ---------------------------------------

    def _obvious(self, entry: LogEntry, digest: bytes) -> Optional[Verdict]:
        """The verdict of an obviously invalid entry; None if it is usable."""
        if entry.scheme is not Scheme.ADLP:
            # Naive/no-scheme entries carry no cryptographic commitment:
            # nothing about them is provable (the paper's motivation).
            return EntryClass.INVALID, (Reason.UNVERIFIABLE_SCHEME,)
        key = self._keystore.find(entry.component_id)
        if key is None:
            return EntryClass.INVALID, (Reason.UNKNOWN_COMPONENT,)
        if not digest or not entry.own_sig:
            return EntryClass.INVALID, (Reason.MISSING_COMMITMENT,)
        if not self._verify(key, digest, entry.own_sig):
            # eq. (3) fails: also covers impersonation -- an entry
            # written under someone else's id cannot carry their
            # signature (footnote on "Obvious Detection").
            return EntryClass.INVALID, (Reason.BAD_OWN_SIGNATURE,)
        expected_type = self._topology.type_of.get(entry.topic)
        if expected_type is not None and entry.type_name != expected_type:
            # "type(D_x) = type(D'_x) = ... always hold because
            # otherwise it is obviously detectable" (Section IV-B).
            return EntryClass.INVALID, (Reason.TYPE_MISMATCH,)
        if entry.direction is Direction.OUT:
            expected = self._topology.publisher_of.get(entry.topic)
            if expected is not None and expected != entry.component_id:
                return EntryClass.INVALID, (Reason.NOT_TOPIC_PUBLISHER,)
            for subscriber in _entry_subscribers(entry):
                out_key = (entry.component_id, entry.topic, entry.seq, subscriber)
                if out_key in self._seen_out:
                    return _REPLAYED
                self._seen_out.add(out_key)
        else:
            in_key = (entry.component_id, entry.topic, entry.seq)
            if in_key in self._seen_in:
                return _REPLAYED
            self._seen_in.add(in_key)
        return None

    # -- pairwise verification (Lemmas 1-3) ------------------------------

    def _publisher(self, topic: str, group: _Group) -> Optional[str]:
        publisher = self._topology.publisher_of.get(topic)
        if publisher is None and group.views:
            publisher = next(iter(group.views.values())).entry.component_id
        return publisher

    def _index(self, i: int, touched: Dict[TransKey, None]) -> None:
        """File a usable entry under its transmissions; the first entry
        per side of a transmission is the one judged."""
        entry = self._entries[i]
        topic, seq = entry.topic, entry.seq
        group = self._groups.setdefault((topic, seq), _Group())
        if entry.direction is Direction.IN:
            group.subs[entry.component_id] = i
            touched[(topic, seq, entry.component_id)] = None
            return
        owned = self._views[i] = {}
        if not group.views and self._topology.publisher_of.get(topic) is None:
            # this entry names the publisher subscriber-only
            # transmissions were judged without
            for subscriber in group.subs:
                touched[(topic, seq, subscriber)] = None
        for view in _pub_views(entry, i):
            if view.subscriber not in group.views:
                group.views[view.subscriber] = view
                owned[view.subscriber] = None
                touched[(topic, seq, view.subscriber)] = None

    def _judge(
        self, key: TransKey, outs: Set[int], delta: AuditReport
    ) -> None:
        """Apply Lemmas 1-3 to one (topic, seq, subscriber) transmission."""
        topic, seq, subscriber = key
        group = self._groups[(topic, seq)]
        publisher = self._publisher(topic, group)
        transmission = TransmissionId(topic, seq, publisher or "", subscriber)
        pub_view = group.views.get(subscriber)
        sub_index = group.subs.get(subscriber)
        sub_entry = self._entries[sub_index] if sub_index is not None else None
        self.pending.pop(key, None)
        self._judged.add(key)
        sub_verdict = pub_verdict = hidden = anomaly = None

        if not subscriber:
            # An OUT view with no acknowledged subscriber (ACK timeout).
            pub_verdict = _UNPAIRED
        else:
            pub_key = self._keystore.find(publisher) if publisher else None
            sub_key = self._keystore.find(subscriber)
            # The subscriber's proof: the publisher's signature it reports
            # must verify (under the publisher's key) for the digest it
            # reports.
            sub_proof = False
            if sub_entry is not None and pub_key is not None and sub_entry.peer_sig:
                sub_proof = self._verify(
                    pub_key, self._digests[sub_index], sub_entry.peer_sig
                )
            # The publisher's proof: the subscriber's ACK signature it
            # reports must verify for the acknowledged hash, and that hash
            # must equal the digest of the data the publisher claims to
            # have sent.
            pub_proof = False
            pub_consistent = False
            if pub_view is not None and sub_key is not None and pub_view.peer_sig:
                pub_proof = self._verify(sub_key, pub_view.peer_hash, pub_view.peer_sig)
                pub_consistent = pub_view.peer_hash == self._digests[pub_view.index]

            if pub_view is not None and sub_entry is not None:
                pub_digest = self._digests[pub_view.index]
                sub_digest = self._digests[sub_index]
                agree = pub_digest == sub_digest
                if sub_proof and pub_proof and pub_consistent and not agree:
                    # Both counterpart proofs verify for different digests:
                    # each party signed two payloads for one seq -- provable
                    # pairwise collusion (cf. DisputeVerdict UNRESOLVABLE).
                    anomaly = PairAnomaly(transmission, pub_digest, sub_digest)
                proven = (
                    EntryClass.VALID,
                    (Reason.CONSISTENT_PAIR if agree else Reason.COUNTERPART_ACK,),
                )
                # By (4) a faithful publisher's M_x carried a valid pair, so
                # an unverifiable claimed s''_x means L_y lied (Lemma 3 ii /
                # Figure 8 (b)).
                sub_verdict = proven if sub_proof else (
                    EntryClass.INVALID,
                    (Reason.FABRICATED if agree else Reason.FALSIFIED_DATA,),
                )
                if pub_proof and pub_consistent:
                    pub_verdict = proven
                elif pub_proof:
                    # The subscriber acknowledged something other than what
                    # the publisher claims to have sent: L_x falsified
                    # (Lemma 3 i).
                    pub_verdict = EntryClass.INVALID, (Reason.FALSIFIED_DATA,)
                else:
                    pub_verdict = EntryClass.INVALID, (
                        Reason.FALSIFIED_DATA if not agree and sub_proof
                        else Reason.FABRICATED,
                    )
            elif pub_view is not None:
                # Only the publisher logged.  Its embedded ACK, if valid,
                # proves the subscriber received the data (Lemma 2) -> the
                # subscriber's missing entry is hidden.
                if not pub_view.peer_sig:
                    pub_verdict = _UNPAIRED
                elif pub_proof and pub_consistent:
                    pub_verdict = EntryClass.VALID, (Reason.COUNTERPART_ACK,)
                    hidden = HiddenRecord(subscriber, Direction.IN, transmission)
                elif pub_proof:
                    pub_verdict = EntryClass.INVALID, (Reason.FALSIFIED_DATA,)
                else:
                    # An ACK signature nobody can verify: fabricated (Lemma 1).
                    pub_verdict = EntryClass.INVALID, (Reason.FABRICATED,)
            elif sub_proof:
                # Only the subscriber logged.  Its embedded publisher
                # signature proves the publication (Lemma 2) -> the
                # publisher's missing entry is hidden.
                sub_verdict = EntryClass.VALID, (Reason.COUNTERPART_ACK,)
                if publisher:
                    hidden = HiddenRecord(publisher, Direction.OUT, transmission)
            else:
                # No publisher entry and no verifiable publisher signature:
                # the subscriber fabricated the receipt (Lemma 1).
                sub_verdict = EntryClass.INVALID, (Reason.FABRICATED,)

        if sub_index is not None:
            self._decide(sub_index, sub_verdict, transmission, delta)
        if pub_view is not None:
            self._views[pub_view.index][subscriber] = (pub_verdict, transmission)
            outs.add(pub_view.index)
        for found, store, out in (
            (hidden, self._hidden, delta.hidden),
            (anomaly, self._anomalies, delta.anomalies),
        ):
            old = store.pop(key, None)
            if found is not None:
                store[key] = found
                if found != old:
                    out.append(found)

    def _decide(
        self,
        i: int,
        verdict: Verdict,
        transmission: Optional[TransmissionId],
        delta: AuditReport,
    ) -> None:
        """Record entry ``i``'s verdict; report it if new or different."""
        current = self._classified[i]
        if current is None:
            self.judged_entries += 1
        if current is None or (
            (current.verdict, current.reasons, current.transmission)
            != (*verdict, transmission)
        ):
            current = self._classified[i] = ClassifiedEntry(
                self._entries[i], *verdict, transmission
            )
            delta.classified.append(current)

    def _recombine(self, outs: Set[int], delta: AuditReport) -> None:
        """Decide the OUT entries among ``outs`` from their views."""
        for i in sorted(outs):
            verdict, transmission = self._out_verdict(i)
            if verdict is not None:
                self._decide(i, verdict, transmission, delta)

    def _out_verdict(self, i: int) -> Tuple[Optional[Verdict], Optional[TransmissionId]]:
        """A usable OUT entry's verdict: undecided while a view it owns is
        unjudged; Lemma 1's default when an earlier entry owns them all."""
        owned = self._views[i]
        if not owned:
            return _UNPAIRED, None
        if None in owned.values():
            return None, None
        if len(owned) == 1:
            return next(iter(owned.values()))
        # the transmission judged last by subscriber, the un-ACKed view after all
        last = "" if "" in owned else max(owned)
        return _combine([verdict for verdict, _ in owned.values()]), owned[last][1]


class Auditor:
    """Classifies a log into valid / invalid / hidden (Figure 5).

    :meth:`audit` feeds the whole log to one :class:`AuditFold` and reads
    its report: every distinct ``(key, digest, signature)`` triple is
    verified in one :meth:`~repro.crypto.schemes.SignatureScheme.verify_batch`
    per scheme, and a scheme's batch returns what its single verify
    returns, so the report is the per-signature one.
    """

    def __init__(self, keystore: KeyStore, topology: Optional[Topology] = None):
        self._keystore = keystore
        self._topology = topology

    @classmethod
    def for_server(
        cls, server: LogServer, topology: Optional[Topology] = None
    ) -> "Auditor":
        return cls(server.keystore, topology)

    def audit_server(self, server: LogServer) -> AuditReport:
        """Verify store integrity, then audit all entries."""
        server.verify_integrity()
        return self.audit(server.entries())

    def audit(self, entries: List[LogEntry]) -> AuditReport:
        """Run the full classification over ``entries``."""
        fold = AuditFold(self._keystore, self._topology or Topology.from_entries(entries))
        fold.feed(entries)
        return fold.report()
