"""End-to-end split-view detection: the issue's acceptance scenario.

A compromised trusted logger serves a fork -- one view to client group
A, a tampered view to group B.  Each group's proofs check out against
its own signed head (per-client verification alone is *insufficient*),
but one gossip exchange between the groups yields self-contained,
independently verifiable equivocation evidence; a replicated client
quarantines the logger on it and the online auditor reports it.
"""

import pytest

from repro.adversary import ForkingLogServer, tamper_timestamp
from repro.audit.auditor import Topology
from repro.audit.online import OnlineAuditor
from repro.core import LogServerEndpoint, RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.crypto.keystore import KeyStore
from repro.core.policy import ReplicationConfig
from repro.gossip import EquivocationEvidence, GossipRelay, gossip_round
from repro.replication import ReplicatedLogger
from tests.sim.matrix import EQUIVOCATION_ROUND_BOUND

FAST = ReplicationConfig(
    breaker_failure_threshold=2,
    breaker_reset_timeout=0.05,
    breaker_max_reset_timeout=0.2,
    health_timeout=2.0,
)

RECORDS = 12
FORK_AT = 6


def entry(seq):
    return LogEntry(
        component_id="/p", topic="/t", type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=b"payload-%04d" % seq,
    )


@pytest.fixture()
def forked_world(keypool):
    """A forking logger behind two endpoints (one per audience), with the
    submission stream already ingested into both views."""
    fork = ForkingLogServer(
        keypool[0].private, log_id="split-view", fork_at=FORK_AT,
        mutate=tamper_timestamp,
    )
    endpoints = [LogServerEndpoint(fork.face(view)) for view in ("honest", "forked")]
    clients = [RemoteLogger(e.address) for e in endpoints]
    clients[0].submit_batch_sync([entry(seq).encode() for seq in range(RECORDS)])
    assert all(
        len(fork.face(view)) == RECORDS for view in ("honest", "forked")
    ), "both views must ingest the full stream"
    yield fork, endpoints, clients
    for client in clients:
        client.close()
    for endpoint in endpoints:
        endpoint.close()
    fork.close()


class TestSplitView:
    def test_each_group_alone_is_convinced(self, forked_world, keypool):
        """Both audiences get internally consistent, fully proven views --
        the lie is invisible without gossip."""
        fork, _, clients = forked_world
        heads = []
        for client in clients:
            sth = client.fetch_sth()
            assert sth.verify(keypool[0].public)
            assert sth.entries == RECORDS
            for index in range(RECORDS):
                proof = client.prove_inclusion(index, tree_size=sth.entries)
                record = client.fetch_records(index, 1)[0]
                assert proof.verify(record, sth.merkle_root)
            heads.append(sth)
        # Same signed size, different roots: the fork is real.
        assert heads[0].merkle_root != heads[1].merkle_root

    def test_gossip_detects_within_bounded_rounds(self, forked_world, keypool):
        fork, _, clients = forked_world
        relays = []
        for label, client in zip(("group-a", "group-b"), clients):
            relay = GossipRelay(label)
            relay.register_key(fork.log_id, keypool[0].public)
            assert relay.observe(client.fetch_sth(), source=label) == []
            relays.append(relay)
        rounds = 0
        while not any(r.evidence() for r in relays):
            rounds += 1
            assert rounds <= EQUIVOCATION_ROUND_BOUND
            gossip_round(relays)
        evidence = next(r for r in relays if r.evidence()).evidence()[0]
        assert evidence.log_id == fork.log_id
        assert evidence.verify(keypool[0].public)
        # Self-contained: a third party re-verifies it from bytes alone,
        # holding nothing but the logger's public key.
        portable = EquivocationEvidence.from_bytes(evidence.to_bytes())
        assert portable.verify(keypool[0].public)
        assert not portable.verify(keypool[1].public)

    def test_replicated_client_quarantines_the_liar(self, forked_world, keypool):
        fork, endpoints, _ = forked_world
        rlogger = ReplicatedLogger([e.address for e in endpoints], config=FAST)
        try:
            rlogger.enable_sth_gossip(keypool[0].public)
            rlogger.probe()
            assert rlogger.equivocation()
            assert rlogger.equivocation()[0].verify(keypool[0].public)
            statuses = rlogger.statuses()
            assert all(s.breaker == "open" for s in statuses)
            assert any(
                "equivocation" in (s.last_error or "") for s in statuses
            )
            assert rlogger.stats()["equivocation_evidence"] >= 1
            # The conviction is permanent: a later probe (past the breaker
            # reset window) must not readmit the forked logger.
            import time

            time.sleep(FAST.breaker_reset_timeout * 2)
            rlogger.probe()
            assert all(s.breaker == "open" for s in rlogger.statuses())
        finally:
            rlogger.close()

    def test_online_auditor_reports_the_conviction(self, forked_world, keypool):
        fork, _, clients = forked_world
        relay = GossipRelay("auditor-relay")
        relay.register_key(fork.log_id, keypool[0].public)
        auditor = OnlineAuditor(KeyStore(), Topology())
        auditor.watch_gossip(relay)
        for label, client in zip(("a", "b"), clients):
            relay.observe(client.fetch_sth(), source=label)
        findings = [f for f in auditor.findings if f.kind == "equivocation"]
        assert len(findings) == 1
        assert findings[0].component_id == fork.log_id
        assert "split-view" in findings[0].detail or fork.log_id in findings[0].detail
        # Late subscribers replay accumulated evidence exactly once.
        late = OnlineAuditor(KeyStore(), Topology())
        late.watch_gossip(relay)
        late.watch_gossip(relay)
        assert len([f for f in late.findings if f.kind == "equivocation"]) == 1
