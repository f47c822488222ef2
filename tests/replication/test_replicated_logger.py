"""ReplicatedLogger: quorum fan-out, breakers, failover, divergence.

The centerpiece is the deterministic failover scenario of the issue: a
3-replica set under a live ADLP publish-subscribe pair loses one replica
mid-publish, keeps a durable quorum, quarantines the dead replica, and
readmits it -- commitment-identical -- after anti-entropy catch-up, with
the final replica-set audit showing zero false verdicts.
"""

import time

import pytest

from repro.audit import audit_replica_set
from repro.core import AdlpProtocol, LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.policy import ReplicationConfig
from repro.errors import LoggingError
from repro.middleware import Master, Node
from repro.middleware.msgtypes import StringMsg
from repro.replication import BreakerState, ReplicatedLogger
from repro.util.concurrency import wait_for

FAST = ReplicationConfig(
    breaker_failure_threshold=2,
    breaker_reset_timeout=0.05,
    breaker_max_reset_timeout=0.2,
    health_timeout=2.0,
)


def entry(seq, component="/p"):
    return LogEntry(
        component_id=component,
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % seq,
    )


@pytest.fixture()
def replica_set():
    servers = [LogServer() for _ in range(3)]
    endpoints = [LogServerEndpoint(s) for s in servers]
    yield servers, endpoints
    for endpoint in endpoints:
        endpoint.close()


@pytest.fixture()
def rlogger(replica_set):
    _, endpoints = replica_set
    rlogger = ReplicatedLogger([e.address for e in endpoints], config=FAST)
    yield rlogger
    rlogger.close()


class TestFanOut:
    def test_submit_reaches_every_replica(self, replica_set, rlogger):
        servers, _ = replica_set
        for i in range(5):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 5 for s in servers))
        roots = {s.merkle_root() for s in servers}
        assert len(roots) == 1  # identical order everywhere

    def test_register_key_fans_to_all(self, replica_set, rlogger, keypool):
        servers, _ = replica_set
        rlogger.register_key("/p", keypool[0].public)
        for server in servers:
            assert server.public_key("/p") == keypool[0].public

    def test_register_key_needs_quorum(self, replica_set, keypool):
        _, endpoints = replica_set
        endpoints[0].close()
        endpoints[1].close()
        rlogger = ReplicatedLogger([e.address for e in endpoints], config=FAST)
        try:
            with pytest.raises(LoggingError, match="quorum"):
                rlogger.register_key("/p", keypool[0].public)
        finally:
            rlogger.close()

    def test_quorum_accounting(self, replica_set, rlogger):
        servers, endpoints = replica_set
        rlogger.submit(entry(0))
        assert rlogger.quorum_status()["quorum_met"]
        endpoints[2].close()
        # two failed submits trip replica 2's breaker; quorum of 2 holds
        for i in range(1, 6):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        status = rlogger.quorum_status()
        assert status["quorum"] == 2
        assert status["breakers_closed"] == 2
        assert status["quorum_met"]
        stats = rlogger.stats()
        assert stats["quorum_submits"] >= 1
        assert stats["breaker_opens"] == 1
        assert wait_for(lambda: len(servers[0]) == 6 and len(servers[1]) == 6)

    def test_entry_objects_and_raw_bytes_both_accepted(self, replica_set, rlogger):
        servers, _ = replica_set
        rlogger.submit(entry(0))
        rlogger.submit(entry(1).encode())
        assert wait_for(lambda: all(len(s) == 2 for s in servers))


class TestBreakerLifecycle:
    def test_dead_replica_trips_breaker_and_is_skipped(self, replica_set, rlogger):
        _, endpoints = replica_set
        endpoints[1].close()
        for i in range(6):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        status = rlogger.statuses()[1]
        assert status.breaker == "open"
        assert status.skipped >= 1  # fan-out stopped wasting work on it

    def test_probe_readmits_only_caught_up_replicas(self, replica_set, rlogger):
        servers, endpoints = replica_set
        for i in range(8):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 8 for s in servers))
        endpoints[1].close()
        for i in range(8, 12):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        assert rlogger.statuses()[1].breaker == "open"

        # replica 1 restarts EMPTY on a new port: alive, but far behind
        servers[1] = LogServer()
        endpoints[1] = LogServerEndpoint(servers[1])
        rlogger.reset_replica(1, endpoints[1].address)
        time.sleep(0.25)  # let the open interval expire
        rlogger.probe()
        status = rlogger.statuses()[1]
        assert status.breaker == "open"  # alive is not enough
        assert "catch_up" in status.last_error

        results = rlogger.catch_up(replica=1)
        assert results[0].ok, results
        assert rlogger.statuses()[1].breaker == "closed"
        assert servers[0].commitment() == servers[1].commitment()

    def test_total_outage_keeps_readmission_lag_check(self, replica_set, rlogger):
        """With EVERY breaker open (full outage) there is no live replica
        to reference; readmission must fall back to the best commitment
        ever observed rather than skip the lag check -- an empty rejoiner
        waved through here would fork the moment submits resume."""
        servers, endpoints = replica_set
        for i in range(6):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 6 for s in servers))
        rlogger.probe()  # record every replica's commitment at 6 entries
        for endpoint in endpoints:
            endpoint.close()  # total outage
        for i in range(6, 10):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        assert all(s.breaker == "open" for s in rlogger.statuses())

        # replica 1 restarts EMPTY while both its peers are still down
        servers[1] = LogServer()
        endpoints[1] = LogServerEndpoint(servers[1])
        rlogger.reset_replica(1, endpoints[1].address)
        time.sleep(0.3)  # let the open intervals expire
        rlogger.probe()
        status = rlogger.statuses()[1]
        assert status.breaker == "open"  # alive is still not enough
        assert "catch_up" in status.last_error

    def test_readmitted_replica_receives_new_submits(self, replica_set, rlogger):
        servers, endpoints = replica_set
        endpoints[2].close()
        for i in range(4):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        assert rlogger.statuses()[2].breaker == "open"
        servers[2] = LogServer()
        endpoints[2] = LogServerEndpoint(servers[2])
        rlogger.reset_replica(2, endpoints[2].address)
        assert rlogger.catch_up(replica=2)[0].ok
        assert rlogger.statuses()[2].breaker == "closed"
        rlogger.submit(entry(4))  # the rejoined replica is on the data path
        # Fire-and-forget fan-out: either replica may ingest it first.
        assert wait_for(lambda: len(servers[0]) == len(servers[2]) == 5)
        assert servers[0].commitment() == servers[2].commitment()


def diverge_replica(servers, rogue=2, entries=4):
    """Feed replicas identical histories except for one record on the
    rogue: same entry count everywhere, different content -- exactly what
    a replica that substituted a record would present."""
    for i in range(entries):
        record = entry(i).encode()
        for index, server in enumerate(servers):
            if index == rogue and i == 1:
                server.submit(entry(99).encode())  # the substitution
            else:
                server.submit(record)


class TestDivergenceQuarantine:
    def test_minority_divergent_replica_is_quarantined(self, replica_set, rlogger):
        servers, _ = replica_set
        diverge_replica(servers, rogue=2)
        evidence = rlogger.probe()
        assert evidence, "divergence must surface on the next probe round"
        assert evidence[0].entries == 4
        roots = dict(evidence[0].roots)
        assert roots["replica-2"] != roots["replica-0"]  # presentable proof
        statuses = rlogger.statuses()
        assert statuses[2].breaker == "open"  # minority side quarantined
        assert statuses[0].breaker == "closed"
        assert statuses[1].breaker == "closed"
        assert rlogger.divergence()  # evidence is retained

    def test_rogue_probed_first_does_not_drag_down_the_majority(
        self, replica_set, rlogger
    ):
        """Probe order must not decide who gets quarantined.  With the
        rogue at index 0 the divergence evidence is emitted while only
        two commitments are known (a 1-vs-1 'split'); the quarantine
        decision still has to vote with the full round's healths and
        flag only the true minority."""
        servers, _ = replica_set
        diverge_replica(servers, rogue=0)
        evidence = rlogger.probe()
        assert evidence
        statuses = rlogger.statuses()
        assert statuses[0].breaker == "open"  # the rogue
        assert statuses[1].breaker == "closed"  # the honest majority
        assert statuses[2].breaker == "closed"
        assert rlogger.quorum_status()["quorum_met"]

    def test_divergent_replica_does_not_count_toward_quorum(
        self, replica_set, rlogger
    ):
        servers, _ = replica_set
        diverge_replica(servers, rogue=2)
        rlogger.probe()
        status = rlogger.quorum_status()
        assert status["breakers_closed"] == 2
        assert status["quorum_met"]  # 2/3 honest replicas still suffice


class TestEndToEndFailover:
    def test_adlp_pair_survives_replica_death_with_no_evidence_loss(
        self, replica_set, keypool, fast_config
    ):
        """The issue's acceptance scenario, deterministic flavor: a live
        ADLP publisher/subscriber pair logging through a 3-replica set
        loses one replica mid-publish.  Quorum submits continue, the
        breaker opens, catch-up restores a commitment-identical replica,
        and the replica-set audit shows every transmission valid --
        nothing false, nothing hidden."""
        servers, endpoints = replica_set
        shared = ReplicatedLogger([e.address for e in endpoints], config=FAST)
        master = Master()
        pub_protocol = AdlpProtocol(
            "/pub", shared, config=fast_config, keypair=keypool[0]
        )
        sub_protocol = AdlpProtocol(
            "/sub", shared, config=fast_config, keypair=keypool[1]
        )
        pub_node = Node("/pub", master, protocol=pub_protocol)
        sub_node = Node("/sub", master, protocol=sub_protocol)
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            for i in range(4):
                pub.publish(StringMsg(data=f"before-{i}"))
            assert sub.wait_for_messages(4)
            # 2 entries per transmission (publisher + subscriber)
            assert wait_for(lambda: len(servers[0]) >= 8)

            endpoints[1].close()  # replica 1 dies mid-run
            for i in range(4):
                pub.publish(StringMsg(data=f"during-{i}"))
                time.sleep(0.01)
            assert sub.wait_for_messages(8)
            assert wait_for(
                lambda: len(servers[0]) >= 16 and len(servers[2]) >= 16
            )
            assert wait_for(
                lambda: shared.statuses()[1].breaker == "open", timeout=2.0
            )
            assert shared.quorum_status()["quorum_met"]  # limping, durable
        finally:
            pub_node.shutdown()
            sub_node.shutdown()

        # replica 1 restarts empty on a fresh port; anti-entropy rejoin
        servers[1] = LogServer()
        endpoints[1] = LogServerEndpoint(servers[1])
        shared.reset_replica(1, endpoints[1].address)
        results = shared.catch_up(replica=1)
        assert results[0].ok, results
        assert servers[0].commitment() == servers[1].commitment()
        assert servers[0].commitment() == servers[2].commitment()
        shared.close()

        # audit the replica set as one logical logger: every replica
        # agrees and every transmission is provably accounted for
        clients = [RemoteLogger(e.address) for e in endpoints]
        try:
            audit = audit_replica_set(clients)
        finally:
            for client in clients:
                client.close()
        assert audit.divergent == []
        assert audit.unreachable == []
        assert sorted(audit.agreeing) == [0, 1, 2]
        assert audit.report.flagged_components() == []
        assert len(audit.report.valid_entries()) == len(servers[0])
        assert audit.report.hidden == []


class TestLifecycle:
    def test_background_prober_runs_and_stops(self, replica_set):
        _, endpoints = replica_set
        config = ReplicationConfig(probe_interval=0.02)
        rlogger = ReplicatedLogger([e.address for e in endpoints], config=config)
        rlogger.start_probing()
        assert wait_for(
            lambda: all(s.entries is not None for s in rlogger.statuses())
        )
        rlogger.close()
        assert rlogger._prober is None

    def test_needs_at_least_one_address(self):
        with pytest.raises(ValueError):
            ReplicatedLogger([])

    def test_addresses_from_config(self, replica_set):
        _, endpoints = replica_set
        config = ReplicationConfig(
            replicas=tuple(e.address for e in endpoints)
        )
        rlogger = ReplicatedLogger(config=config)
        assert rlogger.replica_count == 3
        assert rlogger.quorum == 2
        rlogger.close()

    def test_stats_shape_for_protocol_merge(self, replica_set, rlogger):
        stats = rlogger.stats()
        for key in (
            "replicated_submits",
            "quorum_submits",
            "degraded_submits",
            "replica_dropped",
            "replica_spilled",
            "replica_skipped",
            "breaker_opens",
        ):
            assert key in stats
