"""Anti-entropy catch-up: replay, chain verification, fork refusal."""

import random

import pytest

from repro.core import LogServer, LogServerEndpoint
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.policy import ReplicationConfig
from repro.errors import LoggingError
from repro.replication import ReplicatedLogger
from repro.storage.durable_store import DurableLogStore
from repro.util.concurrency import wait_for

FAST = ReplicationConfig(
    breaker_failure_threshold=2,
    breaker_reset_timeout=0.05,
    fetch_batch=3,  # force multi-batch replays even for small logs
)


def entry(seq):
    return LogEntry(
        component_id="/p",
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


class TestCatchUp:
    def test_fresh_replica_catches_up_in_batches(self, replica_set, rlogger, keypool):
        """A replica restarting empty replays the full history (in
        fetch_batch-sized chunks) and lands commitment-identical."""
        servers, endpoints = replica_set
        rlogger.register_key("/p", keypool[0].public)
        for i in range(10):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 10 for s in servers))

        servers[1] = LogServer()
        endpoints[1] = LogServerEndpoint(servers[1])
        rlogger.reset_replica(1, endpoints[1].address)
        results = rlogger.catch_up(replica=1)
        assert results[0].ok
        assert results[0].replayed == 10
        assert servers[0].commitment() == servers[1].commitment()

    def test_catch_up_restores_key_registry(self, replica_set, rlogger, keypool):
        """The donor's key registry rides along, so replayed entries on
        the rejoined replica audit as valid, not UNKNOWN_COMPONENT."""
        servers, endpoints = replica_set
        rlogger.register_key("/p", keypool[0].public)
        rlogger.register_key("/q", keypool[1].public)
        for i in range(3):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 3 for s in servers))
        servers[2] = LogServer()
        endpoints[2] = LogServerEndpoint(servers[2])
        rlogger.reset_replica(2, endpoints[2].address)
        assert rlogger.catch_up(replica=2)[0].ok
        assert servers[2].public_key("/p") == keypool[0].public
        assert servers[2].public_key("/q") == keypool[1].public

    def test_partial_lag_replays_only_missing_suffix(self, replica_set, rlogger):
        """A replica that missed a window mid-stream gets only the suffix
        it lacks, not a full replay."""
        servers, endpoints = replica_set
        for i in range(4):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 4 for s in servers))
        # replica 0 sleeps through entries 4..7 (simulated by direct feed)
        for i in range(4, 8):
            record = entry(i).encode()
            servers[1].submit(record)
            servers[2].submit(record)
        results = rlogger.catch_up()  # no explicit target: finds laggards
        assert [r.replica for r in results] == [0]
        assert results[0].ok
        assert results[0].replayed == 4
        assert servers[0].commitment() == servers[1].commitment()

    def test_forked_replica_is_refused_not_overwritten(self, replica_set, rlogger):
        """A replica whose history contradicts the donor's must NOT be
        'caught up' -- replaying over a fork would bury the evidence.  The
        chain fold detects the fork and the replica stays quarantined."""
        servers, _ = replica_set
        for i in range(4):
            record = entry(i).encode()
            servers[1].submit(record)
            servers[2].submit(record)
        # replica 0: shorter AND forked (different record at index 1)
        servers[0].submit(entry(0).encode())
        servers[0].submit(entry(42).encode())
        results = rlogger.catch_up(replica=0)
        assert not results[0].ok
        assert "forked" in results[0].reason
        assert len(servers[0]) == 2  # untouched: the fork is evidence

    def test_no_reachable_replica_raises(self, replica_set):
        _, endpoints = replica_set
        for endpoint in endpoints:
            endpoint.close()
        rlogger = ReplicatedLogger([e.address for e in endpoints], config=FAST)
        try:
            with pytest.raises(LoggingError, match="no reachable"):
                rlogger.catch_up()
        finally:
            rlogger.close()

    def test_unreachable_target_reported_not_raised(self, replica_set, rlogger):
        servers, endpoints = replica_set
        for i in range(3):
            rlogger.submit(entry(i))
        assert wait_for(lambda: all(len(s) == 3 for s in servers))
        endpoints[1].close()
        results = rlogger.catch_up(replica=1)
        assert not results[0].ok

    def test_catch_up_verifies_against_live_donor_not_stale_snapshot(
        self, replica_set, rlogger
    ):
        """Live fan-out advancing the donor mid-replay must not slip past
        verification: comparing the laggard to a pre-replay snapshot would
        pass while the donor is already ahead, readmitting a still-lagging
        replica that forks on the next submit.  The freeze-and-verify step
        has to close the residual gap and rejoin commitment-identical with
        the donor's CURRENT state."""
        import time

        servers, endpoints = replica_set
        endpoints[2].close()
        for i in range(6):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        assert rlogger.statuses()[2].breaker == "open"
        assert wait_for(lambda: len(servers[0]) == 6 and len(servers[1]) == 6)
        servers[2] = LogServer()
        endpoints[2] = LogServerEndpoint(servers[2])
        rlogger.reset_replica(2, endpoints[2].address)

        # Make the donor advance deterministically mid-replay: the first
        # record fetch triggers a live submit (replica 2 is quarantined,
        # so it lands only on the healthy peers).
        donor_client = rlogger._handles[0].client
        real_fetch = donor_client.fetch_records
        injected = []

        def fetch_and_advance(start, count, **kwargs):
            batch = real_fetch(start, count, **kwargs)
            if not injected:
                injected.append(True)
                rlogger.submit(entry(100))
                assert wait_for(
                    lambda: len(servers[0]) == 7 and len(servers[1]) == 7
                )
            return batch

        donor_client.fetch_records = fetch_and_advance
        results = rlogger.catch_up(replica=2)
        assert results[0].ok, results
        assert results[0].replayed == 7  # 6 from the snapshot + 1 residual
        assert len(servers[2]) == 7
        assert servers[0].commitment() == servers[2].commitment()
        assert rlogger.statuses()[2].breaker == "closed"

        # the rejoined replica tracks new submissions without forking
        rlogger.submit(entry(101))
        assert wait_for(lambda: all(len(s) == 8 for s in servers))
        assert servers[0].commitment() == servers[2].commitment()

    def test_catch_up_discards_stale_spill(self, replica_set, rlogger):
        """Entries parked in a dead replica's client-side spill queue are
        superseded by the donor replay; keeping them would double-submit
        and fork the rejoined replica."""
        servers, endpoints = replica_set
        import time

        endpoints[2].close()
        for i in range(6):
            rlogger.submit(entry(i))
            time.sleep(0.01)
        assert wait_for(lambda: len(servers[0]) == 6 and len(servers[1]) == 6)
        # the breaker-open path already discarded the detection-window
        # spill; whatever the client still holds must not reach the server
        servers[2] = LogServer()
        endpoints[2] = LogServerEndpoint(servers[2])
        rlogger.reset_replica(2, endpoints[2].address)
        results = rlogger.catch_up(replica=2)
        assert results[0].ok
        assert len(servers[2]) == 6  # exactly the canonical history
        assert servers[0].commitment() == servers[2].commitment()


class TestCatchUpOfImageRecords:
    def test_replica_lagging_by_80_image_records_catches_up(self, tmp_path):
        """~74 MB of lag at the default ``fetch_batch``: the donor answers
        each fetch within one frame and the replay still lands
        commitment-identical."""
        data = random.Random(3).randbytes(921_641)  # the paper's Image
        servers = [
            LogServer(DurableLogStore(str(tmp_path / f"r{i}"), fsync="never"))
            for i in range(3)
        ]
        for seq in range(80):
            record = LogEntry(component_id="/camera", topic="/image", seq=seq,
                              scheme=Scheme.ADLP, data=data).encode()
            servers[1].submit(record)
            servers[2].submit(record)
        endpoints = [LogServerEndpoint(server) for server in servers]
        rlogger = ReplicatedLogger([e.address for e in endpoints])
        try:
            results = rlogger.catch_up(replica=0)
            assert results[0].ok, results
            assert results[0].replayed == 80
            assert servers[0].commitment() == servers[1].commitment()
        finally:
            rlogger.close()
            for endpoint in endpoints:
                endpoint.close()
            for server in servers:
                server.close()
