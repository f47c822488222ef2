"""The remote log server: registration, submission, failure tolerance."""

import random

import pytest

from repro.core import (
    AdlpConfig,
    AdlpProtocol,
    Direction,
    LogServer,
    LogServerEndpoint,
    RemoteLogger,
)
from repro.core.entries import LogEntry, Scheme
from repro.core.remote import BATCH_FRAME_BYTES
from repro.errors import LoggingError
from repro.middleware import Master, Node
from repro.middleware.msgtypes import StringMsg
from repro.storage.durable_store import DurableLogStore
from repro.util.concurrency import wait_for

#: the paper's Image message (Table I)
IMAGE_BYTES = 921_641


def image_records(count):
    """``count`` Image-sized log records, made one at a time."""
    data = random.Random(5).randbytes(IMAGE_BYTES)
    for seq in range(count):
        yield LogEntry(component_id="/camera", topic="/image", seq=seq,
                       scheme=Scheme.ADLP, data=data).encode()


@pytest.fixture()
def endpoint():
    server = LogServer()
    endpoint = LogServerEndpoint(server)
    yield server, endpoint
    endpoint.close()


class TestRemoteLogger:
    def test_key_registration_roundtrip(self, endpoint, keypool):
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        client.register_key("/a", keypool[0].public)
        assert server.public_key("/a") == keypool[0].public
        client.close()

    def test_conflicting_key_rejected_remotely(self, endpoint, keypool):
        _, ep = endpoint
        client = RemoteLogger(ep.address)
        client.register_key("/a", keypool[0].public)
        with pytest.raises(LoggingError):
            client.register_key("/a", keypool[1].public)
        client.close()

    def test_submit_reaches_server(self, endpoint):
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        entry = LogEntry(
            component_id="/a",
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
            data=b"remote",
        )
        client.submit(entry)
        assert wait_for(lambda: len(server) == 1, timeout=2.0)
        assert server.entries()[0].data == b"remote"
        client.close()

    def test_unreachable_server_fails_registration(self, keypool):
        client = RemoteLogger(("tcp", "127.0.0.1", 1))  # nothing listens
        with pytest.raises(LoggingError):
            client.register_key("/a", keypool[0].public)
        client.close()

    def test_submit_tolerates_dead_server(self, endpoint, keypool):
        """The paper's no-single-point-of-failure property: once running,
        a logger failure must not raise into the component.  Entries from
        the outage are parked in the spill queue, not silently lost."""
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        client.register_key("/a", keypool[0].public)
        ep.close()
        entry = LogEntry(component_id="/a", topic="/t", seq=1)
        for _ in range(3):
            client.submit(entry)  # must not raise
        assert client.spilled >= 1
        assert client.dropped == 0  # parked, not lost
        client.close()

    def test_spilled_entries_resent_after_recovery(self, keypool):
        """Entries spilled while the server is down are re-sent (oldest
        first) once it comes back."""
        client = RemoteLogger(("tcp", "127.0.0.1", 1), reconnect_backoff=0.01)
        entries = [
            LogEntry(component_id="/a", topic="/t", seq=i, scheme=Scheme.ADLP)
            for i in range(1, 4)
        ]
        for entry in entries:
            client.submit(entry)  # nothing listens yet: all spill
        assert client.spilled == 3

        server = LogServer()
        ep = LogServerEndpoint(server)
        try:
            client._address = ep.address  # server "comes back" here
            wait_for(lambda: client.flush_spill(), timeout=5.0)
            assert client.spilled == 0
            assert client.retries == 3
            assert client.dropped == 0
            assert wait_for(lambda: len(server) == 3, timeout=5.0)
            assert [e.seq for e in server.entries()] == [1, 2, 3]
        finally:
            ep.close()
            client.close()

    def test_spill_queue_is_bounded(self):
        """Overflowing the spill queue evicts the oldest entry and counts
        it as dropped -- bounded memory, visible loss."""
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1), spill_capacity=5, reconnect_backoff=10.0
        )
        for i in range(8):
            client.submit(LogEntry(component_id="/a", topic="/t", seq=i))
        assert client.spilled == 5
        assert client.dropped == 3
        client.close()

    def test_overflow_spills_to_disk_when_configured(self, tmp_path):
        """With a ``spill_path`` the bounded memory queue overflows to disk
        instead of dropping: evidence survives arbitrarily long outages."""
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1),
            spill_capacity=5,
            reconnect_backoff=10.0,
            spill_path=str(tmp_path / "spill.dat"),
        )
        for i in range(8):
            client.submit(LogEntry(component_id="/a", topic="/t", seq=i))
        assert client.spilled == 8  # memory (5) + disk (3)
        assert client.spilled_to_disk == 3
        assert client.dropped == 0
        stats = client.stats()
        assert stats["spilled"] == 8
        assert stats["spilled_to_disk"] == 3
        assert stats["dropped"] == 0
        client.close()

    def test_overflow_warning_fires_once(self, tmp_path, caplog):
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1),
            spill_capacity=2,
            reconnect_backoff=10.0,
            spill_path=str(tmp_path / "spill.dat"),
        )
        with caplog.at_level("WARNING", logger="repro.core.remote"):
            for i in range(10):
                client.submit(LogEntry(component_id="/a", topic="/t", seq=i))
        warnings = [
            r for r in caplog.records if "spill queue" in r.getMessage()
        ]
        assert len(warnings) == 1
        client.close()

    def test_disk_spilled_entries_resent_oldest_first(self, tmp_path):
        """Disk holds the *older* entries, so recovery drains disk before
        the memory queue: server-side order stays 1..n."""
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1),
            spill_capacity=3,
            reconnect_backoff=0.01,
            spill_path=str(tmp_path / "spill.dat"),
        )
        for i in range(1, 8):
            client.submit(
                LogEntry(component_id="/a", topic="/t", seq=i, scheme=Scheme.ADLP)
            )
        assert client.spilled_to_disk == 4
        server = LogServer()
        ep = LogServerEndpoint(server)
        try:
            client._address = ep.address
            wait_for(lambda: client.flush_spill(), timeout=5.0)
            assert client.spilled == 0
            assert client.dropped == 0
            assert wait_for(lambda: len(server) == 7, timeout=5.0)
            assert [e.seq for e in server.entries()] == list(range(1, 8))
        finally:
            ep.close()
            client.close()

    def test_disk_spill_survives_client_restart(self, tmp_path):
        """A crashed-and-restarted component re-sends what its predecessor
        spilled to disk -- the outage evidence is not tied to the process."""
        path = str(tmp_path / "spill.dat")
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1),
            spill_capacity=2,
            reconnect_backoff=10.0,
            spill_path=path,
        )
        for i in range(1, 6):
            client.submit(
                LogEntry(component_id="/a", topic="/t", seq=i, scheme=Scheme.ADLP)
            )
        assert client.spilled_to_disk == 3
        client.close()  # drain-then-stop: the memory queue parks on disk too
        assert client.spilled_to_disk == 5
        assert client.dropped == 0

        server = LogServer()
        ep = LogServerEndpoint(server)
        reborn = RemoteLogger(
            ep.address, reconnect_backoff=0.01, spill_path=path
        )
        try:
            assert reborn.spilled == 5  # the disk backlog is still pending
            wait_for(lambda: reborn.flush_spill(), timeout=5.0)
            assert wait_for(lambda: len(server) == 5, timeout=5.0)
            assert [e.seq for e in server.entries()] == [1, 2, 3, 4, 5]
        finally:
            ep.close()
            reborn.close()

    def test_malformed_frames_do_not_kill_server(self, endpoint, keypool):
        server, ep = endpoint
        from repro.middleware.transport.tcp import TcpTransport

        raw = TcpTransport().connect(ep.address)
        raw.send_frame(b"\xff\xfe\xfd")  # garbage
        raw.close()
        client = RemoteLogger(ep.address)
        client.register_key("/a", keypool[0].public)  # server still alive
        client.close()


class TestAdlpOverRemoteLogger:
    def test_full_protocol_with_remote_logging(self, endpoint, keypool, fast_config):
        """ADLP nodes pointed at a socket logger, end to end."""
        server, ep = endpoint
        master = Master()
        pub_logger = RemoteLogger(ep.address)
        sub_logger = RemoteLogger(ep.address)
        pub_protocol = AdlpProtocol(
            "/pub", pub_logger, config=fast_config, keypair=keypool[0]
        )
        sub_protocol = AdlpProtocol(
            "/sub", sub_logger, config=fast_config, keypair=keypool[1]
        )
        pub_node = Node("/pub", master, protocol=pub_protocol)
        sub_node = Node("/sub", master, protocol=sub_protocol)
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            for i in range(3):
                pub.publish(StringMsg(data=f"m{i}"))
            assert sub.wait_for_messages(3)
            assert wait_for(lambda: len(server) >= 6, timeout=5.0)
        finally:
            pub_node.shutdown()
            sub_node.shutdown()
            pub_logger.close()
            sub_logger.close()
        # the server-side audit works exactly as with a local logger
        from repro.audit import Auditor, Topology

        topology = Topology(publisher_of={"/t": "/pub"})
        report = Auditor.for_server(server, topology).audit_server(server)
        assert report.flagged_components() == []
        assert len(report.valid_entries()) == 6

    def test_protocol_stats_dict_surfaces_loss_counters(
        self, endpoint, keypool, fast_config
    ):
        """``protocol.stats()`` merges the protocol counters with the
        logging thread's and remote logger's loss counters, so one dict
        answers both 'how chatty' and 'how lossy'."""
        _, ep = endpoint
        logger = RemoteLogger(ep.address)
        protocol = AdlpProtocol(
            "/pub", logger, config=fast_config, keypair=keypool[0]
        )
        try:
            stats = protocol.stats()
            for key in ("retransmits", "signatures", "dropped", "spilled",
                        "spilled_to_disk", "spill_retries"):
                assert key in stats, key
            assert stats["dropped"] == 0
            # attribute access still works for existing call sites
            assert protocol.stats.retransmits == 0
        finally:
            protocol.close()
            logger.close()


class TestLoggerRpcSurface:
    """The replication-facing RPCs: HEALTH, FETCH, KEYS."""

    def test_health_mirrors_server_commitment(self, endpoint):
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        for i in range(5):
            client.submit(LogEntry(component_id="/a", topic="/t", seq=i,
                                   scheme=Scheme.ADLP, data=b"x" * i))
        assert wait_for(lambda: len(server) == 5)
        health = client.health()
        assert health == server.commitment()
        assert health.entries == 5
        assert health.total_bytes == server.total_bytes
        client.close()

    def test_fetch_records_returns_exact_raw_bytes(self, endpoint):
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        records = [
            LogEntry(component_id="/a", topic="/t", seq=i,
                     scheme=Scheme.ADLP).encode()
            for i in range(6)
        ]
        for record in records:
            client.submit(record)
        assert wait_for(lambda: len(server) == 6)
        assert client.fetch_records(0, 100) == records
        assert client.fetch_records(4, 2) == records[4:]
        assert client.fetch_records(6, 10) == []  # past the end: empty
        client.close()

    def test_fetch_of_image_records_stays_within_a_frame(self, tmp_path):
        """80 Image records are ~74 MB, past the transport's 64 MiB frame
        cap: a fetch returns what fits in ``BATCH_FRAME_BYTES`` and the
        client's loop over short batches gets every record, in order."""
        server = LogServer(DurableLogStore(str(tmp_path), fsync="never"))
        for record in image_records(80):
            server.submit(record)
        ep = LogServerEndpoint(server)
        client = RemoteLogger(ep.address)
        try:
            expected = image_records(80)
            batches = []
            while sum(batches) < 80:
                batch = client.fetch_records(sum(batches), 80 - sum(batches))
                assert sum(map(len, batch)) <= BATCH_FRAME_BYTES
                for record in batch:
                    assert record == next(expected)
                batches.append(len(batch))
            assert len(batches) > 1 and min(batches) >= 1
        finally:
            client.close()
            ep.close()
            server.close()

    def test_fetch_keys_roundtrip(self, endpoint, keypool):
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        client.register_key("/a", keypool[0].public)
        client.register_key("/b", keypool[1].public)
        keys = client.fetch_keys()
        assert sorted(keys) == ["/a", "/b"]
        assert keys["/a"] == keypool[0].public.to_bytes()
        client.close()

    def test_rpc_against_dead_server_raises_logging_error(self):
        client = RemoteLogger(("tcp", "127.0.0.1", 1))
        with pytest.raises(LoggingError):
            client.health(timeout=0.5)
        with pytest.raises(LoggingError):
            client.fetch_records(0, 1, timeout=0.5)
        client.close()

    def test_discard_spill_counts_and_clears(self):
        client = RemoteLogger(("tcp", "127.0.0.1", 1), reconnect_backoff=10.0)
        for i in range(4):
            client.submit(LogEntry(component_id="/a", topic="/t", seq=i))
        assert client.spilled == 4
        assert client.discard_spill() == 4
        assert client.spilled == 0
        client.close()


class TestConcurrentClients:
    def test_many_clients_with_disconnects_lose_nothing(self, endpoint):
        """Several components log through one endpoint concurrently, each
        suffering a forced mid-stream disconnect.  Every entry arrives,
        per-component counts are exact, and the server's total_bytes
        equals the sum of what the clients actually encoded."""
        import threading

        server, ep = endpoint
        clients_n, per_client = 5, 40
        sent_bytes = [0] * clients_n
        failures = []

        def worker(k):
            try:
                client = RemoteLogger(ep.address, reconnect_backoff=0.001)
                for i in range(per_client):
                    record = LogEntry(
                        component_id="/c%d" % k, topic="/t", seq=i,
                        scheme=Scheme.ADLP, data=b"p" * (k + 1),
                    ).encode()
                    sent_bytes[k] += len(record)
                    client.submit(record)
                    if i == per_client // 2:
                        # yank the connection mid-stream: the stub must
                        # reconnect and drain its spill transparently
                        with client._lock:
                            if client._connection is not None:
                                client._connection.close()
                assert wait_for(lambda: client.flush_spill(), timeout=10.0)
                assert client.dropped == 0
                client.close()
            except Exception as exc:  # surfaces in the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(clients_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert failures == []
        total = clients_n * per_client
        assert wait_for(lambda: len(server) == total, timeout=10.0)
        for k in range(clients_n):
            component = server.entries(component_id="/c%d" % k)
            assert len(component) == per_client
            assert sorted(e.seq for e in component) == list(range(per_client))
        by_component = server.bytes_by_component()
        for k in range(clients_n):
            assert by_component["/c%d" % k] == sent_bytes[k]
        assert server.total_bytes == sum(sent_bytes)


class TestIdleReaping:
    def test_idle_connection_reaped_and_client_recovers(self):
        server = LogServer()
        ep = LogServerEndpoint(server, idle_timeout=0.15)
        try:
            client = RemoteLogger(ep.address, reconnect_backoff=0.001)
            client.submit(LogEntry(component_id="/a", topic="/t", seq=0,
                                   scheme=Scheme.ADLP))
            assert wait_for(lambda: len(server) == 1)
            # go quiet past the idle window: the endpoint reaps the socket
            assert wait_for(lambda: ep.reaped >= 1, timeout=5.0)
            # the component just reconnects on its next submit
            client.submit(LogEntry(component_id="/a", topic="/t", seq=1,
                                   scheme=Scheme.ADLP))
            assert wait_for(lambda: len(server) == 2, timeout=5.0)
            client.close()
        finally:
            ep.close()

    def test_no_reaping_by_default(self):
        """Reaping is opt-in: a standalone logger with sporadic traffic
        must never race a reap against a client's fire-and-forget send
        (the reap window would silently discard the entry)."""
        server = LogServer()
        ep = LogServerEndpoint(server)
        try:
            assert ep._idle_timeout is None
            client = RemoteLogger(ep.address)
            client.submit(LogEntry(component_id="/a", topic="/t", seq=0,
                                   scheme=Scheme.ADLP))
            assert wait_for(lambda: len(server) == 1)
            import time as _time

            _time.sleep(0.4)
            assert ep.reaped == 0
            client.close()
        finally:
            ep.close()


class TestRpcTimeout:
    def test_late_response_is_not_decoded_as_next_reply(self):
        """An RPC that times out must abandon its connection: responses
        carry no correlation ids, so a late reply left queued on the
        socket would otherwise be decoded as the NEXT rpc's answer."""
        import threading
        import time as _time

        from repro.core.remote import LoggerResponse
        from repro.middleware.transport.tcp import TcpTransport

        transport = TcpTransport()
        listener = transport.listen()

        def serve():
            # First connection: stall past the client's deadline, then
            # deliver a poisoned late reply.
            conn = listener.accept(timeout=5.0)
            assert conn.recv_frame(timeout=5.0) is not None
            _time.sleep(0.4)
            try:
                conn.send_frame(
                    LoggerResponse(
                        ok=True, entries=999, chain_head=b"stale",
                        merkle_root=b"stale", total_bytes=0,
                    ).encode()
                )
            except Exception:
                pass  # the client may already have hung up on us
            # Second connection: answer promptly and correctly.
            conn2 = listener.accept(timeout=5.0)
            if conn2 is not None:
                assert conn2.recv_frame(timeout=5.0) is not None
                conn2.send_frame(
                    LoggerResponse(
                        ok=True, entries=7, chain_head=b"fresh",
                        merkle_root=b"fresh", total_bytes=42,
                    ).encode()
                )

        thread = threading.Thread(target=serve)
        thread.start()
        client = RemoteLogger(listener.address, reconnect_backoff=0.001)
        try:
            with pytest.raises(LoggingError, match="did not answer"):
                client.health(timeout=0.1)
            _time.sleep(0.5)  # let the late reply land on the old socket
            health = client.health(timeout=5.0)
            assert health.entries == 7
            assert health.chain_head == b"fresh"
        finally:
            thread.join(timeout=5.0)
            client.close()
            listener.close()


class TestCloseDrains:
    def test_close_parks_memory_spill_on_disk(self, tmp_path):
        """A clean shutdown with no reachable server must not discard the
        memory spill queue: it is flushed to the disk FIFO for the next
        incarnation of the component."""
        path = str(tmp_path / "spill.dat")
        client = RemoteLogger(
            ("tcp", "127.0.0.1", 1), reconnect_backoff=10.0, spill_path=path
        )
        for i in range(1, 5):
            client.submit(
                LogEntry(component_id="/a", topic="/t", seq=i, scheme=Scheme.ADLP)
            )
        assert client.spilled == 4  # all in memory so far
        client.close()
        assert client.spilled_to_disk == 4
        assert client.dropped == 0

        server = LogServer()
        ep = LogServerEndpoint(server)
        reborn = RemoteLogger(ep.address, reconnect_backoff=0.001, spill_path=path)
        try:
            assert reborn.spilled == 4
            assert wait_for(lambda: reborn.flush_spill(), timeout=5.0)
            assert wait_for(lambda: len(server) == 4)
            assert [e.seq for e in server.entries()] == [1, 2, 3, 4]
        finally:
            ep.close()
            reborn.close()

    def test_close_drains_pending_spill_over_live_connection(self, endpoint):
        """With the server reachable, ``close`` re-sends queued entries
        before releasing the socket -- a clean shutdown loses nothing."""
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        client.submit(
            LogEntry(component_id="/a", topic="/t", seq=0, scheme=Scheme.ADLP)
        )
        assert wait_for(lambda: len(server) == 1)
        # park two entries in the spill queue behind the live connection
        with client._lock:
            for i in (1, 2):
                client._spill.append(
                    LogEntry(
                        component_id="/a", topic="/t", seq=i, scheme=Scheme.ADLP
                    ).encode()
                )
        client.close()
        assert wait_for(lambda: len(server) == 3, timeout=5.0)
        assert [e.seq for e in server.entries()] == [0, 1, 2]
