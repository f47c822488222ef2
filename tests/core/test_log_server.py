import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.errors import LoggingError, LogIntegrityError, UnknownComponentError


def entry(component="/a", topic="/t", direction=Direction.OUT, seq=1, data=b"d"):
    return LogEntry(
        component_id=component,
        topic=topic,
        type_name="std/String",
        direction=direction,
        seq=seq,
        scheme=Scheme.ADLP,
        data=data,
    )


class TestIngestion:
    def test_submit_decoded_entry(self):
        server = LogServer()
        index = server.submit(entry())
        assert index == 0
        assert len(server) == 1

    def test_submit_encoded_entry(self):
        server = LogServer()
        server.submit(entry(component="/remote").encode())
        assert server.entries()[0].component_id == "/remote"

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(LoggingError):
            LogServer().submit(b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")

    def test_total_bytes_counts_encoded_size(self):
        server = LogServer()
        e = entry()
        server.submit(e)
        assert server.total_bytes == len(e.encode())

    def test_bytes_by_component(self):
        server = LogServer()
        server.submit(entry(component="/a"))
        server.submit(entry(component="/a"))
        server.submit(entry(component="/b"))
        per = server.bytes_by_component()
        assert set(per) == {"/a", "/b"}
        assert per["/a"] == 2 * per["/b"]


class TestQueries:
    def test_filter_by_component_topic_direction_seq(self):
        server = LogServer()
        server.submit(entry(component="/a", topic="/t1", direction=Direction.OUT, seq=1))
        server.submit(entry(component="/b", topic="/t1", direction=Direction.IN, seq=1))
        server.submit(entry(component="/a", topic="/t2", direction=Direction.OUT, seq=2))
        assert len(server.entries(component_id="/a")) == 2
        assert len(server.entries(topic="/t1")) == 2
        assert len(server.entries(direction=Direction.IN)) == 1
        assert len(server.entries(seq=2)) == 1
        assert len(server.entries(component_id="/a", topic="/t2")) == 1

    def test_entries_in_ingestion_order(self):
        server = LogServer()
        for i in range(5):
            server.submit(entry(seq=i + 1))
        assert [e.seq for e in server.entries()] == [1, 2, 3, 4, 5]


class TestKeys:
    def test_register_and_fetch(self, keypool):
        server = LogServer()
        server.register_key("/a", keypool[0].public)
        assert server.public_key("/a") == keypool[0].public
        assert server.components() == ["/a"]

    def test_register_serialized_key(self, keypool):
        server = LogServer()
        server.register_key("/a", keypool[0].public.to_bytes())
        assert server.public_key("/a") == keypool[0].public

    def test_unknown_component(self):
        with pytest.raises(UnknownComponentError):
            LogServer().public_key("/ghost")


class TestIntegrity:
    def test_verify_clean(self):
        server = LogServer()
        server.submit(entry())
        server.verify_integrity()

    def test_tamper_detected(self):
        server = LogServer()
        server.submit(entry())
        server.submit(entry(seq=2))
        server.store.tamper(0, b"evil")
        with pytest.raises(LogIntegrityError):
            server.verify_integrity()

    def test_merkle_inclusion_proofs(self):
        server = LogServer()
        entries = [entry(seq=i + 1) for i in range(7)]
        for e in entries:
            server.submit(e)
        root = server.merkle_root()
        for i, e in enumerate(entries):
            assert server.prove_inclusion(i).verify(e.encode(), root)

    def test_merkle_root_changes_with_ingestion(self):
        server = LogServer()
        r0 = server.merkle_root()
        server.submit(entry())
        assert server.merkle_root() != r0


class TestRawRecords:
    def _server(self, n=6):
        server = LogServer()
        records = [entry(seq=i + 1, data=b"d" * i).encode() for i in range(n)]
        for record in records:
            server.submit(record)
        return server, records

    def test_ranges(self):
        server, records = self._server()
        assert server.raw_records() == records
        assert server.raw_records(2, 3) == records[2:5]
        assert server.raw_records(5, 10) == records[5:]
        assert server.raw_records(6, 1) == []
        assert server.raw_records(9) == []
        assert server.raw_records(0, 0) == []

    def test_negative_start_or_count_refused(self):
        server, _ = self._server()
        with pytest.raises(ValueError):
            server.raw_records(0, -1)
        with pytest.raises(ValueError):
            server.raw_records(-1)
        with pytest.raises(ValueError):
            server.raw_records(-1, 2)

    def test_max_bytes_stops_early_but_never_empty(self):
        server, records = self._server()
        two = len(records[0]) + len(records[1])
        assert server.raw_records(0, 6, max_bytes=two) == records[:2]
        assert server.raw_records(0, 6, max_bytes=two + 1) == records[:2]
        assert server.raw_records(3, 6, max_bytes=1) == records[3:4]

    def test_altered_record_is_refused_not_served(self):
        """Every served record is checked against the server's Merkle
        leaf: bytes altered in the store since ingest raise instead of
        reaching an auditor or a replica."""
        server, records = self._server()
        server.store.tamper(3, entry(seq=99).encode())
        assert server.raw_records(0, 3) == records[:3]
        with pytest.raises(LogIntegrityError, match="record 3"):
            server.raw_records(2, 2)
        with pytest.raises(LogIntegrityError, match="record 3"):
            server.entries()


class TestCheckpointConcurrency:
    def test_checkpoint_during_live_submits_does_not_deadlock(self, tmp_path):
        """Regression: ``LogServer.checkpoint`` used to enter the durable
        store's lock first, while ``submit`` holds the server lock and then
        enters the store -- a concurrent external checkpoint (the CLI, a
        supervisor, an endpoint draining fire-and-forget frames) and a live
        submitter could deadlock on the inverted order."""
        import threading

        from repro.storage import DurableLogStore

        server = LogServer(
            store=DurableLogStore(str(tmp_path / "store"), fsync="never")
        )
        stop = threading.Event()
        errors = []

        def submitter():
            seq = 1
            while not stop.is_set():
                try:
                    server.submit(entry(seq=seq))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                seq += 1

        def checkpointer():
            for _ in range(50):
                server.checkpoint()

        threads = [
            threading.Thread(target=submitter, daemon=True),
            threading.Thread(target=checkpointer, daemon=True),
        ]
        for thread in threads:
            thread.start()
        threads[1].join(timeout=60)  # wedges forever on the inverted order
        stop.set()
        threads[0].join(timeout=30)
        assert not any(t.is_alive() for t in threads), (
            "checkpoint deadlocked against a live submitter"
        )
        assert not errors
        server.verify_integrity()
        server.close()
