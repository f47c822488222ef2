"""Group-commit batched submission: equivalence, atomicity, fallback.

The invariant every test here leans on: submitting the same entries
batched or one at a time must leave the trusted logger in a *byte
identical* state -- same chain head, same Merkle root, same counters.
Batching is an optimization of the submission path, never a different
log.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.adversary.forking import ForkingLogServer
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.log_store import InMemoryLogStore, LogStore
from repro.core.logging_thread import LoggingThread
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.errors import LoggingError
from repro.replication.replicated import ReplicatedLogger
from repro.sharding.sharded_server import ShardedLogServer
from repro.storage.durable_store import DurableLogStore
from repro.util.concurrency import wait_for


def make_entry(i: int, component: str = "/pub") -> LogEntry:
    return LogEntry(
        component_id=component,
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=i,
        timestamp=float(i),
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % i,
        own_sig=b"\x5a" * 16,
    )


def commitment_tuple(server: LogServer):
    c = server.commitment()
    return (c.entries, c.chain_head, c.merkle_root)


#: Every logger backend with a ``submit``/``submit_batch`` surface.
BACKENDS = ["log_server", "sharded", "forking", "remote", "replicated"]


@contextmanager
def backend(kind: str, signer):
    """``(sink, settle, views)``: the ingest surface under test, a barrier
    that returns once everything it was fed has been ingested, and the
    ``LogServer`` views whose commitments it determines."""
    if kind == "log_server":
        server = LogServer()
        yield server, lambda: None, [server]
    elif kind == "sharded":
        sharded = ShardedLogServer(shards=2)
        yield sharded, lambda: None, [sharded.shard(0), sharded.shard(1)]
    elif kind == "forking":
        fork = ForkingLogServer(signer, fork_at=3)
        yield fork, lambda: None, [fork.honest, fork.forked]
    else:
        servers = [LogServer() for _ in range(2 if kind == "replicated" else 1)]
        endpoints = [LogServerEndpoint(server) for server in servers]
        if kind == "remote":
            sink = RemoteLogger(endpoints[0].address)
            settle = sink.health
        else:
            sink = ReplicatedLogger([e.address for e in endpoints])
            settle = sink.quiesce
        try:
            yield sink, settle, servers
        finally:
            sink.close()
            for endpoint in endpoints:
                endpoint.close()


class TestLogStoreAppendBatch:
    def test_in_memory_batch_equals_loop(self):
        records = [b"r%d" % i for i in range(10)]
        a, b = InMemoryLogStore(), InMemoryLogStore()
        indices = a.append_batch(records)
        for record in records:
            b.append(record)
        assert indices == list(range(10))
        assert a.records() == b.records()
        assert a.head() == b.head()

    def test_base_class_default_loops(self):
        class Minimal(LogStore):
            def __init__(self):
                super().__init__()
                self.rows = []

            def append(self, record):
                self.rows.append(record)
                return len(self.rows) - 1

            def records(self):
                return list(self.rows)

            def __len__(self):
                return len(self.rows)

        store = Minimal()
        assert store.append_batch([b"a", b"b"]) == [0, 1]
        assert store.rows == [b"a", b"b"]

    def test_durable_batch_equals_loop(self, tmp_path):
        records = [b"record-%04d" % i for i in range(25)]
        batched = DurableLogStore(str(tmp_path / "batched"), fsync="always")
        looped = DurableLogStore(str(tmp_path / "looped"), fsync="always")
        indices = batched.append_batch(records)
        for record in records:
            looped.append(record)
        assert indices == list(range(25))
        assert batched.head() == looped.head()
        assert batched.merkle_root() == looped.merkle_root()
        assert batched.records() == looped.records()
        batched.verify()
        batched.close()
        looped.close()

    def test_durable_batch_survives_reopen(self, tmp_path):
        records = [b"record-%04d" % i for i in range(12)]
        store = DurableLogStore(str(tmp_path / "s"), fsync="always")
        store.append_batch(records)
        head, root = store.head(), store.merkle_root()
        store.close()
        reopened = DurableLogStore(str(tmp_path / "s"), fsync="always")
        assert len(reopened) == 12
        assert reopened.head() == head
        assert reopened.merkle_root() == root
        reopened.close()

    def test_empty_batch_is_noop(self, tmp_path):
        store = DurableLogStore(str(tmp_path / "s"))
        assert store.append_batch([]) == []
        assert len(store) == 0
        store.close()


class TestLogServerSubmitBatch:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_batched_commitment_identical_to_per_entry(self, kind, keypool):
        entries = [
            make_entry(i, component="/pub" if i % 3 else "/sub")
            for i in range(1, 21)
        ]
        for i, entry in enumerate(entries):
            entry.topic = "/t%d" % (i % 4)  # spread over every shard
        with backend(kind, keypool[0].private) as (
            batched, settle_batched, batched_views
        ), backend(kind, keypool[0].private) as (
            looped, settle_looped, looped_views
        ):
            indices = batched.submit_batch(entries)
            for entry in entries:
                looped.submit(entry)
            settle_batched()
            settle_looped()
            assert len(indices) == 20
            if kind == "log_server":
                assert indices == list(range(20))
            assert sum(len(view) for view in batched_views) == 20 * (
                len(batched_views) if kind in ("forking", "replicated") else 1
            )
            for mine, theirs in zip(batched_views, looped_views):
                assert commitment_tuple(mine) == commitment_tuple(theirs)
                assert mine.total_bytes == theirs.total_bytes
                assert mine.bytes_by_component() == theirs.bytes_by_component()

    def test_accepts_encoded_records(self):
        entries = [make_entry(i) for i in range(1, 6)]
        a, b = LogServer(), LogServer()
        a.submit_batch([e.encode() for e in entries])
        b.submit_batch(entries)
        assert commitment_tuple(a) == commitment_tuple(b)

    def test_empty_batch(self):
        server = LogServer()
        assert server.submit_batch([]) == []
        assert len(server) == 0

    def test_undecodable_record_rejects_whole_batch(self):
        server = LogServer()
        batch = [make_entry(1), b"\xff\xffgarbage", make_entry(2)]
        before = commitment_tuple(server)
        with pytest.raises(LoggingError):
            server.submit_batch(batch)
        # All-or-nothing: nothing from the batch landed.
        assert commitment_tuple(server) == before
        assert len(server) == 0
        assert server.rejected_submissions == 1

    def test_store_failure_rolls_back_derived_state(self):
        class ExplodingStore(InMemoryLogStore):
            def __init__(self, explode_after: int):
                super().__init__()
                self._explode_after = explode_after

            def append_batch(self, records):
                # Non-atomic store: commits a prefix, then dies.
                for record in records[: self._explode_after]:
                    self.append(record)
                raise IOError("disk died mid-batch")

        store = ExplodingStore(explode_after=2)
        server = LogServer(store)
        entries = [make_entry(i) for i in range(1, 6)]
        with pytest.raises(IOError):
            server.submit_batch(entries)
        # Derived state rolled back to exactly the landed prefix, so the
        # server still equals a per-entry run over that prefix.
        reference = LogServer()
        for entry in entries[:2]:
            reference.submit(entry)
        assert commitment_tuple(server) == commitment_tuple(reference)
        assert server.bytes_by_component() == reference.bytes_by_component()
        server.verify_integrity()

    def test_observers_see_batch_in_submission_order(self):
        server = LogServer()
        seen = []
        server.add_observer(lambda e: seen.append(e.seq))
        server.submit_batch([make_entry(i) for i in range(1, 6)])
        assert seen == [1, 2, 3, 4, 5]

    def test_batch_interleaved_with_singles(self):
        entries = [make_entry(i) for i in range(1, 16)]
        mixed, looped = LogServer(), LogServer()
        mixed.submit(entries[0])
        mixed.submit_batch(entries[1:8])
        mixed.submit(entries[8])
        mixed.submit_batch(entries[9:])
        for entry in entries:
            looped.submit(entry)
        assert commitment_tuple(mixed) == commitment_tuple(looped)


class TestPropertyBatchedEqualsPerEntry:
    def test_random_batch_splits_commitment_identical(self, rng):
        """Any partition of a random entry stream into batches yields the
        same commitment as per-entry submission (seeded via PYTEST_SEED)."""
        entries = [
            LogEntry(
                component_id=rng.choice(["/pub", "/sub0", "/sub1"]),
                topic=rng.choice(["/t", "/u"]),
                type_name="std/String",
                direction=rng.choice([Direction.OUT, Direction.IN]),
                seq=i,
                timestamp=float(i),
                scheme=Scheme.ADLP,
                data=bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 80))),
                own_sig=bytes(rng.getrandbits(8) for _ in range(16)),
            )
            for i in range(1, 101)
        ]
        looped = LogServer()
        for entry in entries:
            looped.submit(entry)
        for _ in range(5):
            batched = LogServer()
            i = 0
            while i < len(entries):
                size = rng.randrange(1, 17)
                batched.submit_batch(entries[i : i + size])
                i += size
            assert commitment_tuple(batched) == commitment_tuple(looped)
            assert batched.total_bytes == looped.total_bytes

    def test_durable_random_splits_match(self, rng, tmp_path):
        records = [
            bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 64)))
            for _ in range(60)
        ]
        looped = DurableLogStore(str(tmp_path / "looped"), fsync="never")
        for record in records:
            looped.append(record)
        batched = DurableLogStore(str(tmp_path / "batched"), fsync="never")
        i = 0
        while i < len(records):
            size = rng.randrange(1, 9)
            batched.append_batch(records[i : i + size])
            i += size
        assert batched.head() == looped.head()
        assert batched.merkle_root() == looped.merkle_root()
        batched.close()
        looped.close()


class TestLoggingThreadBatching:
    def test_batch_max_validated(self):
        with pytest.raises(ValueError):
            LoggingThread("/a", lambda batch: [0] * len(batch), batch_max=0)

    def test_drains_batches_through_submit_batch(self):
        server = LogServer()
        thread = LoggingThread("/a", server.submit_batch, batch_max=16)
        # Stop the worker briefly? No: enqueue fast and flush; some calls
        # will batch, all must land, in order.
        entries = [make_entry(i) for i in range(1, 201)]
        for entry in entries:
            thread.enqueue(entry)
        assert thread.flush(5.0)
        thread.stop()
        assert len(server) == 200
        assert [e.seq for e in server.entries()] == list(range(1, 201))
        reference = LogServer()
        for entry in entries:
            reference.submit(entry)
        assert commitment_tuple(server) == commitment_tuple(reference)

    def test_batched_counters_move(self):
        server = LogServer()
        thread = LoggingThread("/a", server.submit_batch, batch_max=64)
        for i in range(1, 501):
            thread.enqueue(make_entry(i))
        assert thread.flush(5.0)
        thread.stop()
        assert len(server) == 500
        # The exact split depends on scheduling, but with 500 entries and a
        # 0.1 s poll some multi-entry drains are effectively certain.
        assert thread.batched > 0
        assert thread.batches > 0

    def test_poison_entry_isolated_by_fallback(self):
        server = LogServer()
        thread = LoggingThread("/a", server.submit_batch, batch_max=32)
        # Pause the worker's intake long enough to force one batch
        # containing the poison record, by enqueueing everything before the
        # first drain can finish.
        good = [make_entry(i) for i in range(1, 11)]
        for entry in good[:5]:
            thread.enqueue(entry)
        thread.enqueue(b"\xff\xffnot-an-entry")
        for entry in good[5:]:
            thread.enqueue(entry)
        assert thread.flush(5.0)
        thread.stop()
        # The ten good entries all landed exactly once; the poison record
        # was dropped alone, not with its batchmates.
        assert [e.seq for e in server.entries()] == list(range(1, 11))
        assert thread.dropped == 1

    def test_tick_runs_on_idle_and_after_drains(self):
        ticks = []
        thread = LoggingThread(
            "/a",
            lambda batch: [0] * len(batch),
            tick=lambda: ticks.append(1),
            batch_max=4,
        )
        thread.enqueue(make_entry(1))
        assert thread.flush(2.0)
        assert wait_for(lambda: len(ticks) >= 2, timeout=2.0)
        thread.stop()

    def test_tick_errors_do_not_kill_worker(self):
        def bad_tick():
            raise RuntimeError("maintenance trouble")

        server = LogServer()
        thread = LoggingThread("/a", server.submit_batch, tick=bad_tick)
        thread.enqueue(make_entry(1))
        assert thread.flush(2.0)
        thread.enqueue(make_entry(2))
        assert thread.flush(2.0)
        thread.stop()
        assert len(server) == 2
