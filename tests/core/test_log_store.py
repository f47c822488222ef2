"""The store contract, in memory and on disk."""

import os

import pytest

from repro.core.dedup_store import DedupLogStore
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_store import InMemoryLogStore
from repro.crypto.hashchain import GENESIS
from repro.crypto.hashing import sha256
from repro.crypto.merkle import leaf_hash
from repro.errors import LogIntegrityError
from repro.storage.durable_store import WAL_SUBDIR, DurableLogStore
from repro.storage.wal import segment_paths


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        s = InMemoryLogStore()
    else:
        s = DurableLogStore(str(tmp_path / "store"))
    yield s
    s.close()


def wal_segment(path):
    """The one WAL segment of a small store at ``path``."""
    [(_, segment)] = segment_paths(os.path.join(path, WAL_SUBDIR))
    return segment


class TestLogStoreContract:
    def test_append_returns_indices(self, store):
        """A batch returns its records' leaf hashes; their indices run on
        from the length before the call."""
        assert store.append_batch([b"a"]) == [leaf_hash(b"a")]
        assert len(store) == 1
        assert store.append_batch([b"b", b"c"]) == [leaf_hash(b"b"), leaf_hash(b"c")]
        assert len(store) == 3

    def test_records_in_order(self, store):
        for payload in (b"one", b"two", b"three"):
            store.append_batch([payload])
        assert store.records() == [b"one", b"two", b"three"]

    def test_total_bytes(self, store):
        store.append_batch([b"1234"])
        store.append_batch([b"56"])
        assert store.total_bytes == 6

    def test_verify_clean_store(self, store):
        store.append_batch([b"x"])
        store.verify()

    def test_head_changes_per_append(self, store):
        h0 = store.head()
        store.append_batch([b"x"])
        h1 = store.head()
        assert h0 != h1


class TestTamperDetection:
    def test_memory_tamper_detected(self):
        store = InMemoryLogStore()
        for i in range(5):
            store.append_batch([f"record {i}".encode()])
        store.tamper(2, b"evil")
        with pytest.raises(LogIntegrityError):
            store.verify()

    def test_file_tamper_detected(self, tmp_path):
        path = str(tmp_path / "store")
        store = DurableLogStore(path)
        store.append_batch([b"record-aa"])
        store.append_batch([b"record-bb"])
        store.checkpoint()
        store.close()
        segment = wal_segment(path)
        with open(segment, "r+b") as f:
            raw = f.read()
            index = raw.index(b"record-aa")
            f.seek(index)
            f.write(b"tampered!")
        with pytest.raises(LogIntegrityError):
            DurableLogStore(path)


class TestFilePersistence:
    def test_reopen_preserves_records(self, tmp_path):
        path = str(tmp_path / "store")
        store = DurableLogStore(path)
        store.append_batch([b"persisted"])
        head = store.head()
        store.close()
        reopened = DurableLogStore(path)
        assert reopened.records() == [b"persisted"]
        assert reopened.head() == head
        assert reopened.total_bytes == len(b"persisted")
        reopened.close()

    def test_append_after_reopen_continues_chain(self, tmp_path):
        path = str(tmp_path / "store")
        store = DurableLogStore(path)
        store.append_batch([b"first"])
        store.close()
        reopened = DurableLogStore(path)
        assert reopened.append_batch([b"second"]) == [leaf_hash(b"second")]
        assert len(reopened) == 2
        reopened.verify()
        assert reopened.records() == [b"first", b"second"]
        reopened.close()

    def test_truncated_file_detected(self, tmp_path):
        path = str(tmp_path / "store")
        store = DurableLogStore(path)
        store.append_batch([b"some record data"])
        store.checkpoint()
        store.close()
        with open(wal_segment(path), "r+b") as f:
            f.truncate(10)
        with pytest.raises(LogIntegrityError):
            DurableLogStore(path)


class TestOneLeafPerRecord:
    def test_every_store_returns_the_same_leaves_and_head(self, tmp_path):
        """In memory, deduplicating and on disk, a record is hashed into
        one leaf, and the chain steps on that leaf."""
        a = LogEntry(
            component_id="/pub",
            topic="/t",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
            data=b"frame" * 200,  # large enough to be deduplicated
            own_sig=b"s" * 64,
        ).encode()
        b = b"not a log entry"
        stores = [
            InMemoryLogStore(),
            DedupLogStore(),
            DurableLogStore(str(tmp_path / "store")),
        ]
        expected = sha256(sha256(GENESIS + leaf_hash(a)) + leaf_hash(b))
        for store in stores:
            assert store.append_batch([a, b]) == [leaf_hash(a), leaf_hash(b)]
            assert store.head() == expected
            store.verify()
            assert store.records() == [a, b]
            store.close()
