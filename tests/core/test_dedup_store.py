"""Server-side dedup storage (the paper's §VI-E server-side optimization)."""

import pytest

from repro.core import LogServer
from repro.core.dedup_store import DedupLogStore
from repro.core.entries import Direction, LogEntry, Scheme
from repro.errors import LogIntegrityError


def entry_with_payload(payload, seq=1, peer="/sub"):
    return LogEntry(
        component_id="/pub",
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=payload,
        own_sig=b"s" * 64,
        peer_id=peer,
        peer_hash=b"h" * 32,
        peer_sig=b"t" * 64,
    )


class TestDedup:
    def test_identical_payloads_stored_once(self):
        store = DedupLogStore()
        payload = b"frame" * 10000  # 50 KB
        # 4 subscribers -> 4 publisher entries carrying the same frame
        for i, peer in enumerate(["/a", "/b", "/c", "/d"]):
            store.append_batch([entry_with_payload(payload, seq=1, peer=peer).encode()])
        assert store.dedup_ratio > 3.0
        assert store.physical_bytes < store.total_bytes

    def test_small_payloads_not_deduped(self):
        store = DedupLogStore()
        for i in range(3):
            store.append_batch([entry_with_payload(b"tiny", seq=i + 1).encode()])
        assert store.dedup_ratio == pytest.approx(1.0, rel=0.01)

    def test_records_reconstruct_byte_identically(self):
        store = DedupLogStore()
        originals = [
            entry_with_payload(b"frame" * 1000, seq=i + 1, peer=p).encode()
            for i, p in enumerate(["/a", "/b"])
        ]
        for record in originals:
            store.append_batch([record])
        assert store.records() == originals

    def test_verify_passes_on_clean_store(self):
        store = DedupLogStore()
        for i in range(5):
            store.append_batch([entry_with_payload(b"data" * 500, seq=i + 1).encode()])
        store.verify()

    def test_blob_tamper_detected(self):
        store = DedupLogStore()
        store.append_batch([entry_with_payload(b"frame" * 1000).encode()])
        ref = next(iter(store._blobs))
        store._blobs[ref] = b"tampered" * 1000
        with pytest.raises(LogIntegrityError):
            store.verify()

    def test_stripped_record_tamper_detected(self):
        store = DedupLogStore()
        store.append_batch([entry_with_payload(b"frame" * 1000).encode()])
        store._stripped[0] = entry_with_payload(b"", seq=99).encode()
        with pytest.raises(LogIntegrityError):
            store.verify()

    def test_non_entry_records_stored_verbatim(self):
        store = DedupLogStore()
        blob = b"\x00\x01\x02 not a LogEntry" * 100
        store.append_batch([blob])
        assert store.records() == [blob]
        store.verify()

    def test_head_matches_plain_store(self):
        """The chain commitment is identical to a plain store's, so the
        optimization is invisible to auditors and case bundles."""
        from repro.core.log_store import InMemoryLogStore

        plain = InMemoryLogStore()
        dedup = DedupLogStore()
        for i in range(4):
            record = entry_with_payload(b"frame" * 1000, seq=i + 1).encode()
            plain.append_batch([record])
            dedup.append_batch([record])
        assert plain.head() == dedup.head()


class TestWithLogServer:
    def test_log_server_over_dedup_store(self, keypool):
        store = DedupLogStore()
        server = LogServer(store=store)
        payload = b"image-bytes" * 5000
        for i, peer in enumerate(["/a", "/b", "/c"]):
            server.submit(entry_with_payload(payload, seq=1, peer=peer))
        assert len(server) == 3
        server.verify_integrity()
        assert store.dedup_ratio > 2.0
        # queries still see full entries
        assert all(e.data == payload for e in server.entries())