"""Fleet-scale fan-in soak: 1000+ concurrent clients against ONE
event-loop endpoint, every submission acknowledged, zero acked-evidence
loss, and a clean store audit afterwards.  About one client in fifty
sends 1 MiB records.

Deselected from tier-1 (see pyproject's addopts); run with
``pytest -m soak tests/core/test_fanin_soak.py``.
"""

import threading

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import LogEntry, Scheme

pytestmark = pytest.mark.soak

CLIENTS = 1000
ENTRIES_PER_CLIENT = 3
#: One client in this many sends camera-sized (1 MiB) records, so the
#: endpoint reassembles large frames in their own buffers while the other
#: connections' small frames interleave with them.
LARGE_CLIENT_EVERY = 50
LARGE_RECORD = 1 << 20


def _entries(client_index: int):
    size = LARGE_RECORD if client_index % LARGE_CLIENT_EVERY == 0 else 64
    return [
        LogEntry(
            component_id=f"/node{client_index}",
            topic=f"/t{client_index % 32}",
            seq=seq,
            scheme=Scheme.ADLP,
            data=b"x" * size,
        )
        for seq in range(1, ENTRIES_PER_CLIENT + 1)
    ]


class TestFanInSoak:
    def test_thousand_client_fan_in_no_acked_loss(self):
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        peak = {"connections": 0}

        def sample_peak() -> None:
            peak["connections"] = len(endpoint._connections)

        # Every client connects, then the barrier's action samples the
        # endpoint's live connection count while ALL of them are open at
        # once -- the many-thousand-connection fan-in claim, measured.
        connected = threading.Barrier(CLIENTS, action=sample_peak)
        acked = [0] * CLIENTS
        errors = []

        def run_client(index: int) -> None:
            client = RemoteLogger(endpoint.address)
            try:
                client.health(timeout=30.0)  # establish the connection
                connected.wait(timeout=180.0)
                count = client.submit_batch_sync(
                    _entries(index), timeout=120.0
                )
                assert count > 0
                acked[index] = ENTRIES_PER_CLIENT
                stats = client.stats()
                assert stats["dropped"] == 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((index, exc))
            finally:
                client.close()

        threads = [
            threading.Thread(target=run_client, args=(i,), daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:5]
        assert peak["connections"] >= CLIENTS
        # Zero acked-evidence loss: every acknowledged entry is in the log.
        assert sum(acked) == CLIENTS * ENTRIES_PER_CLIENT
        assert len(server) == CLIENTS * ENTRIES_PER_CLIENT
        # Clean audit: the store's hash chain and Merkle frontier check
        # out over the full fan-in ingest.
        server.verify_integrity()
        commitment = server.commitment()
        assert commitment.entries == CLIENTS * ENTRIES_PER_CLIENT
        endpoint.close()
