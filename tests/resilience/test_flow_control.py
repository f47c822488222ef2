"""Client-side flow control: the credit window, reconnect jitter, and how
the window bounds a flooding client against a slow server."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.remote import CreditWindow, full_jitter
from repro.middleware.transport.inproc import InprocTransport


def entry(seq, topic="/t", component="/p"):
    return LogEntry(
        component_id=component,
        topic=topic,
        type_name="std/String",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % seq,
    )


class TestCreditWindow:
    def test_charge_accumulates_and_trips_at_window(self):
        window = CreditWindow(window_bytes=100)
        assert not window.charge(40)
        assert not window.charge(40)
        assert window.charge(40)  # 120 >= 100: sync due
        assert window.outstanding == 120

    def test_settle_resets_and_counts(self):
        window = CreditWindow(window_bytes=10)
        window.charge(25)
        window.settle()
        assert window.outstanding == 0
        assert window.credit_syncs == 1

    def test_reset_clears_without_counting_a_sync(self):
        window = CreditWindow(window_bytes=10)
        window.charge(25)
        window.reset()
        assert window.outstanding == 0
        assert window.credit_syncs == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditWindow(window_bytes=0)


class TestFullJitter:
    def test_within_range_and_deterministic_when_seeded(self):
        rng = random.Random(7)
        values = [full_jitter(1.0, rng) for _ in range(100)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert len(set(values)) > 1  # actually jittered
        replay = random.Random(7)
        assert values == [full_jitter(1.0, replay) for _ in range(100)]

    def test_nonpositive_cap_is_zero(self):
        assert full_jitter(0.0) == 0.0
        assert full_jitter(-1.0) == 0.0


class TestReconnectJitter:
    """Reconnect backoff uses full jitter, not lockstep."""

    def test_failed_connect_backs_off_with_jitter_and_doubles_cap(self):
        transport = InprocTransport()  # nothing listening on this net
        client = RemoteLogger(
            ("inproc", "nowhere"),
            transport=transport,
            reconnect_backoff=0.5,
            max_reconnect_backoff=1.0,
            rng=random.Random(42),
        )
        try:
            before = time.monotonic()
            client.submit(entry(1))  # spills; schedules a jittered retry
            delay = client._next_attempt - before
            assert 0.0 <= delay <= 0.5 + 0.01
            assert client._backoff == pytest.approx(1.0)  # doubled
            client._next_attempt = 0.0  # force another attempt now
            client.submit(entry(2))
            assert client._backoff == pytest.approx(1.0)  # capped
            assert client.spilled == 2  # parked, not lost
        finally:
            client.close()

    def test_jitter_decorrelates_two_seeds(self):
        transport = InprocTransport()
        delays = []
        for seed in (1, 2):
            client = RemoteLogger(
                ("inproc", "nowhere"),
                transport=transport,
                reconnect_backoff=0.5,
                rng=random.Random(seed),
            )
            before = time.monotonic()
            client.submit(entry(1))
            delays.append(client._next_attempt - before)
            client.close()
        assert delays[0] != pytest.approx(delays[1], abs=1e-6)


class _SlowServer:
    """A ``LogServer`` whose batch ingest takes ``delay`` seconds."""

    def __init__(self, inner: LogServer, delay: float):
        self._inner = inner
        self._delay = delay

    def submit_batch(self, records):
        time.sleep(self._delay)
        return self._inner.submit_batch(records)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRemoteLoggerCreditWindow:
    def test_credit_sync_settles_window(self):
        server = LogServer()
        endpoint = LogServerEndpoint(server, transport=InprocTransport())
        client = RemoteLogger(
            endpoint.address, transport=endpoint._transport, window_bytes=1
        )
        try:
            client.submit(entry(1))  # every send now forces a credit sync
            stats = client.stats()
            assert stats["credit_syncs"] == 1
            assert stats["outstanding_bytes"] == 0
            assert len(server) == 1  # the sync proved the frame drained
        finally:
            client.close()
            endpoint.close()
            server.close()

    @staticmethod
    def _flood(window_bytes, batches=160, batch=4):
        """Flood a slow TCP endpoint with fire-and-forget batches; returns
        the largest count of sent-but-not-ingested entries seen after any
        submit returned, the encoded entry size, and the landed count."""
        server = LogServer()
        endpoint = LogServerEndpoint(_SlowServer(server, delay=0.005))
        client = RemoteLogger(endpoint.address, window_bytes=window_bytes)
        records = [entry(seq).encode() for seq in range(batch)]
        try:
            sent = 0
            backlog = 0
            for _ in range(batches):
                client.submit_batch(records)
                sent += len(records)
                backlog = max(backlog, sent - len(server))
            client.health(timeout=30.0)  # FIFO barrier
            return backlog, len(records[0]), len(server)
        finally:
            client.close()
            endpoint.close()
            server.close()

    def test_window_alone_bounds_a_flooding_clients_outstanding_bytes(self):
        window = 1024
        backlog, size, landed = self._flood(window)
        assert landed == 160 * 4
        # At most a window's worth plus the batch that crossed it.
        assert backlog * size <= window + 4 * size
        # Without the window the same flood runs far ahead of the server.
        unbounded, _, landed = self._flood(None)
        assert landed == 160 * 4
        assert unbounded * size > window + 4 * size


class TestBarrierAfterRpc:
    def test_health_barrier_covers_every_earlier_submit(self):
        """Regression: an RPC's receive timeout used to stay on the socket,
        so a later fire-and-forget send that blocked for longer than
        0.1 s (a server that paused reading) dropped the connection.  The
        records were re-sent on a new connection, and ``health()`` on that
        connection returned while the old one's frames were still landing.
        """
        server = LogServer()
        gate = threading.Event()

        class _Gated:
            def submit_batch(self, records):
                gate.wait(10.0)
                return server.submit_batch(records)

            def __len__(self):
                return len(server)

            def __getattr__(self, name):
                return getattr(server, name)

        endpoint = LogServerEndpoint(_Gated())
        client = RemoteLogger(endpoint.address, spill_capacity=100_000)
        big = LogEntry(
            component_id="/p", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=1, scheme=Scheme.ADLP,
            data=bytes(8192),
        )
        try:
            client.health(timeout=5.0)  # any RPC on the connection
            opener = threading.Timer(0.5, gate.set)
            opener.start()
            # The endpoint pauses reading at 1024 queued frames, so these
            # sends block until the gate opens.
            for _ in range(3500):
                client.submit(big)
            opener.join()
            client.health(timeout=30.0)
            assert len(server) == 3500
            stats = client.stats()
            assert stats["spill_retries"] == 0  # never reconnected
            assert stats["peer_close_respills"] == 0
        finally:
            gate.set()
            client.close()
            endpoint.close()
            server.close()
