"""Admission control: the controller's gauge and the endpoint's BUSY /
deadline wire behavior."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.remote import (
    OP_BUSY,
    OP_DEADLINE_EXPIRED,
    OP_SUBMIT_BATCH,
    LoggerRequest,
    _raise_for_verdict,
)
from repro.errors import DeadlineExceeded, ServerBusy
from repro.middleware.transport.inproc import InprocTransport
from repro.resilience import (
    AdmissionConfig,
    AdmissionController,
    BusyDecision,
)


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


class TestAdmissionController:
    def test_admits_below_watermark(self):
        ctrl = AdmissionController(AdmissionConfig(high_watermark=4))
        assert ctrl.try_admit(3) is None
        assert ctrl.depth == 3
        assert not ctrl.busy

    def test_busy_latches_at_high_and_clears_at_low(self):
        ctrl = AdmissionController(
            AdmissionConfig(high_watermark=4, low_watermark=1)
        )
        assert ctrl.try_admit(4) is None  # overshoot allowed while idle
        assert ctrl.busy
        decision = ctrl.try_admit(1)
        assert isinstance(decision, BusyDecision)
        assert decision.queue_depth == 4
        assert decision.retry_after > 0
        # hysteresis: draining to 2 (> low) keeps the latch set
        ctrl.release(2)
        assert ctrl.busy
        assert isinstance(ctrl.try_admit(1), BusyDecision)
        # draining to the low watermark clears it
        ctrl.release(1)
        assert not ctrl.busy
        assert ctrl.try_admit(1) is None

    def test_force_admit_never_refuses_but_trips_the_latch(self):
        ctrl = AdmissionController(AdmissionConfig(high_watermark=2))
        ctrl.force_admit(10)  # fire-and-forget: no response channel
        assert ctrl.depth == 10
        assert ctrl.busy
        assert isinstance(ctrl.try_admit(1), BusyDecision)
        stats = ctrl.stats()
        assert stats["admission_forced"] == 10
        assert stats["admission_busy_rejections"] == 1
        assert stats["admission_peak_depth"] == 10

    def test_retry_hint_scales_with_overshoot_and_clamps(self):
        ctrl = AdmissionController(
            AdmissionConfig(
                high_watermark=10, retry_after=0.05, max_retry_after=0.12
            )
        )
        ctrl.force_admit(10)
        mild = ctrl.try_admit(1).retry_after
        ctrl.force_admit(90)  # 10x past the watermark: clamp kicks in
        deep = ctrl.try_admit(1).retry_after
        assert mild == pytest.approx(0.05)
        assert deep == pytest.approx(0.12)

    def test_sync_wait_blocks_until_capacity(self):
        ctrl = AdmissionController(
            AdmissionConfig(high_watermark=2, low_watermark=0, sync_wait=5.0)
        )
        assert ctrl.try_admit(2) is None
        released = threading.Timer(0.05, ctrl.release, args=(2,))
        released.start()
        started = time.monotonic()
        assert ctrl.try_admit(1) is None  # blocked, then admitted
        assert time.monotonic() - started < 4.0
        released.join()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(high_watermark=0)
        with pytest.raises(ValueError):
            AdmissionConfig(high_watermark=4, low_watermark=4)
        with pytest.raises(ValueError):
            AdmissionConfig(retry_after=0.5, max_retry_after=0.1)


class TestEndpointBusyWire:
    def _serve(self, server=None, **admission_kwargs):
        server = server or LogServer()
        admission = AdmissionController(AdmissionConfig(**admission_kwargs))
        endpoint = LogServerEndpoint(
            server, transport=InprocTransport(), admission=admission
        )
        return server, admission, endpoint

    def test_sync_submit_refused_with_busy_verdict(self):
        server, admission, endpoint = self._serve(
            high_watermark=2, low_watermark=0, retry_after=0.03
        )
        admission.force_admit(5)  # simulate concurrent in-flight ingest
        client = RemoteLogger(endpoint.address, transport=endpoint._transport)
        try:
            with pytest.raises(ServerBusy) as excinfo:
                client.submit_batch_sync([entry(1)], timeout=1.0)
            assert excinfo.value.queue_depth == 5
            assert excinfo.value.retry_after > 0
            assert client.busy_responses == 1
            assert len(server) == 0  # refused before ingest
            admission.release(5)
            assert client.submit_batch_sync([entry(1)], timeout=1.0) == 1
            assert len(server) == 1
        finally:
            client.close()
            endpoint.close()

    def test_busy_response_carries_entry_count_for_credit_settling(self):
        """Even a refused credit sync settles the client's window: the
        BUSY response carries the server's current entry count."""
        server, admission, endpoint = self._serve(
            high_watermark=2, low_watermark=0
        )
        server.register_key("/p", _keypair().public)
        transport = endpoint._transport
        client = RemoteLogger(endpoint.address, transport=transport)
        try:
            admission.force_admit(5)
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH, entry_batch=[], sync=True
            )
            response = client._rpc(request, timeout=1.0)
            assert not response.ok
            assert int(response.code) == OP_BUSY
            assert int(response.entries) == len(server)
            assert int(response.queue_depth) == 5
            assert int(response.retry_after_ms) > 0
        finally:
            client.close()
            endpoint.close()

    def test_fire_and_forget_is_force_admitted_not_refused(self):
        server, admission, endpoint = self._serve(
            high_watermark=1, low_watermark=0
        )
        server.register_key("/p", _keypair().public)
        client = RemoteLogger(endpoint.address, transport=endpoint._transport)
        try:
            admission.force_admit(3)  # latch busy
            for seq in range(1, 6):
                client.submit(entry(seq))
            deadline = time.monotonic() + 5.0
            while len(server) < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server) == 5  # nothing refused, nothing lost
            assert admission.stats()["admission_forced"] >= 8
        finally:
            client.close()
            endpoint.close()

    def test_deadline_expired_refuses_without_ingesting(self):
        server, admission, endpoint = self._serve(
            high_watermark=1, low_watermark=0, sync_wait=5.0
        )
        server.register_key("/p", _keypair().public)
        client = RemoteLogger(endpoint.address, transport=endpoint._transport)
        try:
            # deadline_ms=0 means "no deadline" on the wire; prove that
            # first (with capacity available the frame ingests normally).
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH,
                entry_batch=[entry(1).encode()],
                sync=True,
                deadline_ms=0,
            )
            response = client._rpc(request, timeout=1.0)
            assert response.ok
            assert len(server) == 1

            # Now make admission's sync_wait eat the whole budget: the
            # latch is busy on arrival, capacity only frees after ~80ms,
            # and the 30ms deadline has expired by the time the frame is
            # admitted -- the server must refuse WITHOUT ingesting.
            admission.force_admit(1)
            freed = threading.Timer(0.08, admission.release, args=(1,))
            freed.start()
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH,
                entry_batch=[entry(2).encode()],
                sync=True,
                deadline_ms=30,
            )
            response = client._rpc(request, timeout=5.0)
            freed.join()
            assert not response.ok
            assert int(response.code) == OP_DEADLINE_EXPIRED
            assert len(server) == 1  # the expired entry was NOT ingested
            assert int(response.entries) == 1
            assert admission.stats()["admission_deadline_rejections"] == 1
            # The client stub translates the verdict into the typed error.
            with pytest.raises(DeadlineExceeded):
                _raise_for_verdict(response)
        finally:
            client.close()
            endpoint.close()
            server.close()

    def test_stats_probe_merges_admission_counters(self):
        server, admission, endpoint = self._serve(high_watermark=8)
        client = RemoteLogger(endpoint.address, transport=endpoint._transport)
        try:
            server.register_key("/p", _keypair().public)
            client.submit_batch_sync([entry(1)], timeout=1.0)
            stats = client.server_stats()
            assert stats["admission_admitted"] == 1
            assert "admission_peak_depth" in stats
            assert "admission_busy_rejections" in stats
        finally:
            client.close()
            endpoint.close()


def _keypair():
    from repro.crypto.keys import generate_keypair

    return generate_keypair(512, seed=424242)
