"""Allocation budgets of the byte path: every payload is held once.

``tracemalloc`` over the two places a large payload used to be kept (or
copied) more than once:

* the logger -- ``LogServer`` over a ``DurableLogStore``: the WAL is the
  one place a record lives, so ingest and re-open retain nothing of it and
  what the logger retains does not grow with the bytes it has logged; the
  only transient copy on ingest is the ``data`` slice of the decode check,
  and hashing and the WAL write copy nothing;
* the publisher's pending window -- a publication ACKed in time is logged
  from its frame and kept nowhere;
* the logger link -- ``RemoteLogger`` sends a record's encoded request as
  parts, so it builds no frame-sized buffer, and ``LogServerEndpoint``
  reads a large frame into one buffer, copies each record out once and
  keeps nothing of the frame after dispatch; its ``OP_FETCH`` answer goes
  out as parts too, so a served record is not copied.

Budgets are ratios of the payload size, so they are deterministic: no
timing, no sleeps (waits are on counters).
"""

from __future__ import annotations

import gc
import random
import socket
import threading
import tracemalloc
import types

import pytest

from repro.core import AdlpConfig, AdlpProtocol, LogServer, LogServerEndpoint
from repro.core import RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.remote import (
    OP_FETCH,
    OP_SUBMIT_BATCH,
    LoggerRequest,
    LoggerResponse,
)
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes
from repro.middleware.transport import framing
from repro.storage.durable_store import DurableLogStore
from repro.util.concurrency import wait_for

RECORD_BYTES = 4 * 1024 * 1024

#: beyond the caller's record(s), as a ratio of their size
RETAINED_BUDGET = 0.05
TRANSIENT_BUDGET = 1.25


def _record(seq: int) -> bytes:
    return LogEntry(
        component_id="/camera",
        topic="/image",
        type_name="std/RawBytes",
        direction=Direction.OUT,
        seq=seq,
        timestamp=float(seq),
        scheme=Scheme.ADLP,
        data=random.Random(seq).randbytes(RECORD_BYTES),
        own_sig=b"s" * 128,
    ).encode()


def _traced(operation):
    """``(retained, peak)`` bytes allocated by ``operation()``; its result
    is kept alive until both are read."""
    gc.collect()
    tracemalloc.start()
    try:
        result = operation()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, peak, result


class TestLoggerHoldsTheRecordOnce:
    def _open(self, path) -> LogServer:
        return LogServer(DurableLogStore(str(path), fsync="always"))

    def test_submit(self, tmp_path):
        server = self._open(tmp_path)
        try:
            record = _record(1)
            retained, peak, _ = _traced(lambda: server.submit(record))
            assert retained <= RETAINED_BUDGET * len(record)
            assert peak <= TRANSIENT_BUDGET * len(record)
            # served back from the WAL
            assert server.raw_records() == [record]
        finally:
            server.close()

    def test_submit_batch(self, tmp_path):
        server = self._open(tmp_path)
        try:
            batch = [_record(1), _record(2)]
            size = sum(len(record) for record in batch)
            retained, peak, _ = _traced(lambda: server.submit_batch(batch))
            assert retained <= RETAINED_BUDGET * size
            assert peak <= TRANSIENT_BUDGET * size
            assert server.raw_records() == batch
        finally:
            server.close()

    def test_retained_memory_is_flat_in_log_length(self, tmp_path):
        """Ingesting twice the records retains no more: per record the
        logger keeps hashes and a WAL location, never the bytes."""
        server = self._open(tmp_path)
        count = 3

        def ingest(first, n):
            for seq in range(first, first + n):
                server.submit(_record(seq))

        try:
            retained_n, _, _ = _traced(lambda: ingest(0, count))
            retained_2n, _, _ = _traced(lambda: ingest(count, 2 * count))
            assert retained_n <= RETAINED_BUDGET * RECORD_BYTES
            assert retained_2n <= retained_n + RETAINED_BUDGET * RECORD_BYTES
            assert len(server) == 3 * count
        finally:
            server.close()

    def test_reopen(self, tmp_path):
        """Recovery streams: the WAL replay and the server's rebuild (CRC,
        chain, Merkle, decode check) each hold one record at a time, and
        nothing of the stored bytes stays behind."""
        server = self._open(tmp_path)
        records = [_record(1), _record(2), _record(3)]
        server.submit(records[0])
        server.submit_batch(records[1:])
        commitment = server.commitment()
        server.close()
        del server
        stored = sum(len(record) for record in records)

        retained, peak, reopened = _traced(lambda: self._open(tmp_path))
        try:
            assert retained <= RETAINED_BUDGET * stored
            assert peak <= TRANSIENT_BUDGET * RECORD_BYTES
            assert reopened.commitment() == commitment
            assert reopened.raw_records() == records
        finally:
            reopened.close()

    def test_entries_decode_on_read(self, tmp_path):
        """The decoded form exists from the first ``entries()`` call on,
        and is memoised: a second call allocates no second copy."""
        server = self._open(tmp_path)
        try:
            record = _record(1)
            server.submit(record)
            retained, _, first = _traced(server.entries)
            assert 1.0 * RECORD_BYTES <= retained <= 1.05 * RECORD_BYTES
            assert first[0].encode() == record
            retained, _, again = _traced(server.entries)
            assert retained <= RETAINED_BUDGET * RECORD_BYTES
            assert again[0] is first[0]
            server.submit(_record(2))
            assert [entry.seq for entry in server.entries()] == [1, 2]
        finally:
            server.close()


PAYLOAD_BYTES = 1024 * 1024
PUBLICATIONS = 64
TOPIC = "/image"


class _DiscardingLogger:
    """A logger that counts entries and keeps none, so whatever is still
    allocated after a drain belongs to the nodes themselves."""

    def __init__(self) -> None:
        self.submitted = 0
        self._lock = threading.Lock()

    def register_key(self, component_id, key) -> None:
        pass

    def submit(self, entry) -> int:
        return self.submit_batch([entry])[0]

    def submit_batch(self, entries):
        with self._lock:
            first = self.submitted
            self.submitted += len(entries)
        return list(range(first, first + len(entries)))


def _payloads_referenced_by(root) -> int:
    """Payload-sized byte strings reachable from ``root`` through object
    references (not through code: modules, classes and functions are not
    followed, nor are the stacks of running threads)."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            found += len(obj) >= PAYLOAD_BYTES
        elif not isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture()
def nodes(keypool):
    """Publisher ``/pub`` and subscribers ``/sub1``, ``/sub2`` on one
    master, every node with its own ADLP protocol."""
    made = []

    def make(logger, names=("/pub", "/sub1", "/sub2")):
        master = Master()
        config = AdlpConfig(key_bits=512, ack_timeout=30.0)
        for index, name in enumerate(names):
            protocol = AdlpProtocol(name, logger, config=config, keypair=keypool[index])
            made.append(Node(name, master, protocol=protocol))
        return made

    yield make
    for node in made:
        node.shutdown()


class TestPublisherWindow:
    def test_acked_publications_are_released(self, nodes):
        """64 x 1 MiB through a real node pair: after the drain the
        protocol references at most two payloads (at the parent commit its
        window pinned all 64), and what is still allocated at all does not
        grow with the number of publications -- the last frame, message
        and entry in the locals of the link worker, the subscriber's
        reader and the logging threads."""
        logger = _DiscardingLogger()
        pub_node, sub_node = nodes(logger, names=("/pub", "/sub1"))
        delivered = []
        sub_node.subscribe(TOPIC, RawBytes, lambda msg: delivered.append(len(msg.data)))
        publisher = pub_node.advertise(TOPIC, RawBytes, queue_size=PUBLICATIONS)
        assert publisher.wait_for_subscribers(1)
        data = random.Random(7).randbytes(PAYLOAD_BYTES)

        def publish_and_drain():
            for _ in range(PUBLICATIONS):
                publisher.publish(RawBytes(data=data))
            # both entries of every publication reached the logger
            assert wait_for(
                lambda: logger.submitted >= 2 * PUBLICATIONS, timeout=60.0
            )

        retained, _, _ = _traced(publish_and_drain)
        assert delivered == [PAYLOAD_BYTES] * PUBLICATIONS
        assert pub_node.protocol.stats.acks_received == PUBLICATIONS
        assert not publisher._protocol._pending
        assert _payloads_referenced_by(publisher._protocol) <= 2
        assert retained <= 8 * PAYLOAD_BYTES

    def test_slow_subscriber_still_gets_its_proven_entry(self, nodes):
        """Two subscribers, one stalled in its callback: the fast link
        runs ahead, the slow one catches up, and every transmission ends
        as a proven ``L_x`` -- no link depends on a window another link's
        ACK emptied."""
        server = LogServer()
        pub_node, fast_node, slow_node = nodes(server)
        release = threading.Event()
        fast = fast_node.subscribe(TOPIC, RawBytes, lambda msg: None)
        slow = slow_node.subscribe(TOPIC, RawBytes, lambda msg: release.wait(30.0))
        publisher = pub_node.advertise(TOPIC, RawBytes)
        assert publisher.wait_for_subscribers(2)
        for seq in range(1, 4):
            publisher.publish(RawBytes(data=b"frame-%d" % seq))
        assert fast.wait_for_messages(3)
        assert slow.stats.received <= 1  # still inside its first callback
        release.set()
        assert slow.wait_for_messages(3)
        assert wait_for(lambda: pub_node.protocol.stats.acks_received == 6, timeout=10.0)
        assert pub_node.protocol.flush()
        proven = sorted(
            (entry.seq, entry.peer_id)
            for entry in server.entries(component_id="/pub")
            if entry.peer_sig
        )
        assert proven == [
            (seq, peer) for seq in (1, 2, 3) for peer in ("/sub1", "/sub2")
        ]
        assert not publisher._protocol._pending


#: What the endpoint may hold at once while it ingests one large frame,
#: as a ratio of the record: the frame's receive buffer and the record
#: copied out of it, then that copy and the logger's transient on ingest
#: (2.0 each).  A frame buffer that outlives the copy reads 3.1.
ENDPOINT_PEAK_BUDGET = 2.5


def _read(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from ``sock``; ``False`` if the peer closed first."""
    while view:
        received = sock.recv_into(view)
        if not received:
            return False
        view = view[received:]
    return True


class _DiscardSink:
    """A logger endpoint that reads every frame into one buffer it
    allocated up front (``recv_into``), answers acknowledged requests and
    keeps nothing, so the traced memory of a submit is the client's."""

    def __init__(self, capacity: int) -> None:
        self.frames = 0
        self._buffer = bytearray(capacity)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = ("tcp",) + self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        sock, _ = self._listener.accept()
        with sock, memoryview(self._buffer) as buffer:
            while _read(sock, buffer[: framing.PREAMBLE_SIZE]):
                length = int.from_bytes(buffer[: framing.PREAMBLE_SIZE], "little")
                if not _read(sock, buffer[:length]):
                    return
                request = LoggerRequest.decode(buffer[:length])
                self.frames += 1  # counted before the reply releases the caller
                if request.sync:
                    reply = LoggerResponse(ok=True, entries=1, corr_id=request.corr_id)
                    framing.send_frame(sock, reply.encode())

    def close(self) -> None:
        self._listener.close()


class TestLoggerLinkSendsNoFrameCopy:
    """The client sends a large record without building a frame-sized
    buffer; joining the request and prefixing the preamble copied it
    twice (2.0)."""

    @pytest.fixture()
    def link(self):
        sink = _DiscardSink(2 * RECORD_BYTES)
        client = RemoteLogger(sink.address)
        yield sink, client
        client.close()
        sink.close()

    def test_fire_and_forget(self, link):
        sink, client = link
        record = _record(1)
        client.submit_batch([b"warm-up"])  # connect outside the trace

        def submit():
            client.submit_batch([record])
            assert wait_for(lambda: sink.frames == 2, timeout=30.0)

        _, peak, _ = _traced(submit)
        assert peak <= TRANSIENT_BUDGET * len(record)
        assert client.stats()["dropped"] == 0

    def test_acknowledged(self, link):
        sink, client = link
        record = _record(1)
        client.submit_batch_sync([b"warm-up"])

        _, peak, count = _traced(lambda: client.submit_batch_sync([record]))
        assert count == 1 and sink.frames == 2
        assert peak <= TRANSIENT_BUDGET * len(record)


class TestEndpointKeepsNoFrame:
    """A pre-framed 4 MiB submit written raw to the endpoint: after
    dispatch the endpoint keeps the stored record and nothing of the frame
    it arrived in, and at no time holds more than the frame's buffer, the
    record's copy and the ingest's transient."""

    @pytest.fixture()
    def endpoint(self):
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        sock = socket.create_connection(endpoint.address[1:])
        yield server, endpoint, sock
        sock.close()
        endpoint.close()

    @pytest.mark.parametrize("sync", [False, True])
    def test_dispatch(self, endpoint, sync):
        server, _, sock = endpoint
        record = _record(1)
        frame = framing.encode_frame(
            LoggerRequest(
                op=OP_SUBMIT_BATCH, entry_batch=[record], sync=sync, corr_id=7
            ).encode()
        )

        def submit():
            sock.sendall(frame)
            if sync:
                reply = LoggerResponse.decode(framing.recv_frame(sock))
                assert reply.ok and reply.corr_id == 7
            assert wait_for(lambda: len(server) == 1, timeout=30.0)

        retained, peak, _ = _traced(submit)
        assert retained <= (1 + RETAINED_BUDGET) * len(record)
        assert peak <= ENDPOINT_PEAK_BUDGET * len(record)
        assert server.raw_records() == [record]

    def test_fetch_reply_is_not_copied(self, endpoint):
        """The ``OP_FETCH`` answer is queued as its parts: the endpoint
        holds the stored record and no joined or framed copy of it (the
        join and the preamble's concatenation read 2.0)."""
        server, _, sock = endpoint
        record = _record(1)
        server.submit(record)
        request = framing.encode_frame(
            LoggerRequest(op=OP_FETCH, start=0, count=1, corr_id=9).encode()
        )
        reply = bytearray(len(record) + 4096)  # allocated outside the trace

        def fetch():
            sock.sendall(request)
            with memoryview(reply) as view:
                assert _read(sock, view[: framing.PREAMBLE_SIZE])
                length = int.from_bytes(view[: framing.PREAMBLE_SIZE], "little")
                assert _read(sock, view[:length])
            return length

        _, peak, length = _traced(fetch)
        assert peak <= TRANSIENT_BUDGET * len(record)
        response = LoggerResponse.decode(bytes(reply[:length]))
        assert response.corr_id == 9 and response.records == [record]
