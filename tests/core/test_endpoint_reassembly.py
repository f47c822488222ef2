"""Frame reassembly of the event-loop ``LogServerEndpoint``.

The endpoint reads whatever the socket holds: small frames are cut out of
one receive buffer, and a frame too long for one read moves into a
buffer of its exact size once a quarter of it has arrived.  These tests
write seeded streams in seeded random-size pieces -- a piece that ends
inside a preamble, a piece carrying a large frame's tail together with
whole small frames -- from concurrent clients, and check that every entry
is ingested once, in its connection's order, byte for byte.  A bare
preamble announcing the largest frame must reserve nothing.

Waits are on counters, never on sleeps.
"""

from __future__ import annotations

import random
import socket
import struct
import sys
import threading
import tracemalloc
from typing import List, Tuple

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import LogEntry, Scheme
from repro.core.remote import OP_SUBMIT_BATCH, LoggerRequest
from repro.middleware.transport import framing
from repro.util.concurrency import wait_for

CLIENTS = 8
LARGE = 1 << 20
SMALL_BATCH = 64
#: frame kinds of every client's stream, in order: a large frame is
#: followed by two small ones, so one piece can carry its tail and both
PLAN = ("small", "large", "small", "small", "large", "small")


def _record(client: int, seq: int, size: int, rng: random.Random) -> bytes:
    return LogEntry(
        component_id=f"/c{client}",
        topic="/t",
        seq=seq,
        scheme=Scheme.ADLP,
        data=rng.randbytes(size),
    ).encode()


def _stream(client: int, rng: random.Random) -> Tuple[List[bytes], List[bytes]]:
    """``(records, frames)``: one client's records and the frames that
    carry them, in the order of :data:`PLAN`."""
    records: List[bytes] = []
    frames: List[bytes] = []
    for kind in PLAN:
        first = len(records) + 1
        if kind == "small":
            batch = [
                _record(client, first + i, rng.randint(16, 512), rng)
                for i in range(SMALL_BATCH)
            ]
        else:
            batch = [_record(client, first, LARGE + rng.randrange(1 << 16), rng)]
        records.extend(batch)
        frames.append(
            framing.encode_frame(
                LoggerRequest(op=OP_SUBMIT_BATCH, entry_batch=batch).encode()
            )
        )
    return records, frames


def _pieces(frames: List[bytes], rng: random.Random) -> List[bytes]:
    """The concatenated frames, cut at seeded random points plus two
    chosen ones: inside the preamble of the third frame, and around the
    last 1000 bytes of the first large frame together with the two small
    frames after it (no cut falls inside that piece)."""
    starts = [0]
    for frame in frames:
        starts.append(starts[-1] + len(frame))
    stream = b"".join(frames)
    large = PLAN.index("large")
    carried = (starts[large + 1] - 1000, starts[large + 3])
    cuts = {starts[2] + 2, *carried}
    at = 0
    while True:
        at += rng.randint(1, 300 * 1024)
        if at >= len(stream):
            break
        if not carried[0] < at < carried[1]:
            cuts.add(at)
    bounds = [0, *sorted(cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.fixture()
def endpoint():
    server = LogServer()
    endpoint = LogServerEndpoint(server)
    yield server, endpoint
    endpoint.close()


class TestReassembly:
    def test_concurrent_piecewise_streams_ingest_in_order(self, endpoint, rng):
        server, ep = endpoint
        streams = [
            _stream(client, random.Random(rng.random())) for client in range(CLIENTS)
        ]
        pieces = [
            _pieces(frames, random.Random(rng.random())) for _, frames in streams
        ]
        errors = []

        def write(client: int) -> None:
            try:
                with socket.create_connection(ep.address[1:]) as sock:
                    for piece in pieces[client]:
                        sock.sendall(piece)
                    total = sum(len(records) for records, _ in streams)
                    # keep the connection open until everything is in
                    assert wait_for(lambda: len(server) == total, timeout=60.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((client, exc))

        writers = [
            threading.Thread(target=write, args=(client,), daemon=True)
            for client in range(CLIENTS)
        ]
        # switch threads often, so the event loop, the dispatch workers
        # and the writers interleave at many more points
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert not errors, errors
        assert ep.rejected == 0
        stored = server.raw_records()
        owners = [LogEntry.decode(record).component_id for record in stored]
        for client, (records, _) in enumerate(streams):
            mine = [r for r, owner in zip(stored, owners) if owner == f"/c{client}"]
            assert mine == records, client

    def test_frames_before_an_oversized_preamble_are_ingested(self, endpoint, rng):
        """A frame that arrives in the same read as a preamble over the
        frame cap is still dispatched before the connection is closed."""
        server, ep = endpoint
        record = _record(0, 1, 64, rng)
        frame = framing.encode_frame(
            LoggerRequest(op=OP_SUBMIT_BATCH, entry_batch=[record]).encode()
        )
        with socket.create_connection(ep.address[1:]) as sock:
            sock.sendall(frame + struct.pack("<I", framing.MAX_FRAME_SIZE + 1))
            assert wait_for(lambda: len(server) == 1, timeout=10.0)
            assert sock.recv(1) == b""  # and the violator is cut off
        assert server.raw_records() == [record]


class TestBarePreamble:
    def test_reserves_nothing_and_blocks_no_one(self, endpoint, rng):
        """A preamble announcing the largest frame, then silence: the
        endpoint reserves no frame buffer for it, and another connection's
        acknowledged submit still completes."""
        server, ep = endpoint
        client = RemoteLogger(ep.address)
        try:
            assert client.submit_batch_sync([_record(1, 1, 64, rng)]) == 1
            hostile = socket.create_connection(ep.address[1:])

            def attack() -> int:
                hostile.sendall(struct.pack("<I", framing.MAX_FRAME_SIZE))
                assert wait_for(
                    lambda: any(
                        len(state.rbuf) == framing.PREAMBLE_SIZE
                        for state in list(ep._states.values())
                    ),
                    timeout=10.0,
                )
                return client.submit_batch_sync([_record(1, 2, 64, rng)])

            tracemalloc.start()
            try:
                count = attack()
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            hostile.close()
            assert count == 2
            assert retained <= LARGE and peak <= LARGE
        finally:
            client.close()
