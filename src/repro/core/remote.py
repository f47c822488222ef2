"""Remote trusted logger.

The paper's logger "could be a remote log server, a local file, or even a
trusted hardware device" (Section II-A).  The in-process
:class:`~repro.core.log_server.LogServer` covers the local cases; this
module puts it behind a socket:

- :class:`LogServerEndpoint` exposes a :class:`LogServer` over any
  middleware transport (TCP in practice), speaking a small framed RPC:
  ``REGISTER_KEY``, ``SUBMIT_BATCH``, ``HEALTH`` (the replica commitment
  probe), ``FETCH`` (raw-record ranges for anti-entropy catch-up), and
  ``KEYS`` (key-registry snapshot, so a recovering replica can be
  re-keyed).
- :class:`RemoteLogger` is the component-side stub with the same
  ``register_key``/``submit_batch`` surface the protocols expect, so an
  :class:`~repro.core.adlp_protocol.AdlpProtocol` can be pointed at a
  remote logger with no other change.

Faithful to the paper's failure model, ``SUBMIT_BATCH`` is fire-and-forget
(unless the caller asks for an acknowledgement): the client never waits
for a response, so "any failure at the log server does not interrupt a
normal operation of the ROS nodes".  Only key
registration is synchronous (it happens once, at startup, and the paper's
trust model requires the key to be transferred securely before data
flows).
"""

from __future__ import annotations

import json
import logging
import os
import random
import selectors
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.entries import LogEntry
from repro.core.log_server import LogCommitment, LogServer
from repro.crypto.keys import PublicKey
from repro.crypto.merkle import MerkleConsistencyProof, MerkleProof
from repro.errors import (
    DeadlineExceeded,
    LoggingError,
    ProofError,
    TransportError,
)
from repro.gossip.monitor import TreeHeadMonitor
from repro.gossip.sth import SignedTreeHead
from repro.middleware.transport import framing
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Transport,
)
from repro.middleware.transport.tcp import TcpTransport
from repro.serialization import (
    WireMessage,
    boolean,
    bytes_,
    repeated,
    string,
    uint64,
)
from repro.storage.spillfile import DiskSpillFile
from repro.util.concurrency import StoppableThread

logger = logging.getLogger(__name__)


class RemoteUnavailable(LoggingError):
    """The server could not be reached, the connection died mid-exchange,
    or the reply never arrived.

    A :class:`LoggingError` subclass so existing callers are unaffected,
    but distinguishable from a server that *answered* with a rejection:
    a caller may reconnect and reconcile on this, while a server-side
    rejection (misroute, undecodable entry) must propagate -- resending
    would just replay the same refusal.
    """


class RecordTooLarge(LoggingError):
    """A record larger than any frame can carry: the batch holding it was
    refused before anything was sent."""


#: RPC operation codes.  Code 2 was the retired single-entry submit (a
#: lone record is now a batch of one); it is never reused, and a frame
#: still carrying it ingests nothing.
OP_REGISTER_KEY = 1
OP_HEALTH = 3
OP_FETCH = 4
OP_KEYS = 5
OP_SUBMIT_BATCH = 6
OP_CHECKPOINT = 7
OP_STATS = 8
#: Response verdict code (``LoggerResponse.code``; shares the op number
#: space so a wire trace reads unambiguously): a request whose
#: client-stamped budget ran out before the expensive work (the entry was
#: NOT ingested).  Old clients skip the unknown field and see an ordinary
#: ``ok=False`` rejection, which is safe (the work did not land).  Code 10
#: was the retired admission-control BUSY verdict; it is never reused, and
#: a reply still carrying it is a plain rejection.
OP_DEADLINE_EXPIRED = 11
#: Proof-plane ops (split-view detection): ``OP_STH`` fetches the signed
#: tree head, ``OP_PROVE_INCLUSION`` / ``OP_PROVE_CONSISTENCY`` fetch
#: Merkle proofs a client verifies against the heads it holds.  All three
#: are deadline-aware like every other sync op.
OP_STH = 12
OP_PROVE_INCLUSION = 13
OP_PROVE_CONSISTENCY = 14
#: Response verdict: the proof request itself was malformed (out-of-range
#: or negative index / size) -- a clean typed refusal, never a traceback.
OP_PROOF_RANGE = 15

#: Upper bound on records returned by one ``OP_FETCH`` (bounds response
#: frames; catch-up loops until it has the whole range).
FETCH_BATCH_LIMIT = 4096

#: Payload bytes per ``OP_SUBMIT_BATCH`` frame before a batch is split
#: across frames (stays far below the transport's 64 MiB frame cap even
#: for image-sized entries).
BATCH_FRAME_BYTES = 8 * 1024 * 1024

#: Bound on the round trip of one credit sync (see
#: :meth:`RemoteLogger._credit_sync`), seconds: as long as the TCP
#: transport lets a blocked send wait.  A sync that gives up sooner lets
#: the client outrun a slow server, and on a connection that has not yet
#: seen a reply it also drops the connection while its frames are still
#: queued at the server.
CREDIT_SYNC_TIMEOUT = 30.0


#: Bytes an ``OP_SUBMIT_BATCH`` frame carrying one record spends besides
#: the record: its tag and length, the op, sync flag, deadline and
#: correlation id take 42 at most.
_REQUEST_OVERHEAD = 64


def _fits_a_frame(record: bytes) -> bool:
    """Whether an ``OP_SUBMIT_BATCH`` frame can carry ``record`` within
    the transport's frame cap."""
    return len(record) <= framing.MAX_FRAME_SIZE - _REQUEST_OVERHEAD


def _frame_chunks(records: List[bytes]) -> Iterator[List[bytes]]:
    """Split ``records`` into runs whose payload bytes stay within
    :data:`BATCH_FRAME_BYTES` (a record larger than that runs alone), so
    every ``OP_SUBMIT_BATCH`` frame stays far below the transport's cap."""
    chunk: List[bytes] = []
    size = 0
    for record in records:
        if chunk and size + len(record) > BATCH_FRAME_BYTES:
            yield chunk
            chunk, size = [], 0
        chunk.append(record)
        size += len(record)
    if chunk:
        yield chunk


def _raise_for_verdict(response: "LoggerResponse") -> None:
    """Raise :class:`DeadlineExceeded` for a deadline verdict; any other
    failed response falls through to the caller's generic handling."""
    if not response.ok and int(response.code) == OP_DEADLINE_EXPIRED:
        raise DeadlineExceeded(
            str(response.error) or "deadline expired server-side"
        )


def full_jitter(cap: float, rng: Optional[random.Random] = None) -> float:
    """AWS-style full jitter: ``uniform(0, cap)``.

    Decorrelates clients that all hit the same failure at the same time;
    pass a seeded ``rng`` in tests for determinism.
    """
    if cap <= 0:
        return 0.0
    r = rng.random() if rng is not None else random.random()
    return cap * r


class CreditWindow:
    """Outstanding-bytes gauge for one fire-and-forget connection.

    Fire-and-forget submission has no per-request ack, so a client could
    stuff an unbounded number of bytes into a socket whose far end has
    stopped draining.  The window caps *outstanding* (sent but
    unconfirmed) bytes: ``charge`` returns ``True`` once they reach
    ``window_bytes`` and a credit sync should be issued; ``settle``
    resets after the sync round trip proved the server drained
    everything prior.  Not thread-safe on its own -- the owning
    :class:`RemoteLogger` is single-submitter per node.
    """

    def __init__(self, window_bytes: int):
        if window_bytes < 1:
            raise ValueError("window_bytes must be >= 1")
        self.window_bytes = window_bytes
        self.outstanding = 0
        self.credit_syncs = 0

    def charge(self, nbytes: int) -> bool:
        self.outstanding += max(0, nbytes)
        return self.outstanding >= self.window_bytes

    def settle(self) -> None:
        self.outstanding = 0
        self.credit_syncs += 1

    def reset(self) -> None:
        """Connection dropped: outstanding bytes are moot (the client
        re-reconciles through its spill/replay machinery)."""
        self.outstanding = 0


#: Suggested ``idle_timeout`` for endpoints serving many short-lived or
#: replicated clients (a leaked/wedged client must not pin a worker thread
#: and socket forever).  Reaping is OFF by default: with fire-and-forget
#: submits, a reap racing the client's pre-send liveness peek can silently
#: discard an entry, so a standalone logger with sporadic traffic must not
#: opt into that window unknowingly.
DEFAULT_IDLE_TIMEOUT = 300.0


class LoggerRequest(WireMessage):
    """One framed request from a component to the log server."""

    op = uint64(1)
    component_id = string(2)
    key_bytes = bytes_(3)  # OP_REGISTER_KEY
    #: Field 4 carried the retired single-entry submit's record.  It is
    #: never reused: the decoder skips it.
    start = uint64(5)  # OP_FETCH: first record index
    count = uint64(6)  # OP_FETCH: max records to return
    entry_batch = repeated(bytes_(7))  # OP_SUBMIT_BATCH: N entries, 1 frame
    #: Field 8 carried the retired shard tag of topic sharding.  It is
    #: never reused: the decoder skips it, so a tagged frame is served as
    #: an untagged one.
    #: SUBMIT_BATCH: when set, the server answers with a
    #: :class:`LoggerResponse` whose ``entries`` is its post-ingest entry
    #: count -- the acknowledged submission mode (the wire default ``0``
    #: keeps classic frames fire-and-forget).
    sync = boolean(9)
    #: Client-stamped deadline budget in milliseconds for sync submits:
    #: if the server cannot start the expensive work within this budget
    #: of receiving the frame, it answers
    #: ``OP_DEADLINE_EXPIRED`` instead of doing work whose caller has
    #: already given up on it.  0 (the wire default) = no deadline.
    deadline_ms = uint64(10)
    #: OP_PROVE_INCLUSION: leaf index to prove.
    proof_index = uint64(11)
    #: OP_PROVE_INCLUSION: historical tree size to prove against;
    #: OP_PROVE_CONSISTENCY: the *new* (larger) size.  0 (the wire
    #: default) = the server's current size.
    proof_tree_size = uint64(12)
    #: OP_PROVE_CONSISTENCY: the *old* (smaller) size.
    proof_old_size = uint64(13)
    #: Correlation id: the client stamps every synchronous request with a
    #: unique non-zero id and the server echoes it verbatim on the
    #: response, so replies are matched out of a shared stream by id
    #: alone.  A frame without one is still answered (echoing 0); a
    #: client discards any reply carrying 0.
    corr_id = uint64(14)


class LoggerResponse(WireMessage):
    """Response to synchronous requests (every op but a fire-and-forget
    ``OP_SUBMIT_BATCH``)."""

    ok = boolean(1)
    error = string(2)
    entries = uint64(3)  # OP_HEALTH
    chain_head = bytes_(4)  # OP_HEALTH
    merkle_root = bytes_(5)  # OP_HEALTH
    total_bytes = uint64(6)  # OP_HEALTH
    records = repeated(bytes_(7))  # OP_FETCH
    key_ids = repeated(string(8))  # OP_KEYS (parallel with key_blobs)
    key_blobs = repeated(bytes_(9))  # OP_KEYS
    #: Field 10 carried the retired shard count of topic sharding.  It is
    #: never reused: the decoder skips it.
    #: OP_STATS: the server's flat counters as a JSON object (a schema
    #: field per counter would couple the wire format to every backend's
    #: counter set; stats are observability, not evidence).
    stats_json = string(11)
    #: Response verdict: 0 = plain ok/error, :data:`OP_DEADLINE_EXPIRED`
    #: = the request's deadline budget ran out server-side.  Old clients
    #: skip this field and treat it as an ordinary rejection.
    code = uint64(12)
    #: Fields 13 and 14 carried the retired BUSY verdict's queue depth and
    #: retry-after hint.  They are never reused: the decoder skips them
    #: when an old server still sends them.
    #: OP_STH: the encoded :class:`~repro.gossip.sth.SignedTreeHead`.
    sth_bytes = bytes_(15)
    #: OP_PROVE_*: proof path digests in verification order.
    proof_hashes = repeated(bytes_(16))
    #: OP_PROVE_INCLUSION: one byte per path digest, 1 = sibling is on
    #: the right (parallel with ``proof_hashes``; consistency proofs are
    #: direction-free and leave this empty).
    proof_flags = bytes_(17)
    #: OP_PROVE_INCLUSION: echo of the proven leaf index.
    proof_index = uint64(18)
    #: OP_PROVE_INCLUSION: tree size the proof targets;
    #: OP_PROVE_CONSISTENCY: the new size.
    proof_tree_size = uint64(19)
    #: OP_PROVE_CONSISTENCY: the old size.
    proof_old_size = uint64(20)
    #: Echo of the request's correlation id (0 when the request carried
    #: none).
    corr_id = uint64(21)


#: Pending-request backlog per connection at which the event loop stops
#: reading that socket (kernel backpressure on the peer) and the depth at
#: which it resumes.  Bounds server memory against a client that stuffs
#: frames faster than dispatch drains them.
_READ_PAUSE_DEPTH = 1024
_READ_RESUME_DEPTH = 256

#: Bytes one event-loop read takes off a socket.  A frame longer than
#: this cannot arrive in one read, so it is reassembled in a buffer of
#: its own (see :meth:`LogServerEndpoint._parse_frames`).
_READ_BYTES = 1 << 18

_PREAMBLE = struct.Struct("<I")


class _EventConn:
    """Event-loop state for one raw-socket connection.

    The loop thread owns the socket and the frame reassembly buffers:
    ``rbuf`` for whatever arrives, or ``frame`` (``filled`` bytes in so
    far) while one large frame body is read into a buffer of its exact
    size; dispatch workers own ``pending`` (under ``lock``) and append each
    response's preamble and encoded parts to ``out``, which only the loop
    thread writes to the socket.  ``running`` guarantees at most one
    dispatch worker drains this connection at a time -- per-connection
    FIFO execution is
    load-bearing (credit syncs and the count reconcile of acknowledged
    submits both assume this connection's frames are ingested in
    order)."""

    __slots__ = (
        "connection",
        "sock",
        "rbuf",
        "frame",
        "filled",
        "out",
        "lock",
        "pending",
        "running",
        "last_active",
        "closing",
        "read_paused",
        "writing",
    )

    def __init__(self, connection: Connection, sock: socket.socket):
        self.connection = connection
        self.sock = sock
        self.rbuf = bytearray()
        self.frame: Optional[bytearray] = None
        self.filled = 0
        self.out: Deque[Union[bytes, memoryview]] = deque()
        self.lock = threading.Lock()
        self.pending: Deque[Tuple[LoggerRequest, float]] = deque()
        self.running = False
        self.last_active = time.monotonic()
        self.closing = False
        self.read_paused = False
        self.writing = False


class LogServerEndpoint:
    """Serves a :class:`LogServer` over a transport listener.

    Socket-backed transports (TCP) are served by a single
    ``selectors`` event loop with non-blocking sockets: one thread
    multiplexes reads, frame reassembly, and per-connection write queues
    across every connection, so fan-in scales to thousands of clients
    without a thread per socket.  Request *execution* happens on a small
    dispatch pool -- serially per connection (the wire contract: one
    connection's frames are ingested in order) but concurrently across
    connections, so a slow durable ingest on one socket never stalls the
    loop.  Each frame's arrival is stamped when it is reassembled off the
    socket, and the client's ``deadline_ms`` is measured from that stamp
    -- queue wait behind other connections counts against the budget,
    exactly as §13's overload discipline requires.

    The event loop is the only serve path: a transport whose connections
    carry no socket (a test double, say) is not served, and each such
    connection is closed at accept.  The in-process transport's
    connections are loopback sockets, so it is served like TCP.
    """

    def __init__(
        self,
        server: LogServer,
        transport: Optional[Transport] = None,
        idle_timeout: Optional[float] = None,
        dispatch_workers: Optional[int] = None,
    ):
        self.server = server
        self._transport = transport or TcpTransport()
        self._listener = self._transport.listen()
        self._connections: List[Connection] = []
        self._lock = threading.Lock()
        self._idle_timeout = idle_timeout
        #: Submission frames received / rejected by the server (observability
        #: for chaos runs; rejection never propagates to the component).
        self.submissions = 0
        self.rejected = 0
        #: Connections closed by the idle reaper (observability).
        self.reaped = 0
        #: Sync requests refused with ``OP_DEADLINE_EXPIRED`` (observability).
        self.deadline_rejections = 0
        # -- event loop plumbing ------------------------------------------
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        # data=None marks the wakeup pipe in the event dispatch; without
        # this registration every dispatch-thread wakeup (queued response,
        # resumed read) would wait out a full select timeout.
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._new_states: Deque[_EventConn] = deque()
        self._dirty: List[_EventConn] = []
        self._dirty_lock = threading.Lock()
        self._states: Dict[int, _EventConn] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers
            or min(32, (os.cpu_count() or 2) + 4),
            thread_name_prefix="logserver-dispatch",
        )
        self._loop_thread = StoppableThread(
            "logserver-eventloop", target=self._loop_run
        )
        self._loop_thread.start()
        self._acceptor = StoppableThread("logserver-accept", target=self._accept_loop)
        self._acceptor.start()

    @property
    def address(self):
        """Address components pass to :class:`RemoteLogger`."""
        return self._listener.address

    @staticmethod
    def _raw_socket(connection: Connection) -> Optional[socket.socket]:
        """The connection's underlying socket, when it has one the event
        loop can own (TCP and in-process connections); ``None`` if the
        connection cannot be served."""
        sock = getattr(connection, "_sock", None)
        return sock if isinstance(sock, socket.socket) else None

    def _accept_loop(self) -> None:
        while not self._acceptor.stopped():
            connection = self._listener.accept(timeout=0.1)
            if connection is None:
                continue
            sock = self._raw_socket(connection)
            if sock is None:
                logger.warning(
                    "closing %s at accept: it has no socket to serve",
                    type(connection).__name__,
                )
                connection.close()
                continue
            with self._lock:
                self._connections.append(connection)
            sock.setblocking(False)
            state = _EventConn(connection, sock)
            with self._dirty_lock:
                self._new_states.append(state)
            self._wake()

    # -- event loop --------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # pipe already has a pending wakeup
        except OSError:
            pass  # loop shut down under us

    def _mark_dirty(self, state: _EventConn) -> None:
        """Dispatch-thread side: this state has queued output (or wants
        its read interest recomputed); the loop picks it up on wakeup."""
        with self._dirty_lock:
            self._dirty.append(state)
        self._wake()

    def _loop_run(self) -> None:
        selector = self._selector
        while not self._loop_thread.stopped():
            try:
                events = selector.select(timeout=0.1)
            except OSError:
                return  # selector closed under us during shutdown
            for key, mask in events:
                if key.data is None:
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:
                        return
                    continue
                state = key.data
                if mask & selectors.EVENT_WRITE:
                    self._loop_write(state)
                if mask & selectors.EVENT_READ and not state.closing:
                    self._loop_read(state)
            self._loop_admit_new()
            self._loop_flush_dirty()
            if self._idle_timeout is not None:
                self._loop_reap_idle()

    def _loop_admit_new(self) -> None:
        while True:
            with self._dirty_lock:
                if not self._new_states:
                    return
                state = self._new_states.popleft()
            try:
                self._selector.register(
                    state.sock, selectors.EVENT_READ, state
                )
            except (KeyError, ValueError, OSError):
                self._drop_connection(state.connection)
                continue
            self._states[id(state)] = state

    def _loop_flush_dirty(self) -> None:
        with self._dirty_lock:
            dirty, self._dirty = self._dirty, []
        for state in dirty:
            if not state.closing:
                self._loop_write(state)

    def _loop_reap_idle(self) -> None:
        now = time.monotonic()
        for state in list(self._states.values()):
            if now - state.last_active <= self._idle_timeout:
                continue
            with state.lock:
                busy = state.running or bool(state.pending) or bool(state.out)
            if busy:
                continue
            # Reap the connection: a wedged or leaked client must not pin
            # a socket forever.  A live component reconnects transparently
            # on its next submit.
            with self._lock:
                self.reaped += 1
            self._loop_close(state)

    def _interest(self, state: _EventConn) -> int:
        events = 0
        if not state.read_paused:
            events |= selectors.EVENT_READ
        if state.out:
            events |= selectors.EVENT_WRITE
        return events

    def _update_interest(self, state: _EventConn) -> None:
        """Recompute and apply the selector interest set for ``state``.
        An empty set (reads paused, nothing to write) unregisters the
        socket -- selectors cannot express "no events" -- and a later
        dirty-mark re-registers it."""
        if state.closing:
            return
        events = self._interest(state)
        try:
            if events:
                try:
                    self._selector.modify(state.sock, events, state)
                except KeyError:
                    self._selector.register(state.sock, events, state)
            else:
                try:
                    self._selector.unregister(state.sock)
                except KeyError:
                    pass
        except (ValueError, OSError):
            self._loop_close(state)

    def _loop_read(self, state: _EventConn) -> None:
        try:
            if state.frame is None:
                data = state.sock.recv(_READ_BYTES)
                received = len(data)
            else:
                data = None
                received = state.sock.recv_into(
                    memoryview(state.frame)[state.filled :]
                )
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._loop_close(state)
            return
        if not received:
            self._loop_close(state)
            return
        state.last_active = time.monotonic()
        if data is None:
            state.filled += received
        else:
            state.rbuf += data
        self._parse_frames(state)

    def _parse_frames(self, state: _EventConn) -> None:
        """Decode and queue every complete frame received so far.

        A frame that cannot arrive in one read moves, once a quarter of
        it is in, into a buffer of its exact size that the following
        reads fill in place; it is decoded through a ``memoryview``, so
        its records are copied once, by :meth:`_dispatch`.  Waiting for a
        quarter bounds what a bare preamble can make the loop reserve.
        """
        arrival = time.monotonic()
        frames: List[Union[bytes, memoryview]] = []
        if state.frame is not None:
            if state.filled < len(state.frame):
                return
            frames.append(memoryview(state.frame))
            state.frame = None
        rbuf = state.rbuf
        violation = False
        while len(rbuf) >= framing.PREAMBLE_SIZE:
            (length,) = _PREAMBLE.unpack_from(rbuf)
            if length > framing.MAX_FRAME_SIZE:
                violation = True
                break
            end = framing.PREAMBLE_SIZE + length
            if len(rbuf) >= end:
                with memoryview(rbuf) as view:
                    frames.append(bytes(view[framing.PREAMBLE_SIZE : end]))
                del rbuf[:end]
                continue
            arrived = len(rbuf) - framing.PREAMBLE_SIZE
            if length > _READ_BYTES and 4 * arrived >= length:
                state.frame = bytearray(length)
                state.frame[:arrived] = memoryview(rbuf)[framing.PREAMBLE_SIZE :]
                state.filled = arrived
                state.rbuf = bytearray()
            break
        spawn = False
        for frame in frames:
            try:
                request = LoggerRequest.decode(frame)
            except Exception:
                continue  # a malformed frame must not kill the server
            with state.lock:
                state.pending.append((request, arrival))
                if not state.running:
                    state.running = True
                    spawn = True
                if (
                    len(state.pending) >= _READ_PAUSE_DEPTH
                    and not state.read_paused
                ):
                    state.read_paused = True
        # keep no view of a large frame's buffer: the requests hold it
        # until dispatch has copied their records out
        frames = frame = None
        if spawn:
            self._executor.submit(self._drain_pending, state)
        if violation:
            # the frames before it are accepted work, queued above
            self._loop_close(state)
        elif state.read_paused or state.out:
            self._update_interest(state)

    def _loop_write(self, state: _EventConn) -> None:
        with state.lock:
            if state.read_paused and len(state.pending) <= _READ_RESUME_DEPTH:
                state.read_paused = False
        out = state.out
        try:
            while out:
                with state.lock:
                    buffers = list(islice(out, framing._IOV_MAX))
                try:
                    sent = state.sock.sendmsg(buffers)
                except (BlockingIOError, InterruptedError):
                    break
                # Only this thread removes from ``out`` (dispatch workers
                # append at the tail), so its head is what was just sent.
                with state.lock:
                    while out and sent >= len(out[0]):
                        sent -= len(out.popleft())
                    if sent:
                        out[0] = memoryview(out[0])[sent:]
                        break
        except OSError:
            self._loop_close(state)
            return
        self._update_interest(state)

    def _loop_close(self, state: _EventConn) -> None:
        with state.lock:
            state.closing = True
            # pending is NOT cleared: frames already reassembled off the
            # socket are accepted work, and a client disconnect racing
            # dispatch must not silently drop fire-and-forget evidence.
            # Queued responses are undeliverable, so they go.
            state.out.clear()
        try:
            self._selector.unregister(state.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._states.pop(id(state), None)
        self._drop_connection(state.connection)

    def _drop_connection(self, connection: Connection) -> None:
        connection.close()
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def _drain_pending(self, state: _EventConn) -> None:
        """Dispatch worker: execute this connection's queued requests in
        arrival order, one worker per connection at a time."""
        while True:
            with state.lock:
                if not state.pending:
                    state.running = False
                    return
                request, arrival = state.pending.popleft()
                resume = (
                    state.read_paused
                    and len(state.pending) <= _READ_RESUME_DEPTH
                    and not state.closing
                )
            if resume:
                # Backlog drained below the resume mark: ask the loop to
                # recompute read interest (it owns the selector).
                self._mark_dirty(state)
            try:
                response = self._dispatch(request, arrival)
            except Exception:  # pragma: no cover - dispatch never raises
                logger.exception("dispatch failed")
                response = None
            if response is None:
                continue
            # the parts go out as they are: a fetched record is not copied
            parts = response.encode_parts()
            size = sum(map(len, parts))
            if size > framing.MAX_FRAME_SIZE:
                continue  # oversized response: drop, keep serving
            with state.lock:
                if state.closing:
                    continue  # undeliverable, but keep draining pending
                state.out.append(_PREAMBLE.pack(size))
                state.out.extend(parts)
            self._mark_dirty(state)

    # -- dispatch -----------------------------------------------------------

    def _dispatch(
        self, request: LoggerRequest, arrival: float
    ) -> Optional[LoggerResponse]:
        """Execute one request; returns the response to send, or ``None``
        for fire-and-forget submits.  Every response echoes the request's
        correlation id."""
        if request.op == OP_SUBMIT_BATCH:
            batch = [bytes(record) for record in request.entry_batch]
            # the records may be views of the frame's receive buffer: now
            # that they are copied, the buffer goes before the ingest
            request.entry_batch = []
            with self._lock:
                self.submissions += len(batch)
            if not request.sync:
                self._ingest_batch(batch)
                return None
            response = self._ingest_sync(batch, int(request.deadline_ms), arrival)
        elif request.op in (OP_STH, OP_PROVE_INCLUSION, OP_PROVE_CONSISTENCY):
            response = self._answer_proof(request, arrival=arrival)
        else:
            response = self._answer(request)
        response.corr_id = request.corr_id
        return response

    def _ingest_batch(self, batch: List[bytes]) -> None:
        """Fire-and-forget group commit: a refusal is counted, never
        answered.

        The server's batch ingest is all-or-nothing, so when it refuses a
        batch (an undecodable entry) the records are re-submitted one at a
        time -- only the poison entry is rejected, its batchmates are
        ingested exactly once.
        """
        try:
            self.server.submit_batch(batch)
            return
        except LoggingError:
            if len(batch) == 1:
                with self._lock:
                    self.rejected += 1
                return
        for record in batch:
            try:
                self.server.submit_batch([record])
            except LoggingError:
                with self._lock:
                    self.rejected += 1

    def _deadline_verdict(
        self, deadline_ms: int, arrival: Optional[float], work: str
    ) -> Optional[LoggerResponse]:
        """The ``OP_DEADLINE_EXPIRED`` refusal when the client-stamped
        budget ran out while the frame waited (``None`` = go ahead)."""
        if not deadline_ms or arrival is None:
            return None
        elapsed_ms = (time.monotonic() - arrival) * 1000.0
        if elapsed_ms <= deadline_ms:
            return None
        with self._lock:
            self.deadline_rejections += 1
        return LoggerResponse(
            ok=False,
            error=(
                f"deadline of {deadline_ms} ms expired "
                f"({elapsed_ms:.0f} ms elapsed) before {work}"
            ),
            code=OP_DEADLINE_EXPIRED,
        )

    def _ingest_sync(
        self, batch: List[bytes], deadline_ms: int, arrival: float
    ) -> LoggerResponse:
        """Acknowledged ingest: all-or-nothing, with the post-ingest entry
        count in the response.

        Unlike the fire-and-forget path there is no per-entry poison
        fallback -- the caller holds the batch and learns exactly what
        happened, so a refusal is *reported* (``ok=False`` plus the
        server's unchanged count) instead of being partially absorbed.
        The count is what lets a caller reconcile after a lost reply:
        the server ingests this connection's frames in order, so
        ``entries`` tells the caller precisely which prefix of its
        submissions has been accepted (and, with a durable store, made
        crash-durable) so far.

        With ``deadline_ms`` stamped by the client, a budget that expired
        while the frame waited answers ``OP_DEADLINE_EXPIRED`` instead of
        doing work the caller has already abandoned; the entry is NOT
        ingested, and the count in that response is still exact.
        """
        expired = self._deadline_verdict(deadline_ms, arrival, "ingest")
        if expired is not None:
            expired.entries = len(self.server)
            return expired
        try:
            self.server.submit_batch(batch)
        except Exception as exc:
            # Includes store failures: the server's batch ingest rolled
            # back, so the count we report is still exact.
            with self._lock:
                self.rejected += len(batch)
            return LoggerResponse(
                ok=False, error=str(exc), entries=len(self.server)
            )
        return LoggerResponse(ok=True, entries=len(self.server))

    def _answer(self, request: LoggerRequest) -> LoggerResponse:
        """Build the response for a synchronous non-ingest request."""
        try:
            if request.op == OP_REGISTER_KEY:
                self.server.register_key(
                    request.component_id, bytes(request.key_bytes)
                )
                return LoggerResponse(ok=True)
            if request.op == OP_HEALTH:
                commitment = self.server.commitment()
                return LoggerResponse(
                    ok=True,
                    entries=commitment.entries,
                    chain_head=commitment.chain_head,
                    merkle_root=commitment.merkle_root,
                    total_bytes=commitment.total_bytes,
                )
            if request.op == OP_FETCH:
                # At most BATCH_FRAME_BYTES (but at least one record): a
                # fetch of image-sized records must fit a frame; clients
                # loop on short batches.
                count = min(request.count or FETCH_BATCH_LIMIT, FETCH_BATCH_LIMIT)
                records = self.server.raw_records(
                    request.start, count, max_bytes=BATCH_FRAME_BYTES
                )
                return LoggerResponse(ok=True, records=list(records))
            if request.op == OP_KEYS:
                keys = self.server.keys_snapshot()
                ids = sorted(keys)
                return LoggerResponse(
                    ok=True, key_ids=ids, key_blobs=[keys[i] for i in ids]
                )
            if request.op == OP_CHECKPOINT:
                # Force a durable checkpoint now (no-op for in-memory
                # stores).
                self.server.checkpoint()
                return LoggerResponse(ok=True)
            if request.op == OP_STATS:
                data: Dict[str, int] = {
                    "entries": len(self.server),
                    "total_bytes": int(self.server.total_bytes),
                    "rejected_submissions": int(
                        getattr(self.server, "rejected_submissions", 0)
                    ),
                }
                stats = getattr(self.server, "stats", None)
                if callable(stats):
                    data.update(stats())
                data["deadline_rejections"] = self.deadline_rejections
                return LoggerResponse(
                    ok=True,
                    entries=len(self.server),
                    stats_json=json.dumps(data, sort_keys=True),
                )
            return LoggerResponse(ok=False, error=f"unknown op {request.op}")
        except Exception as exc:
            return LoggerResponse(ok=False, error=str(exc))

    # -- proof plane (signed tree heads + Merkle proofs) -------------------

    def _answer_proof(
        self, request: LoggerRequest, arrival: Optional[float] = None
    ) -> LoggerResponse:
        """Serve a proof-plane op: the client-stamped deadline first
        (``OP_DEADLINE_EXPIRED``), then the actual work."""
        expired = self._deadline_verdict(
            int(request.deadline_ms), arrival, "proving"
        )
        if expired is not None:
            return expired
        try:
            if request.op == OP_STH:
                sth = self.server.signed_tree_head()
                return LoggerResponse(
                    ok=True, entries=sth.entries, sth_bytes=sth.to_bytes()
                )
            if request.op == OP_PROVE_INCLUSION:
                # wire size 0 = the current tree
                proof = self.server.prove_inclusion(
                    int(request.proof_index), int(request.proof_tree_size) or None
                )
                return LoggerResponse(
                    ok=True,
                    proof_hashes=[digest for digest, _ in proof.path],
                    proof_flags=bytes(
                        1 if is_right else 0 for _, is_right in proof.path
                    ),
                    proof_index=proof.leaf_index,
                    proof_tree_size=proof.tree_size,
                )
            proof = self.server.prove_consistency(
                int(request.proof_old_size), int(request.proof_tree_size) or None
            )
            return LoggerResponse(
                ok=True,
                proof_hashes=list(proof.path),
                proof_old_size=proof.old_size,
                proof_tree_size=proof.new_size,
            )
        except ProofError as exc:
            # The request was malformed (range), not the server broken:
            # answer with a typed verdict the client maps back to
            # ProofError -- a clean refusal, never a server traceback.
            return LoggerResponse(ok=False, error=str(exc), code=OP_PROOF_RANGE)
        except Exception as exc:
            return LoggerResponse(ok=False, error=str(exc))

    def close(self) -> None:
        self._acceptor.stop(join=False)
        self._listener.close()
        self._acceptor.stop()
        self._loop_thread.stop(join=False)
        self._wake()
        self._loop_thread.stop()
        for state in list(self._states.values()):
            with state.lock:
                state.closing = True
                state.pending.clear()
                state.out.clear()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        # Dispatch work is local server work; it finishes promptly once
        # every connection is marked closing.
        self._executor.shutdown(wait=True)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass


class _RpcWaiter:
    """One in-flight synchronous RPC's completion slot."""

    __slots__ = ("event", "response", "failure", "done", "corr")

    def __init__(self, corr: int):
        self.event = threading.Event()
        self.response: Optional[LoggerResponse] = None
        self.failure: Optional[str] = None
        self.done = False
        self.corr = corr


class _Channel:
    """Per-connection RPC pipelining state.

    ``pending`` maps correlation id -> waiter, in insertion (= wire)
    order.  Replies are matched by id alone: one whose id has no waiter
    -- the late reply to a timed-out RPC, or a reply carrying 0 -- is
    discarded and the connection survives.
    """

    __slots__ = (
        "connection",
        "lock",
        "reader_lock",
        "pending",
        "next_corr",
        "dead",
        "reader_started",
    )

    def __init__(self, connection: Connection):
        self.connection = connection
        self.lock = threading.Lock()
        #: Held by whichever thread is currently reading frames.  With a
        #: single RPC in flight the caller itself is that reader (no
        #: thread is spawned for the common sequential client); once the
        #: channel actually pipelines, a dedicated reader owns this lock
        #: (see ``reader_started``).
        self.reader_lock = threading.Lock()
        self.pending: Dict[int, _RpcWaiter] = {}
        self.next_corr = 1
        self.dead = False
        #: Whether the dedicated reader thread has been spawned.  Started
        #: lazily the first time two RPCs overlap: handing reader duty
        #: from waiter to waiter costs a thread wakeup per reply, which
        #: under real pipelining load dominates the round trip.
        self.reader_started = False


class RemoteLogger:
    """Component-side stub: ``register_key`` + ``submit_batch`` over a
    socket.

    Drop-in for the ``log_server`` argument of
    :class:`~repro.core.adlp_protocol.AdlpProtocol` (and its
    ``submit_batch`` for :class:`~repro.core.naive_protocol.NaiveProtocol`).

    ``submit_batch`` never blocks on the server.  If the connection dies,
    entries are *spilled* into a bounded in-memory queue and re-sent
    (oldest first) once the connection recovers.  When the queue
    overflows, the oldest entries overflow to a
    :class:`~repro.storage.spillfile.DiskSpillFile` (if ``spill_path`` was
    given) instead of being discarded -- a long outage then costs disk
    space, not evidence; an entry is only counted in :attr:`dropped` when
    there is no disk spill (or writing it fails).
    Reconnection attempts back off exponentially with *full jitter*
    (``uniform(0, backoff)``) so a fleet of clients that all watched the
    same server restart does not rejoin in lockstep.  The node keeps
    running throughout (the paper's no-single-point-of-failure property).

    ``window_bytes`` (off by default) bounds the fire-and-forget bytes
    this stub may have outstanding: once that many are sent but not yet
    confirmed, the next submit first makes a *credit sync*, an empty
    synchronous batch round trip.  The endpoint ingests one connection's
    frames in order, so the sync's reply proves the server drained every
    earlier frame and the window settles.  A flooding node therefore
    cannot queue more than about ``window_bytes`` in front of the server,
    so the server's backlog and memory stay bounded.
    """

    #: Always 0: the server no longer refuses work with a BUSY verdict, so
    #: nothing is ever shed.  Kept only because the spine's
    #: ``Spine.counters`` (benchmarks/spine/workloads.py:185-186) still
    #: reads both.
    busy_responses = 0
    shed_entries = 0

    def __init__(
        self,
        address,
        transport: Optional[Transport] = None,
        spill_capacity: int = 1024,
        reconnect_backoff: float = 0.05,
        max_reconnect_backoff: float = 2.0,
        spill_path: Optional[str] = None,
        submit_batch_max: int = 64,
        window_bytes: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if submit_batch_max < 1:
            raise ValueError("submit_batch_max must be at least 1")
        self._transport = transport or TcpTransport()
        self._submit_batch_max = submit_batch_max
        self._address = address
        self._connection: Optional[Connection] = None
        self._lock = threading.Lock()
        #: Pipelining state for the current connection: every synchronous
        #: request carries a correlation id, so any number of RPCs may be
        #: in flight at once and their responses are matched out of the
        #: shared stream (no lock serializes exchanges anymore).
        self._channel: Optional[_Channel] = None
        self._closed = False
        self._spill: Deque[bytes] = deque()
        self._spill_capacity = spill_capacity
        self._disk: Optional[DiskSpillFile] = (
            DiskSpillFile(spill_path) if spill_path else None
        )
        self._initial_backoff = reconnect_backoff
        self._max_backoff = max_reconnect_backoff
        self._backoff = reconnect_backoff
        self._next_attempt = 0.0
        self._overflow_warned = False
        #: Entries permanently lost to spill-queue overflow, or too large
        #: for any frame.
        self.dropped = 0
        #: Entries that overflowed the memory queue onto disk.
        self.spilled_to_disk = 0
        #: Spilled entries successfully re-sent after a reconnect.
        self.retries = 0
        #: Jitter source (seedable so chaos tests are reproducible).
        self._rng = rng or random.Random()
        self._credit: Optional[CreditWindow] = (
            CreditWindow(window_bytes) if window_bytes is not None else None
        )
        #: Responses whose RPC had already timed out (or arrived with no
        #: matching waiter): discarded by correlation id instead of
        #: poisoning the next exchange or killing the connection.
        self.late_replies_discarded = 0
        #: Fire-and-forget records re-spilled because the peer turned out
        #: to be closed right after the send (the reap-vs-send race);
        #: at-least-once, so these can surface as auditable duplicates.
        self.peer_close_respills = 0
        #: Client-side STH verification (opt-in via
        #: :meth:`enable_sth_verification`): the logger's public key plus
        #: a verified-head cache with append-only consistency checking.
        self._sth_monitor: Optional[TreeHeadMonitor] = None

    @property
    def address(self):
        """The server address this stub currently targets."""
        return self._address

    @property
    def connected(self) -> bool:
        """Whether a live connection to the server exists right now."""
        with self._lock:
            return self._connection is not None and not self._connection.closed

    @property
    def spilled(self) -> int:
        """Entries currently parked in the spill queue (memory + disk)."""
        with self._lock:
            pending = len(self._spill)
            if self._disk is not None:
                pending += len(self._disk)
            return pending

    def stats(self) -> Dict[str, int]:
        """Loss/overflow counters, for merging into protocol ``stats()``
        (plus the credit window's gauge when one is configured)."""
        with self._lock:
            data = {
                "dropped": self.dropped,
                "spilled": len(self._spill)
                + (len(self._disk) if self._disk is not None else 0),
                "spilled_to_disk": self.spilled_to_disk,
                "spill_retries": self.retries,
                "late_replies_discarded": self.late_replies_discarded,
                "peer_close_respills": self.peer_close_respills,
            }
        if self._credit is not None:
            data["outstanding_bytes"] = self._credit.outstanding
            data["credit_syncs"] = self._credit.credit_syncs
        return data

    def _connect(self) -> Optional[Connection]:
        stale: Optional[_Channel] = None
        with self._lock:
            if self._closed:
                return None
            connection = self._connection
            if connection is not None:
                if not connection.closed and not connection.peer_closed():
                    # A peer-closed socket (e.g. the endpoint's idle
                    # reaper) would accept one fire-and-forget send and
                    # discard it; peek for EOF before trusting the cached
                    # connection.
                    return connection
                stale = self._channel
                self._connection = None
                self._channel = None
                connection.close()
            try_connect = time.monotonic() >= self._next_attempt
        if stale is not None:
            self._fail_waiters(stale, "log server connection lost")
        if not try_connect:
            return None  # backing off; do not hammer a dead server
        # The blocking connect happens OUTSIDE self._lock (bounded by the
        # transport's connect timeout): a stalled connect -- a full accept
        # backlog, a blackholed host -- must not freeze stats()/close()
        # and the spill bookkeeping on every other thread.
        try:
            fresh = self._transport.connect(self._address)
        except TransportError:
            with self._lock:
                # Full jitter (uniform(0, backoff)) decorrelates a fleet
                # of clients that all watched the same server die; the
                # *cap* still doubles per consecutive failure, so the
                # expected retry rate halves just like plain exponential.
                self._next_attempt = time.monotonic() + full_jitter(
                    self._backoff, self._rng
                )
                self._backoff = min(self._backoff * 2, self._max_backoff)
            return None
        with self._lock:
            if self._closed:
                loser = fresh
                fresh = None
            elif (
                self._connection is not None
                and not self._connection.closed
            ):
                # Another thread won the connect race; use its connection.
                loser = fresh
                fresh = self._connection
            else:
                self._connection = fresh
                self._channel = _Channel(fresh)
                self._backoff = self._initial_backoff
                loser = None
        if loser is not None:
            loser.close()
        return fresh

    def _fail_waiters(self, channel: _Channel, message: str) -> None:
        """Fail every in-flight RPC parked on ``channel``."""
        with channel.lock:
            if channel.dead:
                return
            channel.dead = True
            waiters = list(channel.pending.values())
            channel.pending.clear()
        for waiter in waiters:
            waiter.failure = message
            waiter.done = True
            waiter.event.set()

    def _fail_channel(self, channel: _Channel, message: str) -> None:
        """Retire a connection and fail its in-flight RPCs."""
        with self._lock:
            if self._channel is channel:
                self._channel = None
                self._connection = None
        channel.connection.close()
        self._fail_waiters(channel, message)

    def _drop_cached_connection(self, connection: Connection) -> None:
        """Forget ``connection`` (closing it) and fail its channel."""
        with self._lock:
            stale = self._channel if self._connection is connection else None
            if self._connection is connection:
                self._connection = None
                self._channel = None
        connection.close()
        if stale is not None:
            self._fail_waiters(stale, "log server connection lost")

    def _rpc_send(self, request: LoggerRequest) -> Tuple[_Channel, _RpcWaiter]:
        """Stamp ``request`` with a fresh correlation id and put it on the
        wire; returns the channel and the waiter to collect the reply on.
        The send happens under the channel lock so ``pending`` is in wire
        order (:meth:`_nudge_reader` wakes its oldest waiter)."""
        connection = self._connect()
        if connection is None:
            raise RemoteUnavailable(
                f"log server unreachable at {self._address!r}"
            )
        with self._lock:
            channel = self._channel
        if channel is None or channel.connection is not connection:
            raise RemoteUnavailable(
                f"log server unreachable at {self._address!r}"
            )
        failure: Optional[Exception] = None
        spawn_reader = False
        with channel.lock:
            if channel.dead:
                raise RemoteUnavailable("log server connection lost")
            corr = channel.next_corr
            channel.next_corr += 1
            request.corr_id = corr
            waiter = _RpcWaiter(corr)
            channel.pending[corr] = waiter
            try:
                connection.send_frame(request.encode_parts())
            except ConnectionClosed as exc:
                channel.pending.pop(corr, None)
                failure = exc
            except TransportError:
                channel.pending.pop(corr, None)  # refused unsent
                raise
            else:
                if len(channel.pending) > 1 and not channel.reader_started:
                    channel.reader_started = True
                    spawn_reader = True
        if spawn_reader:
            threading.Thread(
                target=self._reader_loop,
                args=(channel,),
                name="remotelogger-reader",
                daemon=True,
            ).start()
        if failure is not None:
            self._fail_channel(
                channel, f"log server connection lost: {failure}"
            )
            raise RemoteUnavailable(
                f"log server connection lost: {failure}"
            ) from failure
        return channel, waiter

    def _rpc_wait(
        self, channel: _Channel, waiter: _RpcWaiter, timeout: float
    ) -> LoggerResponse:
        """Collect one RPC's reply.  Waiting threads take turns as the
        *leader* that reads the shared stream (no dedicated reader thread
        exists to die or leak); everyone else parks on their waiter."""
        deadline = time.monotonic() + timeout
        while not waiter.done:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if channel.reader_lock.acquire(blocking=False):
                try:
                    if not waiter.done:
                        self._pump(channel, min(remaining, 0.1))
                finally:
                    channel.reader_lock.release()
            else:
                waiter.event.wait(min(remaining, 0.05))
                if not waiter.done:
                    # Spurious or leadership-nudge wakeup: rearm so the
                    # next park actually sleeps.
                    waiter.event.clear()
        if waiter.done:
            self._nudge_reader(channel)
            if waiter.failure is not None:
                raise RemoteUnavailable(waiter.failure)
            return waiter.response
        return self._abandon(channel, waiter)

    def _nudge_reader(self, channel: _Channel) -> None:
        """Wake the oldest parked waiter so it can take over as the
        stream's reader.  Without this, a departing leader leaves the
        followers parked in their poll interval with nobody reading --
        a latency cliff on every leadership change."""
        with channel.lock:
            waiter = next(iter(channel.pending.values()), None)
        if waiter is not None:
            waiter.event.set()

    def _reader_loop(self, channel: _Channel) -> None:
        """Dedicated reader for a channel that actually pipelines.

        Waiter-to-waiter reader handoff costs a thread wakeup per reply,
        which dominates the round trip once several RPCs are in flight;
        this thread owns ``reader_lock`` for the rest of the channel's
        life and pumps replies continuously (discarding late ones by id).
        It exits when the channel dies or the stub closes -- in-flight
        waiters are failed by :meth:`_fail_waiters` on either path."""
        while not channel.dead and not self._closed:
            if not channel.reader_lock.acquire(timeout=0.1):
                continue  # a waiter-leader is mid-pump; take over next
            try:
                if channel.dead:
                    return
                self._pump(channel, 0.1)
            finally:
                channel.reader_lock.release()

    def _abandon(
        self, channel: _Channel, waiter: _RpcWaiter
    ) -> LoggerResponse:
        """Give up on one timed-out RPC.  Its late reply is discarded by
        id when it arrives; the connection and its other in-flight RPCs
        survive."""
        with channel.lock:
            channel.pending.pop(waiter.corr, None)
        if waiter.done:  # the reply raced our abandonment: use it
            if waiter.failure is not None:
                raise RemoteUnavailable(waiter.failure)
            return waiter.response
        self._nudge_reader(channel)
        raise RemoteUnavailable("log server did not answer in time")

    def _pump(self, channel: _Channel, timeout: float) -> None:
        """Leader side of the shared reader: receive one frame and route
        it to its waiter by correlation id."""
        try:
            frame = channel.connection.recv_frame(timeout=timeout)
        except ConnectionClosed as exc:
            self._fail_channel(channel, f"log server connection lost: {exc}")
            return
        if frame is None:
            return
        try:
            response = LoggerResponse.decode(frame)
        except Exception:
            return  # a malformed response is dropped, never matched
        with channel.lock:
            # Ids start at 1, so a reply carrying 0 never has a waiter.
            waiter = channel.pending.pop(int(response.corr_id), None)
            if waiter is None:
                # A reply whose RPC already timed out, or one with no id:
                # discarded, and the connection stays up.
                self.late_replies_discarded += 1
                return
        waiter.response = response
        waiter.done = True
        waiter.event.set()

    def _rpc(self, request: LoggerRequest, timeout: float) -> LoggerResponse:
        """One synchronous request/response exchange; raises
        :class:`RemoteUnavailable` (a :class:`LoggingError`) on any
        connection or timeout trouble.  Any number of these may be in
        flight concurrently on the shared connection."""
        channel, waiter = self._rpc_send(request)
        return self._rpc_wait(channel, waiter, timeout)

    def register_key(self, component_id: str, key: Union[PublicKey, bytes]) -> None:
        """Synchronously register; raises if the server is unreachable or
        rejects the key (startup must not proceed unkeyed)."""
        if isinstance(key, PublicKey):
            key = key.to_bytes()
        response = self._rpc(
            LoggerRequest(op=OP_REGISTER_KEY, component_id=component_id, key_bytes=key),
            timeout=5.0,
        )
        if not response.ok:
            raise LoggingError(f"key registration rejected: {response.error}")

    def health(self, timeout: float = 5.0) -> LogCommitment:
        """Probe the server's commitment (entry count, chain head, Merkle
        root).  Raises :class:`LoggingError` when the server is down --
        the signal a replicated deployment's circuit breaker feeds on."""
        response = self._rpc(LoggerRequest(op=OP_HEALTH), timeout=timeout)
        if not response.ok:
            raise LoggingError(f"health probe rejected: {response.error}")
        return LogCommitment(
            entries=int(response.entries),
            chain_head=bytes(response.chain_head),
            merkle_root=bytes(response.merkle_root),
            total_bytes=int(response.total_bytes),
        )

    def fetch_records(
        self, start: int, count: int, timeout: float = 10.0
    ) -> List[bytes]:
        """Fetch up to ``count`` raw records starting at index ``start``
        (the donor side of anti-entropy catch-up)."""
        response = self._rpc(
            LoggerRequest(op=OP_FETCH, start=start, count=count), timeout=timeout
        )
        if not response.ok:
            raise LoggingError(f"record fetch rejected: {response.error}")
        return [bytes(record) for record in response.records]

    def fetch_keys(self, timeout: float = 5.0) -> Dict[str, bytes]:
        """Fetch the server's key registry (``component_id -> key bytes``)."""
        response = self._rpc(LoggerRequest(op=OP_KEYS), timeout=timeout)
        if not response.ok:
            raise LoggingError(f"key fetch rejected: {response.error}")
        return {
            component_id: bytes(blob)
            for component_id, blob in zip(response.key_ids, response.key_blobs)
        }

    # -- proof plane (signed tree heads + Merkle proofs) -------------------

    def _proof_rpc(self, request: LoggerRequest, timeout: float) -> LoggerResponse:
        request.deadline_ms = max(1, int(timeout * 1000))
        response = self._rpc(request, timeout=timeout)
        if not response.ok:
            if int(response.code) == OP_PROOF_RANGE:
                raise ProofError(str(response.error) or "proof request refused")
            _raise_for_verdict(response)
            raise LoggingError(f"proof request rejected: {response.error}")
        return response

    def fetch_sth(self, timeout: float = 5.0) -> SignedTreeHead:
        """Fetch the server's signed tree head (unverified -- pair with
        :meth:`enable_sth_verification` / :meth:`verified_sth` to check
        it)."""
        response = self._proof_rpc(LoggerRequest(op=OP_STH), timeout)
        return SignedTreeHead.from_bytes(bytes(response.sth_bytes))

    def prove_inclusion(
        self,
        index: int,
        tree_size: Optional[int] = None,
        timeout: float = 5.0,
    ) -> MerkleProof:
        """Fetch an inclusion proof for the entry at ``index``, against the
        current tree or (``tree_size``) the tree a given STH committed to.
        Raises :class:`~repro.errors.ProofError` on out-of-range input --
        including locally for negatives, which the wire cannot carry -- and
        :class:`~repro.errors.LoggingError` when the reply is for another
        index or size than the one asked for."""
        if index < 0 or (tree_size is not None and tree_size < 0):
            raise ProofError(
                f"proof request out of range: index {index}, "
                f"tree size {tree_size}"
            )
        response = self._proof_rpc(
            LoggerRequest(
                op=OP_PROVE_INCLUSION,
                proof_index=index,
                proof_tree_size=tree_size or 0,
            ),
            timeout,
        )
        hashes = [bytes(digest) for digest in response.proof_hashes]
        flags = bytes(response.proof_flags)
        if len(hashes) != len(flags):
            raise LoggingError(
                "malformed inclusion proof: digest/direction length mismatch"
            )
        proved_index = int(response.proof_index)
        proved_size = int(response.proof_tree_size)
        if proved_index != index or (tree_size and proved_size != tree_size):
            raise LoggingError(
                f"asked for an inclusion proof of leaf {index} at size "
                f"{tree_size}, got one for leaf {proved_index} at size "
                f"{proved_size}"
            )
        return MerkleProof(
            leaf_index=proved_index,
            tree_size=proved_size,
            path=tuple(
                (digest, bool(flag)) for digest, flag in zip(hashes, flags)
            ),
        )

    def prove_consistency(
        self,
        old_size: int,
        new_size: Optional[int] = None,
        timeout: float = 5.0,
    ) -> MerkleConsistencyProof:
        """Fetch an RFC 6962 consistency proof between two sizes of the
        server's log (``new_size`` defaults to the current size)."""
        if old_size < 0 or (new_size is not None and new_size < 0):
            raise ProofError(
                f"proof request out of range: old size {old_size}, "
                f"new size {new_size}"
            )
        response = self._proof_rpc(
            LoggerRequest(
                op=OP_PROVE_CONSISTENCY,
                proof_old_size=old_size,
                proof_tree_size=new_size or 0,
            ),
            timeout,
        )
        proved_old = int(response.proof_old_size)
        proved_new = int(response.proof_tree_size)
        if proved_old != old_size or (new_size and proved_new != new_size):
            raise LoggingError(
                f"asked for a consistency proof {old_size} -> {new_size}, "
                f"got one for {proved_old} -> {proved_new}"
            )
        return MerkleConsistencyProof(
            old_size=proved_old,
            new_size=proved_new,
            path=tuple(bytes(digest) for digest in response.proof_hashes),
        )

    def enable_sth_verification(self, public_key: PublicKey) -> TreeHeadMonitor:
        """Arm client-side verification: ``public_key`` is the logger
        identity's key (the trust anchor); every head fetched through
        :meth:`verified_sth` is then signature-checked and consistency-
        checked against the previously verified head before being cached.
        Returns the monitor (its ``evidence()`` holds any convictions)."""
        monitor = TreeHeadMonitor(public_key)
        self._sth_monitor = monitor
        return monitor

    @property
    def sth_monitor(self) -> Optional[TreeHeadMonitor]:
        return self._sth_monitor

    def verified_sth(self, timeout: float = 5.0) -> SignedTreeHead:
        """Fetch the latest STH and verify it: signature against the
        configured logger key, append-only growth from the cached verified
        head via a consistency-proof challenge to the server.  Raises
        :class:`~repro.errors.LogIntegrityError` on any failure (the
        monitor then holds the equivocation evidence, if one was built)."""
        monitor = self._sth_monitor
        if monitor is None:
            raise LoggingError(
                "call enable_sth_verification(public_key) before verified_sth()"
            )
        sth = self.fetch_sth(timeout=timeout)
        return monitor.observe(
            sth,
            prove_consistency=lambda old, new: self.prove_consistency(
                old, new, timeout=timeout
            ),
        )

    def verify_own_entry(
        self,
        record: Union[LogEntry, bytes],
        index: int,
        timeout: float = 5.0,
    ) -> bool:
        """The client-audit primitive: is *my* entry really in the log the
        server is showing everyone?  Fetches and verifies the latest STH,
        then an inclusion proof for ``record`` at ``index`` against that
        exact tree size, and checks it up to the signed root."""
        payload = record.encode() if isinstance(record, LogEntry) else bytes(record)
        sth = self.verified_sth(timeout=timeout)
        if index >= sth.entries:
            raise ProofError(
                f"entry index {index} is not covered by the latest signed "
                f"tree head (size {sth.entries})"
            )
        proof = self.prove_inclusion(index, tree_size=sth.entries, timeout=timeout)
        return proof.verify(payload, sth.merkle_root)

    def submit_batch_sync(
        self,
        entries: List[Union[LogEntry, bytes]],
        timeout: float = 30.0,
    ) -> int:
        """Acknowledged group commit: returns the server's entry count
        after the whole batch is ingested (and, on a durable server,
        journaled).

        Nothing is spilled or retried here -- :class:`RemoteUnavailable`
        means the caller does not know how much of the batch landed and
        must reconcile against the server's count after reconnecting
        (frames on one connection are ingested in order, so the count
        identifies the accepted prefix exactly); a plain
        :class:`LoggingError` means the server answered and refused
        (nothing was ingested), and :class:`RecordTooLarge` that a record
        cannot fit a frame (nothing was sent).

        Chunks of one oversized batch are exchanged serially on purpose:
        the accepted-prefix property depends on stop-on-refusal, and a
        pipelined chunk landing *after* a refused one would punch a hole
        in the prefix.  *Concurrent* callers pipeline freely -- each
        call's frames carry their own correlation ids, so many batches
        may be in flight on the shared connection at once.
        """
        records = [
            entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
            for entry in entries
        ]
        for record in records:
            if not _fits_a_frame(record):
                raise RecordTooLarge(
                    f"record of {len(record)} bytes exceeds the "
                    f"{framing.MAX_FRAME_SIZE}-byte frame cap"
                )
        count = 0
        # an empty batch still round-trips for the count
        chunks = list(_frame_chunks(records)) or [[]]
        # Deadline propagation: the server refuses (without ingesting)
        # work it cannot start before this client would have given up.
        deadline_ms = max(1, int(timeout * 1000))
        for chunk in chunks:
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH,
                entry_batch=chunk,
                sync=True,
                deadline_ms=deadline_ms,
            )
            response = self._rpc(request, timeout=timeout)
            if not response.ok:
                _raise_for_verdict(response)
                raise LoggingError(f"batch submission rejected: {response.error}")
            count = int(response.entries)
        return count

    def checkpoint(self, timeout: float = 30.0) -> None:
        """Ask the server to take a durable checkpoint now."""
        response = self._rpc(LoggerRequest(op=OP_CHECKPOINT), timeout=timeout)
        if not response.ok:
            raise LoggingError(f"checkpoint rejected: {response.error}")

    def server_stats(self, timeout: float = 5.0) -> Dict[str, int]:
        """The server's flat counters (entry/byte/rejection totals plus
        whatever its ``stats()`` contributes)."""
        response = self._rpc(LoggerRequest(op=OP_STATS), timeout=timeout)
        if not response.ok:
            raise LoggingError(f"stats probe rejected: {response.error}")
        return json.loads(response.stats_json) if response.stats_json else {}

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        """Fire-and-forget submission of one entry; returns 0."""
        return self.submit_batch([entry])[0]

    def _confirm_sent(
        self, connection: Connection, records: List[bytes]
    ) -> bool:
        """Post-send guard against the reap-vs-send race: the pre-send
        ``peer_closed()`` peek and the send are not atomic, so a
        connection the server reaped in that gap accepts the frame at the
        kernel level and discards it.  Peeking again *after* the send
        closes the window: if EOF is now visible, the frames may never be
        read -- re-spill the records and retire the connection.
        At-least-once: if the server did ingest them before closing, the
        re-sends surface as auditable duplicates, never silent loss."""
        try:
            alive = not connection.peer_closed()
        except Exception:
            alive = False
        if alive:
            return True
        self._drop_cached_connection(connection)
        with self._lock:
            self.peer_close_respills += len(records)
        for record in records:
            self._spill_entry(record)
        return False

    def submit_batch(self, entries: List[Union[LogEntry, bytes]]) -> List[int]:
        """Fire-and-forget submission; returns 0 per entry (no server-side
        index).  One ``OP_SUBMIT_BATCH`` frame (one send, one server round
        trip's worth of framing) carries every entry.  Never raises; on
        connection trouble the whole batch is spilled in order and re-sent
        later (on a later call or via :meth:`flush_spill`).  A record no
        frame can carry is counted in :attr:`dropped` and its batchmates
        are sent without it: a retry could only re-send them."""
        indexes = [0] * len(entries)
        records = [
            entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
            for entry in entries
        ]
        shippable = [record for record in records if _fits_a_frame(record)]
        if len(shippable) < len(records):
            logger.warning(
                "RemoteLogger dropped %d record(s) over the %d-byte frame cap",
                len(records) - len(shippable),
                framing.MAX_FRAME_SIZE,
            )
            with self._lock:
                self.dropped += len(records) - len(shippable)
            records = shippable
        if not records:
            return indexes
        connection = self._connect()
        if connection is None or not self._drain_spill(connection):
            for record in records:
                self._spill_entry(record)
            return indexes
        try:
            self._send_records(connection, records)
        except ConnectionClosed:
            for record in records:
                self._spill_entry(record)
            return indexes
        if not self._confirm_sent(connection, records):
            return indexes
        self._after_send(records)
        return indexes

    def _send_records(self, connection: Connection, records: List[bytes]) -> None:
        """Send records in as few ``OP_SUBMIT_BATCH`` frames as possible."""
        for chunk in _frame_chunks(records):
            connection.send_frame(
                LoggerRequest(op=OP_SUBMIT_BATCH, entry_batch=chunk).encode_parts()
            )

    def _after_send(self, records: List[bytes]) -> None:
        """Charge fire-and-forget sends to the credit window and, when it
        fills, credit-sync before stuffing more unconfirmed bytes in."""
        if self._credit is not None and self._credit.charge(
            sum(len(record) for record in records)
        ):
            self._credit_sync()

    def _credit_sync(self) -> None:
        """One empty synchronous batch round trip.

        TCP delivers this connection's frames in order and the endpoint
        serves them serially, so *any* answer proves every earlier
        fire-and-forget frame was ingested and the window settles.  Never
        raises (fire-and-forget callers sit above this).
        """
        request = LoggerRequest(
            op=OP_SUBMIT_BATCH,
            sync=True,
            deadline_ms=int(CREDIT_SYNC_TIMEOUT * 1000),
        )
        try:
            self._rpc(request, timeout=CREDIT_SYNC_TIMEOUT)
        except LoggingError:
            # Unreachable / timed out: outstanding bytes are moot, the
            # spill/drain machinery owns recovery from here.
            self._credit.reset()
            return
        self._credit.settle()

    def _spill_entry(self, record: bytes) -> None:
        with self._lock:
            self._spill.append(record)
            while len(self._spill) > self._spill_capacity:
                overflow = self._spill.popleft()
                if not self._overflow_warned:
                    self._overflow_warned = True
                    logger.warning(
                        "RemoteLogger spill queue overflowed (capacity %d); "
                        "%s",
                        self._spill_capacity,
                        "overflowing oldest entries to %s" % self._disk.path
                        if self._disk is not None
                        else "oldest evidence is being DROPPED "
                        "(no spill_path configured)",
                    )
                if self._disk is None:
                    self.dropped += 1  # overflow: oldest evidence lost
                    continue
                try:
                    self._disk.append(overflow)
                    self.spilled_to_disk += 1
                except OSError:
                    self.dropped += 1  # disk full/gone: lost after all

    def _drain_spill(self, connection: Connection) -> bool:
        """Re-send parked entries oldest-first; ``False`` on failure.

        The disk file holds entries *older* than anything in memory (it
        receives the memory queue's overflow), so it drains first to keep
        global FIFO order.  Both queues drain in ``submit_batch_max``-sized
        ``OP_SUBMIT_BATCH`` frames, so recovering from a long outage costs
        one frame per batch instead of one per parked entry.

        Drained batches are charged to the credit window like any other
        fire-and-forget send.
        """
        while self._disk is not None:
            batch = self._disk.peek_many(self._submit_batch_max)
            if not batch:
                break
            try:
                self._send_records(connection, batch)
            except ConnectionClosed:
                return False
            # At-least-once window: a crash between send and consume re-sends
            # this batch on restart.  The server-side duplicates are
            # visible to the auditor, never silent loss.
            self._disk.consume_many(len(batch))
            with self._lock:
                self.retries += len(batch)
            self._after_send(batch)
        while True:
            with self._lock:
                if not self._spill:
                    return True
                batch = [
                    self._spill[i]
                    for i in range(min(len(self._spill), self._submit_batch_max))
                ]
            try:
                self._send_records(connection, batch)
            except ConnectionClosed:
                return False
            with self._lock:
                # pop what we just sent (submit is single-callered per node,
                # but stay safe against concurrent drains)
                for record in batch:
                    if self._spill and self._spill[0] is record:
                        self._spill.popleft()
                self.retries += len(batch)
            self._after_send(batch)

    def flush_spill(self) -> bool:
        """Attempt to re-send all spilled entries now; ``True`` if empty."""
        connection = self._connect()
        if connection is None:
            return self.spilled == 0
        return self._drain_spill(connection)

    def discard_spill(self) -> int:
        """Drop every parked entry (memory and disk); returns the count.

        Only the replication layer calls this, right before anti-entropy
        catch-up: the discarded entries are re-fetched from a healthy peer
        that already holds them, so discarding loses no evidence -- it
        prevents the reconnect drain from double-submitting them.
        """
        with self._lock:
            count = len(self._spill)
            self._spill.clear()
            if self._disk is not None:
                count += len(self._disk)
                while len(self._disk):
                    self._disk.consume()
            return count

    def close(self) -> None:
        """Drain-then-stop: re-send what a live connection will take, park
        the rest on the disk FIFO (when configured), then release
        resources.  A clean shutdown therefore never silently discards
        queued evidence -- it either reaches the server or survives on
        disk for the next incarnation of this component."""
        with self._lock:
            self._closed = True  # no new connections from here on
            connection = self._connection
        if connection is not None and not connection.closed:
            try:
                self._drain_spill(connection)
            except Exception:
                pass  # best effort; whatever remains is parked below
        with self._lock:
            if self._disk is not None:
                while self._spill:
                    record = self._spill.popleft()
                    try:
                        self._disk.append(record)
                        self.spilled_to_disk += 1
                    except OSError:
                        self.dropped += 1
            stale = self._channel
            self._channel = None
            if self._connection is not None:
                self._connection.close()
                self._connection = None
            if self._disk is not None:
                self._disk.close()
        if stale is not None:
            self._fail_waiters(stale, "logger stub closed")
