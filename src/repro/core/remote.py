"""Remote trusted logger.

The paper's logger "could be a remote log server, a local file, or even a
trusted hardware device" (Section II-A).  The in-process
:class:`~repro.core.log_server.LogServer` covers the local cases; this
module puts it behind a socket:

- :class:`LogServerEndpoint` exposes a :class:`LogServer` over any
  middleware transport (TCP in practice), speaking a small framed RPC:
  ``REGISTER_KEY``, ``SUBMIT``, ``HEALTH`` (the replica commitment probe),
  ``FETCH`` (raw-record ranges for anti-entropy catch-up), and ``KEYS``
  (key-registry snapshot, so a recovering replica can be re-keyed).
- :class:`RemoteLogger` is the component-side stub with the same
  ``register_key``/``submit`` surface the protocols expect, so an
  :class:`~repro.core.adlp_protocol.AdlpProtocol` can be pointed at a
  remote logger with no other change.

Faithful to the paper's failure model, ``SUBMIT`` is fire-and-forget: the
client never waits for a response, so "any failure at the log server does
not interrupt a normal operation of the ROS nodes".  Only key
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
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.entries import LogEntry
from repro.core.log_server import LogCommitment, LogServer
from repro.crypto.keys import PublicKey
from repro.crypto.merkle import MerkleConsistencyProof, MerkleProof
from repro.errors import (
    DeadlineExceeded,
    LoggingError,
    ProofError,
    ServerBusy,
    TransportError,
)
from repro.gossip.monitor import TreeHeadMonitor
from repro.gossip.sth import SignedTreeHead
from repro.resilience.admission import AdmissionController
from repro.resilience.flow import (
    CreditWindow,
    FlowControlConfig,
    RetryBudget,
    full_jitter,
)
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

#: RPC operation codes.
OP_REGISTER_KEY = 1
OP_SUBMIT = 2
OP_HEALTH = 3
OP_FETCH = 4
OP_KEYS = 5
OP_SUBMIT_BATCH = 6
OP_CHECKPOINT = 7
OP_STATS = 8
#: Response verdict codes (``LoggerResponse.code``; share the op number
#: space so a wire trace reads unambiguously).  ``OP_BUSY`` is admission
#: control refusing sync work -- the response carries the server's queue
#: depth and retry-after hint; ``OP_DEADLINE_EXPIRED`` is a request whose
#: client-stamped budget ran out before the expensive work (the entry was
#: NOT ingested).  Pre-overload clients skip the unknown fields and see an
#: ordinary ``ok=False`` rejection, which is safe (the work did not land).
OP_BUSY = 10
OP_DEADLINE_EXPIRED = 11
#: Proof-plane ops (split-view detection): ``OP_STH`` fetches the signed
#: tree head, ``OP_PROVE_INCLUSION`` / ``OP_PROVE_CONSISTENCY`` fetch
#: Merkle proofs a client verifies against the heads it holds.  All three
#: are shard-tagged, deadline-aware, and admission-controlled like every
#: other sync op (a proof storm must shed before it starves ingest).
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

#: Minimum client-side shed window, seconds.  A BUSY verdict whose
#: ``retry_after_ms`` hint is 0 (a server with a zero-configured or
#: truncated-to-zero hint) would otherwise open a zero-length shed window
#: and turn every refusal into a hot retry spin; the floor (jittered up to
#: 2x so a fleet's retries decorrelate) bounds the per-client retry rate
#: no matter what the server says.
MIN_SHED_FLOOR = 0.02

_floor_rng = random.Random()


def _floor_retry_after(hint: float, rng: Optional[random.Random] = None) -> float:
    """Floor a server retry-after hint at :data:`MIN_SHED_FLOOR`, with
    full jitter on the floored value (uniform in [floor, 2*floor))."""
    if hint >= MIN_SHED_FLOOR:
        return hint
    return MIN_SHED_FLOOR + full_jitter(MIN_SHED_FLOOR, rng or _floor_rng)


def _raise_for_verdict(
    response: "LoggerResponse", rng: Optional[random.Random] = None
) -> None:
    """Translate overload verdict codes on a failed response into typed
    exceptions (:class:`ServerBusy` / :class:`DeadlineExceeded`); plain
    rejections fall through to the caller's generic handling."""
    if response.ok:
        return
    code = int(response.code)
    if code == OP_BUSY:
        raise ServerBusy(
            str(response.error) or "log server is overloaded",
            retry_after=_floor_retry_after(
                int(response.retry_after_ms) / 1000.0, rng
            ),
            queue_depth=int(response.queue_depth),
        )
    if code == OP_DEADLINE_EXPIRED:
        raise DeadlineExceeded(
            str(response.error) or "deadline expired server-side"
        )


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
    entry_bytes = bytes_(4)  # OP_SUBMIT
    start = uint64(5)  # OP_FETCH: first record index
    count = uint64(6)  # OP_FETCH: max records to return
    entry_batch = repeated(bytes_(7))  # OP_SUBMIT_BATCH: N entries, 1 frame
    #: Shard targeting for SUBMIT/SUBMIT_BATCH/FETCH/HEALTH against a
    #: sharded server, encoded as ``shard_index + 1`` so the wire default
    #: ``0`` means "untargeted" and frames from pre-sharding clients keep
    #: their old meaning.
    shard = uint64(8)
    #: SUBMIT/SUBMIT_BATCH: when set, the server answers with a
    #: :class:`LoggerResponse` whose ``entries`` is its post-ingest entry
    #: count -- the acknowledged submission mode (the wire default ``0``
    #: keeps classic frames fire-and-forget).
    sync = boolean(9)
    #: Client-stamped deadline budget in milliseconds for sync submits:
    #: if the server cannot start the expensive work (admission wait
    #: included) within this budget of receiving the frame, it answers
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
    #: Correlation id (v2 envelope): a client that pipelines several
    #: synchronous requests on one connection stamps each with a unique
    #: non-zero id; the server echoes it verbatim on the response so
    #: replies can be matched out of a shared stream.  0 (the wire
    #: default) marks a pre-pipelining frame -- the server still answers
    #: (echoing 0) and such clients match replies by FIFO order, so both
    #: directions interoperate across versions.
    corr_id = uint64(14)


class LoggerResponse(WireMessage):
    """Response to synchronous requests (everything but ``OP_SUBMIT``)."""

    ok = boolean(1)
    error = string(2)
    entries = uint64(3)  # OP_HEALTH
    chain_head = bytes_(4)  # OP_HEALTH
    merkle_root = bytes_(5)  # OP_HEALTH
    total_bytes = uint64(6)  # OP_HEALTH
    records = repeated(bytes_(7))  # OP_FETCH
    key_ids = repeated(string(8))  # OP_KEYS (parallel with key_blobs)
    key_blobs = repeated(bytes_(9))  # OP_KEYS
    #: OP_HEALTH: shard count of a sharded server (0 = not sharded); lets
    #: a client discover the shard layout before tagging frames.
    shards = uint64(10)
    #: OP_STATS: the server's flat counters as a JSON object (a schema
    #: field per counter would couple the wire format to every backend's
    #: counter set; stats are observability, not evidence).
    stats_json = string(11)
    #: Response verdict: 0 = plain ok/error, :data:`OP_BUSY` = admission
    #: control refused (see ``queue_depth`` / ``retry_after_ms``),
    #: :data:`OP_DEADLINE_EXPIRED` = the request's deadline budget ran
    #: out server-side.  Old clients skip this field and treat both as
    #: ordinary rejections.
    code = uint64(12)
    #: OP_BUSY: the server's ingest depth when it refused.
    queue_depth = uint64(13)
    #: OP_BUSY: suggested client backoff before retrying, milliseconds.
    retry_after_ms = uint64(14)
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
    #: none -- an old client, which skips this unknown field anyway).
    corr_id = uint64(21)


#: Pending-request backlog per connection at which the event loop stops
#: reading that socket (kernel backpressure on the peer) and the depth at
#: which it resumes.  Bounds server memory against a client that stuffs
#: frames faster than dispatch drains them.
_READ_PAUSE_DEPTH = 1024
_READ_RESUME_DEPTH = 256

_PREAMBLE = struct.Struct("<I")


class _EventConn:
    """Event-loop state for one raw-socket connection.

    The loop thread owns the socket and the frame reassembly buffer;
    dispatch workers own ``pending`` (under ``lock``) and append framed
    response bytes to ``out``, which only the loop thread writes to the
    socket.  ``running`` guarantees at most one dispatch worker drains
    this connection at a time -- per-connection FIFO execution is
    load-bearing (credit syncs and the count reconcile of acknowledged
    submits both assume this connection's frames are ingested in
    order)."""

    __slots__ = (
        "connection",
        "sock",
        "rbuf",
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
        self.out: Deque[memoryview] = deque()
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

    Transports whose connections do not expose a raw socket (in-process
    and fault-injection wrappers) fall back to the classic
    thread-per-connection serve loop; both paths share the same dispatch
    logic, so verdicts and commitments are identical.
    """

    def __init__(
        self,
        server: LogServer,
        transport: Optional[Transport] = None,
        idle_timeout: Optional[float] = None,
        admission: Optional[AdmissionController] = None,
        dispatch_workers: Optional[int] = None,
    ):
        self.server = server
        self._transport = transport or TcpTransport()
        self._listener = self._transport.listen()
        self._connections: List[Connection] = []
        self._lock = threading.Lock()
        self._idle_timeout = idle_timeout
        #: Admission control (overload protection).  ``None`` keeps the
        #: pre-overload behavior: every frame is ingested unconditionally.
        self.admission = admission
        #: Submission frames received / rejected by the server (observability
        #: for chaos runs; rejection never propagates to the component).
        self.submissions = 0
        self.rejected = 0
        #: Connections closed by the idle reaper (observability).
        self.reaped = 0
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
        loop can own (TCP connections); ``None`` sends the
        connection down the thread-per-connection fallback."""
        sock = getattr(connection, "_sock", None)
        return sock if isinstance(sock, socket.socket) else None

    def _accept_loop(self) -> None:
        while not self._acceptor.stopped():
            connection = self._listener.accept(timeout=0.1)
            if connection is None:
                continue
            with self._lock:
                self._connections.append(connection)
            sock = self._raw_socket(connection)
            if sock is not None:
                sock.setblocking(False)
                state = _EventConn(connection, sock)
                with self._dirty_lock:
                    self._new_states.append(state)
                self._wake()
                continue
            worker = StoppableThread(
                "logserver-conn", target=lambda c=connection: self._serve(c)
            )
            worker.start()

    # -- event loop (socket-backed connections) ---------------------------

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
            data = state.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._loop_close(state)
            return
        if not data:
            self._loop_close(state)
            return
        state.last_active = time.monotonic()
        state.rbuf += data
        self._parse_frames(state)

    def _parse_frames(self, state: _EventConn) -> None:
        arrival = time.monotonic()
        spawn = False
        rbuf = state.rbuf
        while True:
            if len(rbuf) < framing.PREAMBLE_SIZE:
                break
            (length,) = _PREAMBLE.unpack_from(rbuf)
            if length > framing.MAX_FRAME_SIZE:
                self._loop_close(state)  # protocol violation
                return
            end = framing.PREAMBLE_SIZE + length
            if len(rbuf) < end:
                break
            frame = bytes(rbuf[framing.PREAMBLE_SIZE : end])
            del rbuf[:end]
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
        if state.read_paused or state.out:
            self._update_interest(state)
        if spawn:
            self._executor.submit(self._drain_pending, state)

    def _loop_write(self, state: _EventConn) -> None:
        with state.lock:
            if state.read_paused and len(state.pending) <= _READ_RESUME_DEPTH:
                state.read_paused = False
        try:
            while state.out:
                with state.lock:
                    if not state.out:
                        break
                    buf = state.out[0]
                try:
                    sent = state.sock.send(buf)
                except (BlockingIOError, InterruptedError):
                    break
                with state.lock:
                    if sent < len(buf):
                        state.out[0] = buf[sent:]
                        break
                    state.out.popleft()
        except OSError:
            self._loop_close(state)
            return
        self._update_interest(state)

    def _loop_close(self, state: _EventConn) -> None:
        with state.lock:
            state.closing = True
            # pending is NOT cleared: frames already reassembled off the
            # socket are accepted work, and a client disconnect racing
            # dispatch must not silently drop fire-and-forget evidence
            # (the thread-fallback path drains buffered frames to EOF the
            # same way).  Queued responses are undeliverable, so they go.
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
            try:
                payload = framing.encode_frame(response.encode())
            except Exception:  # oversized response: drop, keep serving
                continue
            with state.lock:
                if state.closing:
                    continue  # undeliverable, but keep draining pending
                state.out.append(memoryview(payload))
            self._mark_dirty(state)

    # -- shared dispatch (event loop + thread fallback) --------------------

    def _dispatch(
        self, request: LoggerRequest, arrival: float
    ) -> Optional[LoggerResponse]:
        """Execute one request; returns the response to send, or ``None``
        for fire-and-forget submits.  Every response echoes the request's
        correlation id (0 for old clients, who skip the unknown field)."""
        if request.op == OP_SUBMIT:
            with self._lock:
                self.submissions += 1
            if request.sync:
                response = self._ingest_sync(
                    [bytes(request.entry_bytes)],
                    request.shard,
                    deadline_ms=int(request.deadline_ms),
                    arrival=arrival,
                )
                response.corr_id = request.corr_id
                return response
            admission = self.admission
            if admission is not None:
                # Fire-and-forget work is never refused (no response
                # channel = refusal would be silent evidence loss); it
                # is force-admitted so the depth gauge stays honest
                # and *sync* traffic sheds on its behalf.
                admission.force_admit(1)
            try:
                self._submit_one(request.entry_bytes, request.shard)
            except LoggingError:
                # fire-and-forget: bad entries are dropped server-side
                with self._lock:
                    self.rejected += 1
            finally:
                if admission is not None:
                    admission.release(1)
            return None
        if request.op == OP_SUBMIT_BATCH:
            batch = [bytes(record) for record in request.entry_batch]
            if request.sync:
                with self._lock:
                    self.submissions += len(batch)
                response = self._ingest_sync(
                    batch,
                    request.shard,
                    deadline_ms=int(request.deadline_ms),
                    arrival=arrival,
                )
                response.corr_id = request.corr_id
                return response
            admission = self.admission
            if admission is not None:
                admission.force_admit(len(batch))
            try:
                self._ingest_batch(batch, shard_tag=request.shard)
            finally:
                if admission is not None:
                    admission.release(len(batch))
            return None
        if request.op in (OP_STH, OP_PROVE_INCLUSION, OP_PROVE_CONSISTENCY):
            response = self._answer_proof(request, arrival=arrival)
        else:
            response = self._answer(request)
        response.corr_id = request.corr_id
        return response

    # -- thread-per-connection fallback (non-socket transports) ------------

    def _serve(self, connection: Connection) -> None:
        try:
            self._serve_loop(connection)
        finally:
            connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _serve_loop(self, connection: Connection) -> None:
        last_active = time.monotonic()
        while not self._acceptor.stopped():
            try:
                frame = connection.recv_frame(timeout=0.1)
            except ConnectionClosed:
                return
            if frame is None:
                if (
                    self._idle_timeout is not None
                    and time.monotonic() - last_active > self._idle_timeout
                ):
                    # Reap the connection: a wedged or leaked client must
                    # not pin a worker thread forever.  A live component
                    # reconnects transparently on its next submit.
                    with self._lock:
                        self.reaped += 1
                    return
                continue
            last_active = time.monotonic()
            try:
                request = LoggerRequest.decode(frame)
            except Exception:
                continue  # a malformed frame must not kill the server
            response = self._dispatch(request, arrival=last_active)
            if response is None:
                continue
            try:
                connection.send_frame(response.encode())
            except ConnectionClosed:
                return

    def _submit_one(self, record: bytes, shard_tag: int) -> None:
        """Route one submitted record, honoring a shard tag.

        A tag against a sharded server goes through ``submit_to_shard``
        (which verifies the tag against the router -- a client holding a
        stale shard count must not scatter a topic across shards).  A
        plain server is treated as a one-shard set: tag 1 targets the
        whole log, any other tag is rejected.
        """
        if shard_tag:
            submit_to_shard = getattr(self.server, "submit_to_shard", None)
            if submit_to_shard is not None:
                submit_to_shard(shard_tag - 1, record)
                return
            if shard_tag != 1:
                raise LoggingError(
                    f"shard {shard_tag - 1} targeted on an unsharded server"
                )
        self.server.submit(record)

    def _ingest_batch(self, batch: List[bytes], shard_tag: int = 0) -> None:
        """Group-commit a batched submission; fire-and-forget like SUBMIT.

        The server's batch ingest is all-or-nothing, so when it refuses the
        batch (an undecodable entry) the records are re-submitted one at a
        time -- only the poison entry is rejected, its batchmates are
        ingested exactly once.  Shard tags are honored exactly like
        :meth:`_submit_one`, including on the per-entry fallback path.
        """
        if not batch:
            return
        with self._lock:
            self.submissions += len(batch)
        if shard_tag:
            submit_batch_to_shard = getattr(
                self.server, "submit_batch_to_shard", None
            )
            if submit_batch_to_shard is not None:
                try:
                    submit_batch_to_shard(shard_tag - 1, batch)
                    return
                except LoggingError:
                    pass  # isolate the poison entry below
                for record in batch:
                    try:
                        self._submit_one(record, shard_tag)
                    except LoggingError:
                        with self._lock:
                            self.rejected += 1
                return
            if shard_tag != 1:
                # plain server, impossible shard: the whole batch is
                # misaddressed (never silently ingested under shard 0)
                with self._lock:
                    self.rejected += len(batch)
                return
        submit_batch = getattr(self.server, "submit_batch", None)
        if submit_batch is not None:
            try:
                submit_batch(batch)
                return
            except LoggingError:
                pass  # isolate the poison entry below
        for record in batch:
            try:
                self.server.submit(record)
            except LoggingError:
                with self._lock:
                    self.rejected += 1

    def _ingest_sync(
        self,
        batch: List[bytes],
        shard_tag: int,
        deadline_ms: int = 0,
        arrival: Optional[float] = None,
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

        Overload protection (sync-only, both opt-in): with an
        :class:`AdmissionController` installed, a busy server answers
        ``OP_BUSY`` (depth + retry-after hint) *before* any expensive
        work -- the count in that response is still exact, so even a
        refused credit sync settles the client's outstanding-bytes
        window.  With ``deadline_ms`` stamped by the client, a budget
        that expired while the frame waited (admission wait included)
        answers ``OP_DEADLINE_EXPIRED`` instead of doing work the caller
        has already abandoned; the entry is NOT ingested.
        """
        admission = self.admission
        if admission is not None:
            decision = admission.try_admit(len(batch))
            if decision is not None:
                return LoggerResponse(
                    ok=False,
                    error=(
                        "server busy: ingest depth "
                        f"{decision.queue_depth}"
                    ),
                    entries=len(self.server),
                    code=OP_BUSY,
                    queue_depth=decision.queue_depth,
                    retry_after_ms=int(decision.retry_after * 1000),
                )
        try:
            if deadline_ms and arrival is not None:
                elapsed_ms = (time.monotonic() - arrival) * 1000.0
                if elapsed_ms > deadline_ms:
                    if admission is not None:
                        admission.note_deadline_rejection()
                    return LoggerResponse(
                        ok=False,
                        error=(
                            f"deadline of {deadline_ms} ms expired "
                            f"({elapsed_ms:.0f} ms elapsed) before ingest"
                        ),
                        entries=len(self.server),
                        code=OP_DEADLINE_EXPIRED,
                    )
            return self._ingest_sync_admitted(batch, shard_tag)
        finally:
            if admission is not None:
                admission.release(len(batch))

    def _ingest_sync_admitted(
        self, batch: List[bytes], shard_tag: int
    ) -> LoggerResponse:
        try:
            if shard_tag:
                submit_batch_to_shard = getattr(
                    self.server, "submit_batch_to_shard", None
                )
                if submit_batch_to_shard is not None:
                    submit_batch_to_shard(shard_tag - 1, batch)
                elif shard_tag == 1:
                    self._ingest_plain_sync(batch)
                else:
                    raise LoggingError(
                        f"shard {shard_tag - 1} targeted on an unsharded server"
                    )
            else:
                self._ingest_plain_sync(batch)
        except Exception as exc:
            # Includes store failures: the server's batch ingest rolled
            # back, so the count we report is still exact.
            with self._lock:
                self.rejected += len(batch)
            return LoggerResponse(
                ok=False, error=str(exc), entries=len(self.server)
            )
        return LoggerResponse(ok=True, entries=len(self.server))

    def _ingest_plain_sync(self, batch: List[bytes]) -> None:
        submit_batch = getattr(self.server, "submit_batch", None)
        if submit_batch is not None:
            submit_batch(batch)
            return
        for record in batch:
            self.server.submit(record)

    def _answer(self, request: LoggerRequest) -> LoggerResponse:
        """Build the response for a synchronous (non-SUBMIT) request."""
        try:
            if request.op == OP_REGISTER_KEY:
                self.server.register_key(request.component_id, request.key_bytes)
                return LoggerResponse(ok=True)
            if request.op == OP_HEALTH:
                return self._health_response(request.shard)
            if request.op == OP_FETCH:
                count = min(request.count or FETCH_BATCH_LIMIT, FETCH_BATCH_LIMIT)
                records = self._fetch_records(request.shard, request.start, count)
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
                if self.admission is not None:
                    data.update(self.admission.stats())
                return LoggerResponse(
                    ok=True,
                    entries=len(self.server),
                    stats_json=json.dumps(data, sort_keys=True),
                )
            return LoggerResponse(ok=False, error=f"unknown op {request.op}")
        except Exception as exc:
            return LoggerResponse(ok=False, error=str(exc))

    def _health_response(self, shard_tag: int) -> LoggerResponse:
        """Commitment probe, shard-aware.

        Untargeted against a sharded server, the probe reports the
        aggregate: total entries/bytes, the *set root* in both hash slots,
        and the shard count (how a client discovers the layout).  A shard
        tag selects one shard's ordinary commitment; a plain server
        answers tag 1 as "the whole log" and rejects any other tag.
        """
        shard_commitment = getattr(self.server, "shard_commitment", None)
        if shard_tag:
            if shard_commitment is not None:
                commitment = shard_commitment(shard_tag - 1)
            elif shard_tag == 1:
                commitment = self.server.commitment()
            else:
                return LoggerResponse(
                    ok=False,
                    error=f"shard {shard_tag - 1} probed on an unsharded server",
                )
            return LoggerResponse(
                ok=True,
                entries=commitment.entries,
                chain_head=commitment.chain_head,
                merkle_root=commitment.merkle_root,
                total_bytes=commitment.total_bytes,
            )
        commitment = self.server.commitment()
        shards = 0
        if hasattr(commitment, "root"):  # ShardSetCommitment
            shards = commitment.shards
            commitment = commitment.as_log_commitment()
        return LoggerResponse(
            ok=True,
            entries=commitment.entries,
            chain_head=commitment.chain_head,
            merkle_root=commitment.merkle_root,
            total_bytes=commitment.total_bytes,
            shards=shards,
        )

    def _fetch_records(self, shard_tag: int, start: int, count: int) -> List[bytes]:
        """Raw-record range, shard-aware, of at most
        :data:`BATCH_FRAME_BYTES` (but at least one record) -- a fetch
        of image-sized records must fit a frame; clients loop on short
        batches.

        A sharded server's record indexes are per shard, so fetches
        against one MUST carry a shard tag -- an untargeted fetch would
        need a merged index space that is not stable while shards ingest
        concurrently.  A plain server ignores sharding (tag 1 = the whole
        log) for symmetry with :meth:`_submit_one`.
        """
        shard_fetch = getattr(self.server, "shard_raw_records", None)
        limit = BATCH_FRAME_BYTES
        if shard_tag:
            if shard_fetch is not None:
                return shard_fetch(shard_tag - 1, start, count, limit)
            if shard_tag == 1:
                return self.server.raw_records(start, count, max_bytes=limit)
            raise LoggingError(
                f"shard {shard_tag - 1} fetched from an unsharded server"
            )
        if shard_fetch is not None:
            raise LoggingError(
                "a sharded log server requires a shard id for FETCH "
                "(per-shard record indexes; fetch each shard separately)"
            )
        return self.server.raw_records(start, count, max_bytes=limit)

    # -- proof plane (signed tree heads + Merkle proofs) -------------------

    def _answer_proof(
        self, request: LoggerRequest, arrival: Optional[float] = None
    ) -> LoggerResponse:
        """Serve a proof-plane op under the same overload discipline as
        sync ingest: admission first (OP_BUSY), then the client-stamped
        deadline (OP_DEADLINE_EXPIRED), then the actual work.  Proof
        building walks the Merkle tree, so an unmetered proof storm could
        starve ingest -- auditors must shed like everyone else.
        """
        admission = self.admission
        if admission is not None:
            decision = admission.try_admit(1)
            if decision is not None:
                return LoggerResponse(
                    ok=False,
                    error=f"server busy: ingest depth {decision.queue_depth}",
                    code=OP_BUSY,
                    queue_depth=decision.queue_depth,
                    retry_after_ms=int(decision.retry_after * 1000),
                )
        try:
            deadline_ms = int(request.deadline_ms)
            if deadline_ms and arrival is not None:
                elapsed_ms = (time.monotonic() - arrival) * 1000.0
                if elapsed_ms > deadline_ms:
                    admission_ = self.admission
                    if admission_ is not None:
                        admission_.note_deadline_rejection()
                    return LoggerResponse(
                        ok=False,
                        error=(
                            f"deadline of {deadline_ms} ms expired "
                            f"({elapsed_ms:.0f} ms elapsed) before proving"
                        ),
                        code=OP_DEADLINE_EXPIRED,
                    )
            return self._proof_response(request)
        finally:
            if admission is not None:
                admission.release(1)

    def _proof_response(self, request: LoggerRequest) -> LoggerResponse:
        try:
            if request.op == OP_STH:
                sth = self._issue_sth(request.shard)
                return LoggerResponse(
                    ok=True, entries=sth.entries, sth_bytes=sth.to_bytes()
                )
            if request.op == OP_PROVE_INCLUSION:
                proof = self._prove_inclusion(
                    request.shard,
                    int(request.proof_index),
                    int(request.proof_tree_size),
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
            proof = self._prove_consistency(
                request.shard,
                int(request.proof_old_size),
                int(request.proof_tree_size),
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

    def _issue_sth(self, shard_tag: int) -> SignedTreeHead:
        """Signed tree head, shard-aware.

        Untargeted against a sharded server returns the signed *set* head
        (the roll-up over per-shard commitments); a shard tag selects one
        shard's head.  A plain server answers tag 1 as the whole log.
        """
        shard_sth = getattr(self.server, "shard_signed_tree_head", None)
        if shard_tag:
            if shard_sth is not None:
                return shard_sth(shard_tag - 1)
            if shard_tag == 1:
                return self.server.signed_tree_head()
            raise LoggingError(
                f"shard {shard_tag - 1} STH requested on an unsharded server"
            )
        return self.server.signed_tree_head()

    def _prove_inclusion(
        self, shard_tag: int, index: int, tree_size: int
    ) -> MerkleProof:
        """Inclusion proof, shard-aware (per-shard trees, like FETCH)."""
        size = tree_size or None  # wire 0 = the current tree
        shard_prove = getattr(self.server, "shard_prove_inclusion", None)
        if shard_tag:
            if shard_prove is not None:
                return shard_prove(shard_tag - 1, index, size)
            if shard_tag == 1:
                return self.server.prove_inclusion(index, size)
            raise LoggingError(
                f"shard {shard_tag - 1} proof requested on an unsharded server"
            )
        if shard_prove is not None:
            raise LoggingError(
                "a sharded log server requires a shard id for "
                "PROVE_INCLUSION (per-shard Merkle trees)"
            )
        return self.server.prove_inclusion(index, size)

    def _prove_consistency(
        self, shard_tag: int, old_size: int, new_size: int
    ) -> MerkleConsistencyProof:
        """Consistency proof, shard-aware (per-shard trees)."""
        size = new_size or None  # wire 0 = the current tree
        shard_prove = getattr(self.server, "shard_prove_consistency", None)
        if shard_tag:
            if shard_prove is not None:
                return shard_prove(shard_tag - 1, old_size, size)
            if shard_tag == 1:
                return self.server.prove_consistency(old_size, size)
            raise LoggingError(
                f"shard {shard_tag - 1} proof requested on an unsharded server"
            )
        if shard_prove is not None:
            raise LoggingError(
                "a sharded log server requires a shard id for "
                "PROVE_CONSISTENCY (per-shard Merkle trees)"
            )
        return self.server.prove_consistency(old_size, size)

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

    ``pending`` maps correlation id -> waiter for servers that echo ids;
    ``fifo`` holds the same waiters in *wire order* for servers that
    predate the envelope (their responses carry ``corr_id == 0`` and are
    matched oldest-first, which is exact because the server executes one
    connection's frames in order).  ``correlated`` latches once any
    response on this connection has echoed a non-zero id -- from then on
    a timed-out RPC's late reply can be discarded by id, so the
    connection survives timeouts instead of being dropped.
    """

    __slots__ = (
        "connection",
        "lock",
        "reader_lock",
        "pending",
        "fifo",
        "correlated",
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
        self.fifo: Deque[_RpcWaiter] = deque()
        self.correlated = False
        self.next_corr = 1
        self.dead = False
        #: Whether the dedicated reader thread has been spawned.  Started
        #: lazily the first time two RPCs overlap: handing reader duty
        #: from waiter to waiter costs a thread wakeup per reply, which
        #: under real pipelining load dominates the round trip.
        self.reader_started = False


class RemoteLogger:
    """Component-side stub: ``register_key`` + ``submit`` over a socket.

    Drop-in for the ``log_server`` argument of
    :class:`~repro.core.adlp_protocol.AdlpProtocol` /
    :class:`~repro.core.naive_protocol.NaiveProtocol` (``submit``).

    ``submit`` never blocks on the server.  If the connection dies, entries
    are *spilled* into a bounded in-memory queue and re-sent (oldest first)
    once the connection recovers.  When the queue overflows, the oldest
    entries overflow to a :class:`~repro.storage.spillfile.DiskSpillFile`
    (if ``spill_path`` was given) instead of being discarded -- a long
    outage then costs disk space, not evidence; an entry is only counted in
    :attr:`dropped` when there is no disk spill (or writing it fails).
    Reconnection attempts back off exponentially with *full jitter*
    (``uniform(0, backoff)``) so a fleet of clients that all watched the
    same server restart does not rejoin in lockstep.  The node keeps
    running throughout (the paper's no-single-point-of-failure property).

    With a :class:`~repro.resilience.flow.FlowControlConfig` the stub
    additionally (1) caps outstanding fire-and-forget bytes with a credit
    window -- crossing it forces an empty synchronous batch round trip
    whose reply proves the server drained every earlier frame on this
    connection; (2) honors the server's ``OP_BUSY`` verdicts by entering
    a *shed* window: submissions divert to the spill queue (delayed, not
    lost -- counted in :attr:`shed_entries`) and drain resumes with
    paced, jittered retries once the window expires; (3) bounds
    retransmit amplification with a gRPC-style retry budget: spill-drain
    batches each spend a token, tokens are minted by acked successes
    (plus a slow time trickle for liveness), so retries can never exceed
    a configured fraction of goodput.
    """

    def __init__(
        self,
        address,
        transport: Optional[Transport] = None,
        spill_capacity: int = 1024,
        reconnect_backoff: float = 0.05,
        max_reconnect_backoff: float = 2.0,
        spill_path: Optional[str] = None,
        submit_batch_max: int = 64,
        shard: Optional[int] = None,
        flow_control: Optional[FlowControlConfig] = None,
        rng: Optional[random.Random] = None,
    ):
        if submit_batch_max < 1:
            raise ValueError("submit_batch_max must be at least 1")
        if shard is not None and shard < 0:
            raise ValueError("shard must be non-negative")
        #: Pinned shard: every frame this stub sends is tagged with it.
        #: Used by the replication layer's per-shard catch-up; ordinary
        #: components leave it unset (the server routes by topic).
        self._shard = shard
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
        #: Entries permanently lost to spill-queue overflow.
        self.dropped = 0
        #: Entries that overflowed the memory queue onto disk.
        self.spilled_to_disk = 0
        #: Spilled entries successfully re-sent after a reconnect.
        self.retries = 0
        #: Jitter source (seedable so chaos tests are reproducible).
        self._rng = rng or random.Random()
        #: Client-side overload machinery; ``None`` = pre-overload
        #: behavior (no credit window, no shed mode, unbounded drain).
        self._flow = flow_control
        self._credit: Optional[CreditWindow] = None
        self._retry_budget: Optional[RetryBudget] = None
        self._shed_until = 0.0
        self._shed_pause = 0.0
        self._unacked = 0
        #: OP_BUSY verdicts observed (sync + credit-sync paths).
        self.busy_responses = 0
        #: Entries diverted to the spill queue by shed mode (delayed, not
        #: lost -- the audit-facing complement of :attr:`dropped`).
        self.shed_entries = 0
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
        if flow_control is not None:
            self._credit = CreditWindow(flow_control.window_bytes)
            self._retry_budget = RetryBudget(
                capacity=flow_control.retry_budget,
                token_ratio=flow_control.retry_token_ratio,
                time_refill=flow_control.retry_time_refill,
            )
            self._shed_pause = flow_control.shed_min_pause

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

    @property
    def shedding(self) -> bool:
        """Whether submissions are currently diverting to the spill queue
        because the server said BUSY (shed = delayed, never lost)."""
        return self._flow is not None and time.monotonic() < self._shed_until

    def stats(self) -> Dict[str, int]:
        """Loss/overflow counters, for merging into protocol ``stats()``.

        With flow control enabled the counters also separate *shed*
        (diverted to spill on BUSY -- delayed) from *dropped* (lost), so
        an audit reading these numbers can tell backpressure from
        evidence loss.
        """
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
        if self._flow is not None:
            data["busy_responses"] = self.busy_responses
            data["shed_entries"] = self.shed_entries
            data["shedding"] = int(self.shedding)
            if self._credit is not None:
                data["outstanding_bytes"] = self._credit.outstanding
                data["credit_syncs"] = self._credit.credit_syncs
            if self._retry_budget is not None:
                data["retry_budget_exhausted"] = self._retry_budget.exhausted
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
            channel.fifo.clear()
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
        The send happens under the channel lock so waiter registration
        order equals wire order (the FIFO fallback for servers that do
        not echo correlation ids depends on it)."""
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
            channel.fifo.append(waiter)
            try:
                connection.send_frame(request.encode())
            except ConnectionClosed as exc:
                channel.pending.pop(corr, None)
                try:
                    channel.fifo.remove(waiter)
                except ValueError:
                    pass
                failure = exc
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
            waiter = channel.fifo[0] if channel.fifo else None
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
        """Give up on one timed-out RPC."""
        with channel.lock:
            correlated = channel.correlated
            channel.pending.pop(waiter.corr, None)
            try:
                channel.fifo.remove(waiter)
            except ValueError:
                pass
        if waiter.done:  # the reply raced our abandonment: use it
            if waiter.failure is not None:
                raise RemoteUnavailable(waiter.failure)
            return waiter.response
        if not correlated:
            # The server has never echoed a correlation id on this
            # connection, so its late reply -- if one ever comes -- would
            # be FIFO-matched to the NEXT exchange's waiter.  Drop the
            # connection so every later RPC (and the breaker decisions
            # fed by it) starts on a clean stream, exactly like the
            # pre-envelope client.
            self._fail_channel(channel, "log server did not answer in time")
        # A correlating server's late reply is discarded by id when it
        # arrives; the connection and its other in-flight RPCs survive.
        self._nudge_reader(channel)
        raise RemoteUnavailable("log server did not answer in time")

    def _pump(self, channel: _Channel, timeout: float) -> None:
        """Leader side of the shared reader: receive one frame and route
        it to its waiter -- by correlation id when the server echoes one,
        oldest-first otherwise."""
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
        corr = int(response.corr_id)
        with channel.lock:
            if corr:
                channel.correlated = True
                waiter = channel.pending.pop(corr, None)
                if waiter is None:
                    # A reply whose RPC already timed out: discarded by
                    # id, and the connection stays up.
                    self.late_replies_discarded += 1
                    return
                try:
                    channel.fifo.remove(waiter)
                except ValueError:
                    pass
            else:
                if not channel.fifo:
                    self.late_replies_discarded += 1
                    return
                waiter = channel.fifo.popleft()
                channel.pending.pop(waiter.corr, None)
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

    def _shard_tag(self, shard: Optional[int]) -> int:
        """Wire encoding of a shard choice: an explicit ``shard`` wins,
        then the pinned shard, then 0 (untargeted)."""
        if shard is None:
            shard = self._shard
        return 0 if shard is None else shard + 1

    def health(
        self, timeout: float = 5.0, shard: Optional[int] = None
    ) -> LogCommitment:
        """Probe the server's commitment (entry count, chain head, Merkle
        root).  Raises :class:`LoggingError` when the server is down --
        the signal a replicated deployment's circuit breaker feeds on.
        Against a sharded server an untargeted probe reports the aggregate
        (set root in both hash slots); ``shard`` selects one shard."""
        response = self._rpc(
            LoggerRequest(op=OP_HEALTH, shard=self._shard_tag(shard)),
            timeout=timeout,
        )
        if not response.ok:
            raise LoggingError(f"health probe rejected: {response.error}")
        return LogCommitment(
            entries=int(response.entries),
            chain_head=bytes(response.chain_head),
            merkle_root=bytes(response.merkle_root),
            total_bytes=int(response.total_bytes),
        )

    def shard_count(self, timeout: float = 5.0) -> int:
        """The server's shard count (0 = not sharded), via an untargeted
        health probe -- how callers discover a sharded layout."""
        response = self._rpc(LoggerRequest(op=OP_HEALTH), timeout=timeout)
        if not response.ok:
            raise LoggingError(f"health probe rejected: {response.error}")
        return int(response.shards)

    def fetch_records(
        self,
        start: int,
        count: int,
        timeout: float = 10.0,
        shard: Optional[int] = None,
    ) -> List[bytes]:
        """Fetch up to ``count`` raw records starting at index ``start``
        (the donor side of anti-entropy catch-up).  Record indexes on a
        sharded server are per shard, so pass ``shard`` (or pin one) when
        fetching from one."""
        response = self._rpc(
            LoggerRequest(
                op=OP_FETCH, start=start, count=count, shard=self._shard_tag(shard)
            ),
            timeout=timeout,
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
            _raise_for_verdict(response, self._rng)
            raise LoggingError(f"proof request rejected: {response.error}")
        return response

    def fetch_sth(
        self, timeout: float = 5.0, shard: Optional[int] = None
    ) -> SignedTreeHead:
        """Fetch the server's signed tree head (unverified -- pair with
        :meth:`enable_sth_verification` / :meth:`verified_sth` to check
        it).  Untargeted against a sharded server this is the signed *set*
        head; ``shard`` selects one shard's head."""
        response = self._proof_rpc(
            LoggerRequest(op=OP_STH, shard=self._shard_tag(shard)), timeout
        )
        return SignedTreeHead.from_bytes(bytes(response.sth_bytes))

    def prove_inclusion(
        self,
        index: int,
        tree_size: Optional[int] = None,
        timeout: float = 5.0,
        shard: Optional[int] = None,
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
                shard=self._shard_tag(shard),
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
        shard: Optional[int] = None,
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
                shard=self._shard_tag(shard),
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

    def verified_sth(
        self, timeout: float = 5.0, shard: Optional[int] = None
    ) -> SignedTreeHead:
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
        sth = self.fetch_sth(timeout=timeout, shard=shard)
        return monitor.observe(
            sth,
            prove_consistency=lambda old, new: self.prove_consistency(
                old, new, timeout=timeout, shard=shard
            ),
        )

    def verify_own_entry(
        self,
        record: Union[LogEntry, bytes],
        index: int,
        timeout: float = 5.0,
        shard: Optional[int] = None,
    ) -> bool:
        """The client-audit primitive: is *my* entry really in the log the
        server is showing everyone?  Fetches and verifies the latest STH,
        then an inclusion proof for ``record`` at ``index`` against that
        exact tree size, and checks it up to the signed root."""
        payload = record.encode() if isinstance(record, LogEntry) else bytes(record)
        sth = self.verified_sth(timeout=timeout, shard=shard)
        if index >= sth.entries:
            raise ProofError(
                f"entry index {index} is not covered by the latest signed "
                f"tree head (size {sth.entries})"
            )
        proof = self.prove_inclusion(
            index, tree_size=sth.entries, timeout=timeout, shard=shard
        )
        return proof.verify(payload, sth.merkle_root)

    def submit_batch_sync(
        self,
        entries: List[Union[LogEntry, bytes]],
        shard: Optional[int] = None,
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
        (nothing was ingested).

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
        tag = self._shard_tag(shard)
        count = 0
        chunk: List[bytes] = []
        size = 0
        chunks: List[List[bytes]] = []
        for record in records:
            if chunk and size + len(record) > BATCH_FRAME_BYTES:
                chunks.append(chunk)
                chunk, size = [], 0
            chunk.append(record)
            size += len(record)
        if chunk:
            chunks.append(chunk)
        if not chunks:
            chunks = [[]]  # an empty batch still round-trips for the count
        # Deadline propagation: the server refuses (without ingesting)
        # work it cannot start before this client would have given up.
        deadline_ms = max(1, int(timeout * 1000))
        for chunk in chunks:
            if len(chunk) == 1:
                request = LoggerRequest(
                    op=OP_SUBMIT,
                    entry_bytes=chunk[0],
                    shard=tag,
                    sync=True,
                    deadline_ms=deadline_ms,
                )
            else:
                request = LoggerRequest(
                    op=OP_SUBMIT_BATCH,
                    entry_batch=chunk,
                    shard=tag,
                    sync=True,
                    deadline_ms=deadline_ms,
                )
            response = self._rpc(request, timeout=timeout)
            if not response.ok:
                if int(response.code) == OP_BUSY:
                    self.busy_responses += 1
                _raise_for_verdict(response, self._rng)
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
        """Fire-and-forget submission; returns 0 (no server-side index).

        Never raises: on connection trouble the encoded entry is spilled
        and retried on a later call (or via :meth:`flush_spill`); while
        shed mode is active (the server said BUSY recently) the entry is
        spilled immediately instead of adding load.
        """
        record = entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
        if self.shedding:
            self.shed_entries += 1
            self._spill_entry(record)
            return 0
        connection = self._connect()
        if connection is None:
            self._spill_entry(record)
            return 0
        if not self._drain_spill(connection):
            self._spill_entry(record)
            return 0
        try:
            connection.send_frame(
                LoggerRequest(
                    op=OP_SUBMIT, entry_bytes=record, shard=self._shard_tag(None)
                ).encode()
            )
        except ConnectionClosed:
            self._spill_entry(record)
            return 0
        if not self._confirm_sent(connection, [record]):
            return 0
        self._after_send([record])
        return 0

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

    def submit_batch(
        self,
        entries: List[Union[LogEntry, bytes]],
        shard: Optional[int] = None,
    ) -> List[int]:
        """Fire-and-forget batched submission: one ``OP_SUBMIT_BATCH``
        frame (one send, one server round trip's worth of framing) carries
        every entry.  Never raises; on connection trouble the whole batch
        is spilled in order and re-sent later, exactly like per-entry
        submits.  ``shard`` tags the frames for a sharded server (the
        per-shard anti-entropy replay path); spilled entries are re-sent
        untagged and route by topic, which lands them identically."""
        records = [
            entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
            for entry in entries
        ]
        if not records:
            return []
        if self.shedding:
            self.shed_entries += len(records)
            for record in records:
                self._spill_entry(record)
            return [0] * len(records)
        connection = self._connect()
        if connection is None or not self._drain_spill(connection):
            for record in records:
                self._spill_entry(record)
            return [0] * len(records)
        try:
            self._send_records(connection, records, shard)
        except ConnectionClosed:
            for record in records:
                self._spill_entry(record)
            return [0] * len(records)
        if not self._confirm_sent(connection, records):
            return [0] * len(records)
        self._after_send(records)
        return [0] * len(records)

    def _send_records(
        self,
        connection: Connection,
        records: List[bytes],
        shard: Optional[int] = None,
    ) -> None:
        """Send records in as few frames as possible (``OP_SUBMIT`` for a
        lone record, ``OP_SUBMIT_BATCH`` otherwise), splitting batches
        whose payload bytes would approach the transport's frame cap."""
        frame: List[bytes] = []
        size = 0
        for record in records:
            if frame and size + len(record) > BATCH_FRAME_BYTES:
                self._send_frame_of(connection, frame, shard)
                frame, size = [], 0
            frame.append(record)
            size += len(record)
        if frame:
            self._send_frame_of(connection, frame, shard)

    def _send_frame_of(
        self,
        connection: Connection,
        records: List[bytes],
        shard: Optional[int] = None,
    ) -> None:
        tag = self._shard_tag(shard)
        if len(records) == 1:
            request = LoggerRequest(op=OP_SUBMIT, entry_bytes=records[0], shard=tag)
        else:
            request = LoggerRequest(op=OP_SUBMIT_BATCH, entry_batch=records, shard=tag)
        connection.send_frame(request.encode())

    def _after_send(self, records: List[bytes]) -> None:
        """Flow-control bookkeeping after fire-and-forget sends landed on
        the socket: charge the credit window and, when it fills, force a
        credit sync before stuffing more unconfirmed bytes in."""
        if self._credit is None:
            return
        self._unacked += len(records)
        if self._credit.charge(sum(len(record) for record in records)):
            self._credit_sync()

    def _credit_sync(self) -> None:
        """One empty synchronous batch round trip.

        TCP delivers this connection's frames in order and the endpoint
        serves them serially, so *any* answer -- including a BUSY refusal
        -- proves every earlier fire-and-forget frame was ingested: the
        window settles and the retry budget collects the acked entries'
        tokens.  A BUSY answer additionally opens a shed window.  Never
        raises (fire-and-forget callers sit above this).
        """
        flow = self._flow
        assert flow is not None and self._credit is not None
        request = LoggerRequest(
            op=OP_SUBMIT_BATCH,
            shard=self._shard_tag(None),
            sync=True,
            deadline_ms=max(1, int(flow.credit_timeout * 1000)),
        )
        try:
            response = self._rpc(request, timeout=flow.credit_timeout)
        except LoggingError:
            # Unreachable / timed out: outstanding bytes are moot, the
            # spill/drain machinery owns recovery from here.
            self._credit.reset()
            return
        acked, self._unacked = self._unacked, 0
        self._credit.settle()
        if self._retry_budget is not None and acked:
            self._retry_budget.deposit(acked)
        if not response.ok and int(response.code) == OP_BUSY:
            self.busy_responses += 1
            self._enter_shed(int(response.retry_after_ms) / 1000.0)
        else:
            self._shed_pause = flow.shed_min_pause

    def _enter_shed(self, hint: float) -> None:
        """Open (or extend) the shed window: at least the server's
        retry-after hint, escalating exponentially on consecutive BUSY
        verdicts, with full jitter so a fleet's drain attempts spread."""
        flow = self._flow
        assert flow is not None
        pause = max(hint, self._shed_pause, flow.shed_min_pause)
        pause = min(pause, flow.shed_max_pause)
        self._shed_until = time.monotonic() + pause + full_jitter(
            pause, self._rng
        )
        self._shed_pause = min(pause * 2, flow.shed_max_pause)

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

        With flow control, every drained batch is a *retransmission* and
        spends one retry-budget token; an empty bucket pauses the drain
        (``False``) until successes or the time trickle mint more.  That
        is the bound that keeps a fleet recovering from an outage from
        re-flooding the server that just came back.
        """
        while self._disk is not None:
            batch = self._disk.peek_many(self._submit_batch_max)
            if not batch:
                break
            if self._retry_budget is not None and not self._retry_budget.take():
                return False
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
            if self._credit is not None:
                self._unacked += len(batch)
                self._credit.charge(sum(len(record) for record in batch))
        while True:
            with self._lock:
                if not self._spill:
                    return True
                batch = [
                    self._spill[i]
                    for i in range(min(len(self._spill), self._submit_batch_max))
                ]
            if self._retry_budget is not None and not self._retry_budget.take():
                return False
            try:
                self._send_records(connection, batch)
            except ConnectionClosed:
                return False
            if self._credit is not None:
                self._unacked += len(batch)
                self._credit.charge(sum(len(record) for record in batch))
            with self._lock:
                # pop what we just sent (submit is single-callered per node,
                # but stay safe against concurrent drains)
                for record in batch:
                    if self._spill and self._spill[0] is record:
                        self._spill.popleft()
                self.retries += len(batch)

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
