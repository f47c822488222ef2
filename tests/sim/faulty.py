"""Fault-injection ("chaos") transport wrapper.

The paper's guarantees (Lemmas 1-4, Theorems 1-2) are statements about what
an auditor can still prove when components -- or the network between them --
misbehave.  :class:`FaultyTransport` wraps any :class:`Transport` (inproc or
TCP) and injects *deterministic, seeded* faults on the send path of every
connection, so protocol and audit tests can reproduce network misbehavior
exactly:

- **drop** -- the frame never reaches the peer;
- **dup** -- the frame is delivered twice;
- **delay** -- the sender blocks ``delay_by`` seconds before the frame goes
  out (simulated latency);
- **reorder** -- the frame is held back and released after the *next* frame
  (adjacent swap);
- **truncate** -- only the first half of the frame is delivered (the framing
  layer still delivers it as one frame; the payload inside is corrupt);
- **disconnect** -- the connection is closed mid-stream.

Faults are decided per frame by a per-connection PRNG derived from the
schedule's seed, the connection's side (``"accept"`` vs ``"connect"``), and
a per-side connection counter -- the same schedule over the same frame
sequence always yields the same faults.  One-shot faults can additionally be
scripted at exact frame indices (:meth:`FaultSchedule.script`), or from an
index onward (:meth:`FaultSchedule.script_range`, e.g. "drop every ACK after
the handshake").

A schedule with all probabilities zero and no scripted faults is
byte-for-byte transparent.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Frame,
    Listener,
    Transport,
    join_frame,
)
from repro.middleware.transport.inproc import InprocTransport, connection_pair

#: Recognized fault kinds, in the order they are evaluated per frame.
FAULT_KINDS = ("disconnect", "drop", "truncate", "reorder", "dup", "delay")

#: Sides a connection can belong to (who created the endpoint).
SIDES = ("accept", "connect")


@dataclass(frozen=True)
class FaultProfile:
    """Per-direction fault probabilities (each in ``[0, 1]``)."""

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    truncate: float = 0.0
    disconnect: float = 0.0
    #: Seconds a delayed frame is held before sending.
    delay_by: float = 0.005

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{kind} probability must be in [0, 1], got {p}")
        if self.delay_by < 0:
            raise ValueError("delay_by must be non-negative")

    @property
    def is_transparent(self) -> bool:
        return all(getattr(self, kind) == 0.0 for kind in FAULT_KINDS)


@dataclass
class FaultStats:
    """Counts of faults actually injected (across all connections)."""

    sent: int = 0  # frames offered to the fault layer
    drops: int = 0
    dups: int = 0
    delays: int = 0
    reorders: int = 0
    truncations: int = 0
    disconnects: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    _FIELD = {
        "drop": "drops",
        "dup": "dups",
        "delay": "delays",
        "reorder": "reorders",
        "truncate": "truncations",
        "disconnect": "disconnects",
    }

    def bump(self, kind: str) -> None:
        name = self._FIELD[kind]
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def bump_sent(self) -> None:
        with self._lock:
            self.sent += 1

    def total_faults(self) -> int:
        with self._lock:
            return (
                self.drops
                + self.dups
                + self.delays
                + self.reorders
                + self.truncations
                + self.disconnects
            )


class FaultSchedule:
    """Deterministic fault decisions for every connection of a transport.

    :param seed: root seed; all per-connection PRNG streams derive from it.
    :param accept_side: profile applied to frames sent by *accepted*
        endpoints (under the middleware's topology: publisher -> subscriber
        data frames, since the publisher listens).
    :param connect_side: profile applied to frames sent by *connecting*
        endpoints (subscriber -> publisher ACK frames).
    """

    def __init__(
        self,
        seed: int = 0,
        accept_side: Optional[FaultProfile] = None,
        connect_side: Optional[FaultProfile] = None,
    ):
        self.seed = seed
        self.accept_side = accept_side or FaultProfile()
        self.connect_side = connect_side or FaultProfile()
        # (side, conn_index, frame_index) -> kind; conn_index None = the
        # first connection of that side to send that frame, once
        self._scripted: Dict[Tuple[str, Optional[int], int], str] = {}
        # (side, conn_index) -> list of (start_index, kind)
        self._ranges: Dict[Tuple[str, int], List[Tuple[int, str]]] = {}
        self._lock = threading.Lock()

    @classmethod
    def symmetric(cls, profile: FaultProfile, seed: int = 0) -> "FaultSchedule":
        """Same profile in both directions."""
        return cls(seed=seed, accept_side=profile, connect_side=profile)

    # -- scripted one-shot faults ---------------------------------------

    def script(
        self, side: str, frame_index: int, kind: str,
        conn_index: Optional[int] = 0,
    ) -> "FaultSchedule":
        """Force ``kind`` on exactly one frame of one connection
        (``conn_index=None``: of whichever connection of ``side`` sends
        frame ``frame_index`` first)."""
        self._check(side, kind)
        with self._lock:
            self._scripted[(side, conn_index, frame_index)] = kind
        return self

    def script_range(
        self, side: str, start_index: int, kind: str, conn_index: int = 0
    ) -> "FaultSchedule":
        """Force ``kind`` on every frame from ``start_index`` onward."""
        self._check(side, kind)
        with self._lock:
            self._ranges.setdefault((side, conn_index), []).append(
                (start_index, kind)
            )
        return self

    @staticmethod
    def _check(side: str, kind: str) -> None:
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")

    # -- per-connection decision streams --------------------------------

    def profile_for(self, side: str) -> FaultProfile:
        return self.accept_side if side == "accept" else self.connect_side

    def rng_for(self, side: str, conn_index: int) -> random.Random:
        """A fresh, deterministic PRNG for one connection endpoint."""
        return random.Random(f"{self.seed}/{side}/{conn_index}")

    def scripted_fault(
        self, side: str, conn_index: int, frame_index: int
    ) -> Optional[str]:
        with self._lock:
            kind = self._scripted.get((side, conn_index, frame_index))
            if kind is None:
                kind = self._scripted.pop((side, None, frame_index), None)
            if kind is not None:
                return kind
            for start, range_kind in self._ranges.get((side, conn_index), ()):
                if frame_index >= start:
                    return range_kind
        return None


class FaultyConnection(Connection):
    """Wraps a connection endpoint, injecting faults on its outbound frames.

    ``applied`` records every injected fault as ``(frame_index, kind)`` --
    the object determinism tests compare across runs.
    """

    def __init__(
        self,
        inner: Connection,
        schedule: FaultSchedule,
        side: str,
        conn_index: int,
        stats: FaultStats,
    ):
        self._inner = inner
        self._schedule = schedule
        self._side = side
        self._conn_index = conn_index
        self._profile = schedule.profile_for(side)
        self._rng = schedule.rng_for(side, conn_index)
        self._stats = stats
        self._send_index = 0
        self._held: Optional[bytes] = None  # reordered frame awaiting release
        self._fault_lock = threading.Lock()
        self.applied: List[Tuple[int, str]] = []

    @property
    def side(self) -> str:
        return self._side

    @property
    def conn_index(self) -> int:
        return self._conn_index

    def _plan(self, index: int) -> List[str]:
        scripted = self._schedule.scripted_fault(self._side, self._conn_index, index)
        if scripted is not None:
            return [scripted]
        profile = self._profile
        if profile.is_transparent:
            return []
        faults = []
        # One PRNG draw per configured fault kind, in fixed order -- the
        # decision sequence depends only on (seed, side, conn_index) and the
        # order frames are offered to this endpoint.
        for kind in FAULT_KINDS:
            p = getattr(profile, kind)
            if p and self._rng.random() < p:
                faults.append(kind)
        return faults

    def _release_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self._inner.send_frame(held)

    def send_frame(self, frame: Frame) -> None:
        frame = join_frame(frame)
        with self._fault_lock:
            index = self._send_index
            self._send_index += 1
            self._stats.bump_sent()
            faults = self._plan(index)
            for kind in faults:
                self.applied.append((index, kind))
                self._stats.bump(kind)
            if "disconnect" in faults:
                self._held = None
                self._inner.close()
                raise ConnectionClosed(
                    f"fault injection: disconnect at frame {index}"
                )
            if "drop" in faults:
                # the dropped frame still advances the line; release any
                # held (reordered) frame so it is not stuck forever
                self._release_held()
                return
            if "truncate" in faults:
                frame = bytes(frame[: len(frame) // 2])
            if "delay" in faults:
                time.sleep(self._profile.delay_by)
            if "reorder" in faults and self._held is None:
                self._held = bytes(frame)
                return
            self._inner.send_frame(frame)
            if "dup" in faults:
                self._inner.send_frame(frame)
            self._release_held()

    def recv_frame(self, timeout: Optional[float] = None) -> Optional[bytes]:
        return self._inner.recv_frame(timeout=timeout)

    def close(self) -> None:
        with self._fault_lock:
            self._held = None
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class FaultyListener(Listener):
    """Wraps a listener; accepted connections get ``accept``-side faults."""

    def __init__(self, inner: Listener, transport: "FaultyTransport"):
        self._inner = inner
        self._transport = transport

    @property
    def address(self) -> Tuple:
        return self._inner.address

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        connection = self._inner.accept(timeout=timeout)
        if connection is None:
            return None
        return self._transport._wrap(connection, "accept")

    def close(self) -> None:
        self._inner.close()


class FaultyTransport(Transport):
    """A transport decorator injecting scheduled faults on every connection.

    Either pass a full :class:`FaultSchedule`, or use the shorthand keyword
    probabilities (applied symmetrically to both directions)::

        FaultyTransport(TcpTransport(), drop=0.2, dup=0.1, seed=42)

    With no arguments it wraps a fresh :class:`InprocTransport` and injects
    nothing.
    """

    def __init__(
        self,
        inner: Optional[Transport] = None,
        schedule: Optional[FaultSchedule] = None,
        *,
        seed: int = 0,
        drop: float = 0.0,
        dup: float = 0.0,
        delay: float = 0.0,
        reorder: float = 0.0,
        truncate: float = 0.0,
        disconnect: float = 0.0,
        delay_by: float = 0.005,
    ):
        self.inner = inner if inner is not None else InprocTransport()
        if schedule is None:
            profile = FaultProfile(
                drop=drop,
                dup=dup,
                delay=delay,
                reorder=reorder,
                truncate=truncate,
                disconnect=disconnect,
                delay_by=delay_by,
            )
            schedule = FaultSchedule.symmetric(profile, seed=seed)
        self.schedule = schedule
        self.stats = FaultStats()
        self._counters = {"accept": 0, "connect": 0}
        self._lock = threading.Lock()
        self.connections: List[FaultyConnection] = []

    def _wrap(self, connection: Connection, side: str) -> FaultyConnection:
        with self._lock:
            index = self._counters[side]
            self._counters[side] = index + 1
        wrapped = FaultyConnection(connection, self.schedule, side, index, self.stats)
        with self._lock:
            self.connections.append(wrapped)
        return wrapped

    def listen(self) -> Listener:
        return FaultyListener(self.inner.listen(), self)

    def connect(self, address: Tuple) -> Connection:
        return self._wrap(self.inner.connect(address), "connect")


# -- serving a faulty transport from a LogServerEndpoint -------------------


def _pump(source: Connection, sink: Connection) -> None:
    """Forward frames from ``source`` to ``sink`` until either end
    closes, then close both."""
    try:
        while not (source.closed or sink.closed):
            frame = source.recv_frame(timeout=0.1)
            if frame is not None:
                sink.send_frame(frame)
    except TransportError:
        pass
    finally:
        source.close()
        sink.close()


class _RelayListener(Listener):
    """Accepts from ``inner`` and hands out the far end of a socket pair
    whose near end is relayed both ways to the accepted connection, so
    the frames the far end's owner sends still pass the accepted
    connection's faults."""

    def __init__(self, inner: Listener):
        self._inner = inner

    @property
    def address(self) -> Tuple:
        return self._inner.address

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        connection = self._inner.accept(timeout=timeout)
        if connection is None:
            return None
        near, far = connection_pair()
        for source, sink in ((connection, near), (near, connection)):
            threading.Thread(
                target=_pump, args=(source, sink), name="fault-relay", daemon=True
            ).start()
        return far

    def close(self) -> None:
        self._inner.close()


class RelayedTransport(Transport):
    """``inner`` as a :class:`~repro.core.remote.LogServerEndpoint` can
    serve it.

    The endpoint serves only connections that carry a socket, and a
    :class:`FaultyConnection` does not; this transport's listener relays
    each accepted one onto a socket pair.  Connections made through
    ``inner`` (the clients') are unchanged.
    """

    def __init__(self, inner: Transport):
        self.inner = inner

    def listen(self) -> Listener:
        return _RelayListener(self.inner.listen())

    def connect(self, address: Tuple) -> Connection:
        return self.inner.connect(address)
