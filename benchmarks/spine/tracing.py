"""Spans recorded from outside the program under test.

Nothing under ``src/`` knows about tracing.  Spans come from two places,
both in this file:

* **constructor injection** -- delegating wrappers handed to a layer where
  it takes its collaborator as an argument: :class:`TracedStore` to
  ``LogServer``, :class:`TracedLogServer` to ``LogServerEndpoint`` and the
  auditor, :class:`TracedSink` and :class:`TracedProtocol` to
  ``AdlpProtocol`` / ``Node``;
* **leaf wrapping** -- :class:`LeafPatches` rebinds a handful of public
  leaf callables (hash, sign, verify, encode/decode, ``send_frame``,
  chain/Merkle append, ``os.fsync``) for the traced pass only and restores
  them afterwards.

A span is ``(id, parent, name, layer, start, end, thread, trace_id,
value)``.  Parents are per thread (the span open on the same thread when
this one began); ``trace_id`` is the natural ``(component, topic, seq)``
where the wrapper can see it.  Spans stay in memory; :func:`chrome_trace`
writes them once at the end.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.log_store import LogStore
from repro.middleware.transport.base import (
    PublisherProtocol,
    SubscriberProtocol,
    TransportProtocol,
)


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no span was open on this thread
    name: str
    layer: str
    start: float
    end: float
    thread: int
    trace_id: Optional[tuple]
    value: float  # bytes or items the call handled; 0 when not counted


class _Open:
    """Context manager for one span; appended to the tracer on exit."""

    __slots__ = ("_tracer", "_stack", "name", "layer", "trace_id", "value", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, layer: str, trace_id: Optional[tuple]):
        self._tracer = tracer
        self.name = name
        self.layer = layer
        self.trace_id = trace_id
        self.value = 0.0

    def __enter__(self) -> "_Open":
        stack = self._tracer._stack()
        self._stack = stack
        self.parent = stack[-1].id if stack else 0
        self.id = next(self._tracer._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._tracer.spans.append(
            Span(
                self.id, self.parent, self.name, self.layer, self.start, end,
                threading.get_ident(), self.trace_id, self.value,
            )
        )


class _Noop:
    """Stand-in while the tracer is not recording (set-up, oracles)."""

    __slots__ = ("value", "trace_id")

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP = _Noop()


class Tracer:
    """In-memory span recorder; records only while :attr:`recording`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: named raw samples taken at span boundaries (seconds)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Open]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, layer: str, trace_id: Optional[tuple] = None):
        if not self.recording:
            return _NOOP
        return _Open(self, name, layer, trace_id)

    def current_layer(self) -> str:
        """Layer of the span open on this thread ('' if none)."""
        stack = self._stack()
        return stack[-1].layer if stack else ""


# ---------------------------------------------------------------------------
# Constructor-injected wrappers.
# ---------------------------------------------------------------------------


class TracedStore(LogStore):
    """Delegating ``LogStore`` handed to ``LogServer`` (layer ``storage``)."""

    def __init__(self, inner: LogStore, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    # LogServer installs its checkpoint contribution by assigning this
    # attribute on whatever store it was given; forward it to the real one.
    @property
    def checkpoint_extra_provider(self):
        return self._inner.checkpoint_extra_provider

    @checkpoint_extra_provider.setter
    def checkpoint_extra_provider(self, provider) -> None:
        self._inner.checkpoint_extra_provider = provider

    def append(self, record: bytes) -> int:
        with self._tracer.span("append", "storage") as span:
            span.value = 1
            return self._inner.append(record)

    def append_batch(self, records: List[bytes]) -> List[int]:
        with self._tracer.span("append", "storage") as span:
            span.value = len(records)
            return self._inner.append_batch(records)

    def records(self) -> List[bytes]:
        with self._tracer.span("records", "storage"):
            return self._inner.records()

    def verify(self) -> None:
        with self._tracer.span("verify", "storage"):
            self._inner.verify()

    def head(self) -> bytes:
        return self._inner.head()

    def close(self) -> None:
        self._inner.close()

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def total_bytes(self) -> int:
        return self._inner.total_bytes

    def __getattr__(self, name: str) -> Any:
        # recovery info, key journal, checkpoint, merkle_root, ...
        return getattr(self._inner, name)


class TracedLogServer:
    """Delegating ``LogServer`` handed to ``LogServerEndpoint`` and to the
    auditor (layer ``log_server``)."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def submit(self, entry) -> int:
        with self._tracer.span("submit", "log_server") as span:
            span.value = 1
            return self._inner.submit(entry)

    def submit_batch(self, entries) -> List[int]:
        with self._tracer.span("submit", "log_server") as span:
            span.value = len(entries)
            return self._inner.submit_batch(entries)

    def prove_inclusion(self, index: int, tree_size: Optional[int] = None):
        with self._tracer.span("prove_inclusion", "log_server"):
            return self._inner.prove_inclusion(index, tree_size)

    def signed_tree_head(self, timestamp: Optional[float] = None):
        with self._tracer.span("signed_tree_head", "log_server"):
            return self._inner.signed_tree_head(timestamp)

    def entries(self, *args, **kwargs):
        with self._tracer.span("entries", "log_server") as span:
            result = self._inner.entries(*args, **kwargs)
            span.value = len(result)
            return result

    def verify_integrity(self) -> None:
        with self._tracer.span("verify_integrity", "log_server"):
            self._inner.verify_integrity()

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _entry_trace_id(entry) -> Optional[tuple]:
    component = getattr(entry, "component_id", None)
    if component is None:
        return None  # pre-encoded bytes: not decoded just to name a span
    return (component, entry.topic, entry.seq)


class TracedSink:
    """Wraps the ``RemoteLogger`` a node logs through (layer ``remote``).

    Also samples the logging thread's queue wait: an entry's ``timestamp``
    is stamped when the protocol builds it, immediately before it is
    enqueued, so ``now - timestamp`` on entry to the sink is the time the
    entry spent queued in ``LoggingThread``.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def register_key(self, component_id, key) -> None:
        self._inner.register_key(component_id, key)

    def _queue_wait(self, entries) -> None:
        if self._tracer.recording:
            now = time.time()
            waits = self._tracer.samples["logging_thread.queue_wait"]
            waits.extend(now - entry.timestamp for entry in entries)

    def submit(self, entry) -> int:
        self._queue_wait([entry])
        with self._tracer.span("client_submit", "remote", _entry_trace_id(entry)) as span:
            span.value = 1
            return self._inner.submit(entry)

    def submit_batch(self, entries):
        self._queue_wait(entries)
        with self._tracer.span("client_submit", "remote", _entry_trace_id(entries[0])) as span:
            span.value = len(entries)
            return self._inner.submit_batch(entries)

    def stats(self) -> Dict[str, int]:
        return self._inner.stats()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _TracedPublisherProtocol(PublisherProtocol):
    def __init__(self, inner: PublisherProtocol, tracer: Tracer, component: str, topic: str):
        self._inner = inner
        self._tracer = tracer
        self._component = component
        self._topic = topic

    def initial_seq(self) -> int:
        return self._inner.initial_seq()

    def make_frame(self, seq: int, payload: bytes) -> bytes:
        with self._tracer.span("make_frame", "adlp_protocol", (self._component, self._topic, seq)):
            return self._inner.make_frame(seq, payload)

    def on_link_send(self, subscriber_id, connection, seq, frame) -> None:
        with self._tracer.span("on_link_send", "adlp_protocol", (self._component, self._topic, seq)):
            self._inner.on_link_send(subscriber_id, connection, seq, frame)

    def close(self) -> None:
        self._inner.close()


class _TracedSubscriberProtocol(SubscriberProtocol):
    def __init__(self, inner: SubscriberProtocol, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def on_frame(self, publisher_id, connection, frame):
        with self._tracer.span("on_frame", "adlp_protocol"):
            return self._inner.on_frame(publisher_id, connection, frame)

    def close(self) -> None:
        self._inner.close()


class TracedProtocol(TransportProtocol):
    """Wraps the ``AdlpProtocol`` a ``Node`` is built with."""

    name = "adlp"

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        return _TracedPublisherProtocol(
            self._inner.publisher_protocol(topic, type_name),
            self._tracer, self._inner.component_id, topic,
        )

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        return _TracedSubscriberProtocol(
            self._inner.subscriber_protocol(topic, type_name), self._tracer
        )

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


# ---------------------------------------------------------------------------
# Leaf wrapping, traced pass only.
# ---------------------------------------------------------------------------


class LeafPatches:
    """Rebinds public leaf callables to span-recording wrappers.

    Used as a context manager around the traced pass; every binding is
    restored on exit, also when the pass raises.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, layer: str,
              value: Optional[Callable[[tuple, Any], float]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self._tracer

        def traced(*args, **kwargs):
            with tracer.span(name, layer) as span:
                result = original(*args, **kwargs)
                if value is not None:
                    span.value = value(args, result)
                return result

        traced.__name__ = getattr(original, "__name__", attr)
        self._set(owner, attr, traced)

    def __enter__(self) -> "LeafPatches":
        import repro.core.adlp_protocol as adlp_protocol
        import repro.core.protocol as protocol
        from repro.crypto.hashchain import HashChain
        from repro.crypto.keys import PrivateKey, PublicKey
        from repro.crypto.merkle import MerkleFrontier, MerkleTree
        from repro.middleware.transport.tcp import TcpConnection
        from repro.serialization.schema import WireMessage

        tracer = self._tracer
        try:
            # crypto: hash, sign, verify.  ``message_digest`` is imported by
            # name into adlp_protocol, so both bindings are replaced.
            self._wrap(protocol, "message_digest", "hash", "crypto",
                       lambda args, _: len(args[1]))
            self._set(adlp_protocol, "message_digest", protocol.message_digest)
            self._wrap(PrivateKey, "sign_digest", "sign", "crypto")
            self._wrap(PrivateKey, "sign", "sign", "crypto")
            self._wrap(PublicKey, "verify_digest", "verify", "crypto")
            self._wrap(PublicKey, "verify", "verify", "crypto")
            # commitment structures
            self._wrap(HashChain, "append", "chain", "crypto")
            self._wrap(MerkleTree, "append", "merkle", "crypto")
            self._wrap(MerkleTree, "prove", "merkle", "crypto")
            self._wrap(MerkleFrontier, "append", "merkle", "crypto")
            # serialization: one span per encode/decode, named by class
            names: Dict[Tuple[str, type], str] = {}

            def label(kind: str, cls: type) -> str:
                try:
                    return names[(kind, cls)]
                except KeyError:
                    return names.setdefault((kind, cls), f"{kind}:{cls.__name__}")

            encode = WireMessage.encode
            decode = WireMessage.__dict__["decode"].__func__

            def traced_encode(message):
                with tracer.span(label("encode", type(message)), "serialization") as span:
                    raw = encode(message)
                    span.value = len(raw)
                    return raw

            def traced_decode(cls, data):
                with tracer.span(label("decode", cls), "serialization") as span:
                    span.value = len(data)
                    return decode(cls, data)

            self._set(WireMessage, "encode", traced_encode)
            self._set(WireMessage, "decode", classmethod(traced_decode))
            # transport: a frame sent from inside a ``remote`` span is the
            # RemoteLogger's, any other is a publisher/subscriber link's
            send_frame = TcpConnection.send_frame

            def traced_send(connection, frame):
                layer = "remote" if tracer.current_layer() == "remote" else "middleware"
                with tracer.span("send_frame", layer) as span:
                    span.value = len(frame) + 4  # TCPROS length prefix
                    return send_frame(connection, frame)

            self._set(TcpConnection, "send_frame", traced_send)
            # the WAL's (and checkpoint's) fsync
            self._wrap(os, "fsync", "fsync", "storage")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis.
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, children: Iterable[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    intervals = sorted(
        (max(start, c.start), min(end, c.end)) for c in children
    )
    covered = 0.0
    reach = start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that interval
    its child spans cover.  Overlapping children are counted once; a span
    whose parent was never recorded is simply a root."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return {
        span.id: (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


class SpanTable:
    """Aggregates over one traced window."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id = {span.id: span for span in self.spans}
        self.self_time = self_times(self.spans)

    def select(self, layer: Optional[str] = None, name: Optional[str] = None,
               parent_name: Optional[str] = None) -> List[Span]:
        """Spans matching every given filter.  ``parent_name`` matches the
        recorded parent's name; ``"ROOT"`` matches spans without one."""
        out = []
        for span in self.spans:
            if layer is not None and span.layer != layer:
                continue
            if name is not None and span.name != name:
                continue
            if parent_name is not None:
                parent = self.by_id.get(span.parent)
                if parent_name == "ROOT":
                    if parent is not None:
                        continue
                elif parent is None or parent.name != parent_name:
                    continue
            out.append(span)
        return out

    def self_sum(self, spans: Iterable[Span]) -> float:
        return sum(self.self_time[span.id] for span in spans)

    @staticmethod
    def total(spans: Iterable[Span]) -> float:
        return sum(span.end - span.start for span in spans)

    @staticmethod
    def value(spans: Iterable[Span]) -> float:
        return sum(span.value for span in spans)

    def layer_self_times(self, skip: Iterable[str] = ()) -> Dict[str, float]:
        """Self time per ``layer`` and per ``layer.name``, in seconds,
        leaving out spans named in ``skip``."""
        table: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name in skip:
                continue
            own = self.self_time[span.id]
            table[span.layer] += own
            table[f"{span.layer}.{span.name.split(':')[0]}"] += own
        return dict(table)

    def blocking_self_time(self, path: Sequence[Tuple[str, Optional[str], bool]]) -> float:
        """Self time summed over the spans on a blocking path.

        ``path`` lists ``(name, parent_name, include_own_self_time)``; a
        listed span brings all its descendants with it.  A span whose own
        self time is *waiting* for the others (a sync RPC) is listed with
        ``False`` so only what happens under it counts.
        """
        heads: Dict[int, bool] = {}
        for name, parent_name, include_self in path:
            for span in self.select(name=name, parent_name=parent_name):
                heads[span.id] = include_self
        on_path: Dict[int, bool] = {}

        def reaches(span: Span) -> bool:
            known = on_path.get(span.id)
            if known is not None:
                return known
            if span.id in heads:
                result = True
            else:
                parent = self.by_id.get(span.parent)
                result = parent is not None and reaches(parent)
            on_path[span.id] = result
            return result

        total = 0.0
        for span in self.spans:
            if reaches(span) and heads.get(span.id, True):
                total += self.self_time[span.id]
        return total


def chrome_trace(spans: Sequence[Span], path: str) -> None:
    """Write ``spans`` as Chrome trace-event JSON (open in Perfetto)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(span.start for span in spans)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 1,
            "tid": span.thread,
            "args": {
                "id": span.id,
                "parent": span.parent,
                "trace_id": list(span.trace_id) if span.trace_id else None,
                "value": span.value,
            },
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
