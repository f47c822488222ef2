"""The six workloads: what each sets up, drives, and checks.

Three shapes cover six names (the table is :data:`WORKLOADS`):

* :class:`PubSub` -- one publisher, one subscriber, both logging through
  their own ``RemoteLogger``; open loop at a fixed rate
  (``pubsub_steering``, ``pubsub_image``);
* :class:`Ingest` -- one client in a closed loop of acknowledged 64-entry
  batches, optionally beside an open-loop proof reader
  (``ingest_batched``, ``ingest_with_reads``);
* :class:`Audit` -- repeated full audits of a seeded, partly tampered
  corpus (``audit_rsa``, ``audit_ed25519``).

Every workload talks to the same spine: ``LogServer`` over
``DurableLogStore(fsync="always")``, behind a TCP ``LogServerEndpoint``
where the load arrives over the wire, all at library defaults.  Inputs
derive from the seed; key pairs are fixed (they are the fixture's
identity, and seeded RSA key generation time varies 2x with the seed,
which would leak into ``setup_s``).
"""

from __future__ import annotations

import os
import random
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.audit import Auditor
from repro.core.adlp_protocol import AdlpProtocol
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.policy import AdlpConfig
from repro.core.protocol import message_digest
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.crypto.hashchain import GENESIS, chain_digest
from repro.crypto.keys import KeyPair, generate_keypair
from repro.crypto.merkle import MerkleFrontier
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes
from repro.middleware.transport import TcpTransport
from repro.storage.durable_store import DurableLogStore

from .tracing import TracedLogServer, TracedProtocol, TracedSink, TracedStore, Tracer

PUB, SUB = "/pub", "/sub"
TOPIC = "/spine"
KEY_SEEDS = {"pub": 31337, "sub": 31338, "logger": 31339}

#: An open-loop operation not completed this long after it was due has failed.
OP_TIMEOUT_S = 10.0

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "pubsub_steering": dict(
        kind="pubsub", loop="open", rate_hz=100.0, payload_bytes=20,
        payload_pool=0, warmup=20,
    ),
    "pubsub_image": dict(
        kind="pubsub", loop="open", rate_hz=20.0, payload_bytes=921641,
        payload_pool=4, warmup=4,
    ),
    "ingest_batched": dict(
        kind="ingest", loop="closed", clients=1, batch=64, pool_batches=128,
        signed_pairs=128, payload_bytes=20, warmup_batches=4, reads_hz=0.0,
        rss_at_entries=40_000,
    ),
    "ingest_with_reads": dict(
        kind="ingest", loop="closed+open", clients=1, batch=64, pool_batches=128,
        signed_pairs=128, payload_bytes=20, warmup_batches=4, reads_hz=10.0,
        rss_at_entries=40_000,
    ),
    "audit_rsa": dict(
        kind="audit", loop="closed", clients=1, scheme="rsa", transmissions=1000,
        plan_size=1000, prefix=100, payload_bytes=8705, tamper_share=0.01,
    ),
    "audit_ed25519": dict(
        kind="audit", loop="closed", clients=1, scheme="ed25519", transmissions=100,
        plan_size=1000, prefix=100, payload_bytes=8705, tamper_share=0.01,
    ),
}

#: ``--smoke``: same code paths and oracles, every workload under 2 s.
SMOKE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "pubsub_steering": dict(warmup=5),
    "pubsub_image": dict(warmup=2),
    "ingest_batched": dict(pool_batches=16, signed_pairs=32),
    "ingest_with_reads": dict(pool_batches=16, signed_pairs=32),
    "audit_rsa": dict(transmissions=60, plan_size=60, prefix=10),
    "audit_ed25519": dict(transmissions=10, plan_size=60, prefix=10),
}


def workload_params(name: str, smoke: bool = False) -> Dict[str, Any]:
    params = dict(WORKLOADS[name])
    if smoke:
        params.update(SMOKE_OVERRIDES[name])
    return params


class OracleError(Exception):
    """The program's output was wrong; the run fails and reports nothing."""


@dataclass
class Measurement:
    """What one timed window produced (times in seconds)."""

    ops: int = 0  # operations attempted: publications / entries / entries
    failed: int = 0
    latency: List[float] = field(default_factory=list)
    evidence: List[float] = field(default_factory=list)
    #: ``(finish time, ops finished)`` in time order, for slice throughput
    completions: List[Tuple[float, int]] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    user_bytes: int = 0
    stored_bytes: int = 0
    lateness: List[float] = field(default_factory=list)
    #: sample sets under the names later issues cite (deliver, logged, ...)
    named: Dict[str, List[float]] = field(default_factory=dict)
    #: exact counts read from the program's own public counters
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


def fixed_keypair(role: str, scheme: str = "rsa") -> KeyPair:
    return generate_keypair(1024, seed=KEY_SEEDS[role], scheme=scheme)


def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sleep_until(due: float) -> float:
    """Sleep until ``due`` (perf_counter time); returns how late we woke."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, time.perf_counter() - due)


class Spine:
    """The trusted logger every workload drives, at library defaults."""

    def __init__(self, path: str, tracer: Optional[Tracer] = None,
                 signer=None, listen: bool = True):
        store = DurableLogStore(path, fsync="always")
        self.endpoint: Optional[LogServerEndpoint] = None
        self.loggers: List[RemoteLogger] = []
        try:
            self.server = LogServer(
                TracedStore(store, tracer) if tracer else store, signer=signer
            )
        except BaseException:
            store.close()
            raise
        #: what the endpoint serves and the auditor reads
        self.front = TracedLogServer(self.server, tracer) if tracer else self.server
        if listen:
            self.endpoint = LogServerEndpoint(self.front)

    def logger(self) -> RemoteLogger:
        logger = RemoteLogger(self.endpoint.address)
        self.loggers.append(logger)
        return logger

    def counters(self) -> Dict[str, float]:
        """Loss and refusal counters of every client stub and the endpoint."""
        out: Dict[str, float] = defaultdict(float)
        for logger in self.loggers:
            stats = logger.stats()
            for counter in ("dropped", "spilled", "late_replies_discarded"):
                out[f"remote_{counter}"] += stats.get(counter, 0)
            out["remote_busy_responses"] += logger.busy_responses
            out["remote_shed_entries"] += logger.shed_entries
        if self.endpoint is not None:
            out["endpoint_rejected"] = self.endpoint.rejected
        return out

    def close(self) -> None:
        for logger in self.loggers:
            logger.close()
        self.loggers = []
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
        self.server.close()


class Workload:
    """Set-up, one timed window, oracles, teardown."""

    def __init__(self, name: str, params: Dict[str, Any], seed: int, workdir: str,
                 tracer: Optional[Tracer] = None, inject: Optional[str] = None):
        self.name = name
        self.params = params
        self.seed = seed
        self.store_dir = os.path.join(workdir, "store")
        self.traced = tracer is not None
        # an idle tracer keeps the generators free of "if traced" forks
        self.tracer = tracer or Tracer()
        self.inject = inject
        self.spine: Optional[Spine] = None

    def _build_spine(self, **options) -> Spine:
        return Spine(self.store_dir, self.tracer if self.traced else None, **options)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def verify(self, measurement: Measurement) -> None:
        """Drain, check every oracle, close the store and size it."""
        raise NotImplementedError

    def blocking_path(self) -> List[Tuple[str, Optional[str], bool]]:
        """Spans on the path :meth:`blocking_samples` waits for (see
        ``SpanTable.blocking_self_time``)."""
        raise NotImplementedError

    def blocking_samples(self, measurement: Measurement) -> List[float]:
        """The latency samples the blocking path explains."""
        return measurement.latency

    def close(self) -> None:
        if self.spine is not None:
            self.spine.close()
            self.spine = None

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise OracleError(f"{self.name}: {message}")


# ---------------------------------------------------------------------------
# pubsub_steering, pubsub_image
# ---------------------------------------------------------------------------


class PubSub(Workload):
    """1 publisher -> 1 subscriber over TCP, open loop at ``rate_hz``."""

    _nodes: Tuple[Node, ...] = ()

    def setup(self) -> None:
        params = self.params
        rng = random.Random(self.seed)
        pool = params["payload_pool"]
        self._pool = [rng.randbytes(params["payload_bytes"]) for _ in range(pool)]
        self._rng = rng  # steering: a fresh payload per publication
        self._payloads: Dict[int, bytes] = {}
        self._delivered: List[Tuple[int, float, bool]] = []
        self._logged: Dict[Tuple[int, int], float] = {}
        self._due: Dict[int, float] = {}
        self._nodes = []
        self._protocols: Dict[str, AdlpProtocol] = {}

        self.spine = self._build_spine()
        self.spine.server.add_observer(self._on_logged)
        master = Master(transport=TcpTransport())
        config = AdlpConfig(signature_scheme="rsa")
        for component, role in ((PUB, "pub"), (SUB, "sub")):
            sink: Any = self.spine.logger()
            if self.traced:
                sink = TracedSink(sink, self.tracer)
            protocol: Any = AdlpProtocol(
                component, sink, config=config, keypair=fixed_keypair(role)
            )
            self._protocols[component] = protocol
            if self.traced:
                protocol = TracedProtocol(protocol, self.tracer)
            self._nodes.append(Node(component, master, protocol=protocol))
        pub_node, sub_node = self._nodes
        sub_node.subscribe(TOPIC, RawBytes, self._on_message)
        # As much traffic as an operation may take before it has failed: a
        # shorter host stall delays frames (and shows in the latencies)
        # instead of dropping them.
        self._publisher = pub_node.advertise(
            TOPIC, RawBytes, queue_size=round(params["rate_hz"] * OP_TIMEOUT_S)
        )
        if not self._publisher.wait_for_subscribers(1, timeout=OP_TIMEOUT_S):
            raise RuntimeError("subscriber never connected")
        for _ in range(params["warmup"]):
            self._publish()
        if not self._drain(params["warmup"]):
            raise RuntimeError("warm-up publications were not delivered and logged")

    def _payload(self, seq: int) -> bytes:
        if self._pool:
            return self._pool[seq % len(self._pool)]
        return self._payloads[seq]

    def _publish(self) -> int:
        seq = self._publisher.last_seq + 1
        if not self._pool:
            self._payloads[seq] = self._rng.randbytes(self.params["payload_bytes"])
        with self.tracer.span("publish", "middleware", (PUB, TOPIC, seq)):
            published = self._publisher.publish(RawBytes(data=self._payload(seq)))
        assert published == seq
        return seq

    def _on_message(self, msg: RawBytes) -> None:
        now = time.perf_counter()
        seq = msg.header.seq
        self._delivered.append((seq, now, msg.data == self._payload(seq)))

    def _on_logged(self, entry: LogEntry) -> None:
        self._logged[(entry.seq, int(entry.direction))] = time.perf_counter()

    def _drain(self, total: int) -> bool:
        """Wait until ``total`` publications are delivered and both their
        entries are at the ``LogServer``."""
        deadline = time.perf_counter() + OP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if len(self._delivered) >= total and len(self._logged) >= 2 * total:
                return True
            time.sleep(0.002)
        return False

    def run(self, seconds: float) -> Measurement:
        rate = self.params["rate_hz"]
        count = max(1, round(rate * seconds))
        first = self._publisher.last_seq + 1
        m = Measurement(ops=count)
        self.tracer.recording = self.traced
        cpu0 = time.process_time()
        start = time.perf_counter() + 0.02
        for i in range(count):
            due = start + i / rate
            m.lateness.append(_sleep_until(due))
            self._due[self._publish()] = due
        self._drain(first - 1 + count)
        m.cpu_s = time.process_time() - cpu0
        m.peak_rss_mb = peak_rss_mb()
        self.tracer.recording = False

        arrived = {seq: (at, same) for seq, at, same in self._delivered}
        deliver, logged = [], []
        for seq in range(first, first + count):
            due = self._due[seq]
            at, same = arrived.get(seq, (None, False))
            out = self._logged.get((seq, int(Direction.OUT)))
            into = self._logged.get((seq, int(Direction.IN)))
            if at is None or not same or out is None or into is None:
                m.failed += 1  # dropped by queue_size, late, or altered
                continue
            deliver.append(at - due)
            logged.append(max(out, into) - due)
            m.completions.append((at, 1))
        m.latency, m.evidence = deliver, logged
        m.named = {"deliver": deliver, "logged": logged}
        m.user_bytes = self.params["payload_bytes"] * (first - 1 + count)
        stats = {c: p.stats() for c, p in self._protocols.items()}
        m.counters.update({
            "signatures": sum(s["signatures"] for s in stats.values()),
            "retransmits": sum(s["retransmits"] for s in stats.values()),
            "ack_timeouts": sum(s["ack_timeouts"] for s in stats.values()),
            "logging_dropped": sum(p.logging_thread.dropped for p in self._protocols.values()),
            "publisher_dropped": self._publisher.stats.dropped,
            "published_total": first - 1 + count,
            "entries_stored": 2 * (first - 1 + count),
        })
        return m

    def verify(self, m: Measurement) -> None:
        total = int(m.counters["published_total"])
        for protocol in self._protocols.values():
            self._require(protocol.flush(OP_TIMEOUT_S), "logging thread did not drain")
        seqs = [seq for seq, _, _ in self._delivered]
        self._require(
            seqs == list(range(1, total + 1)),
            "publications not delivered exactly once, in order: "
            f"{len(seqs)} deliveries of {total}, {len(set(seqs))} distinct, "
            f"{self._publisher.stats.dropped} dropped by queue_size",
        )
        self._require(all(same for _, _, same in self._delivered),
                      "a delivered payload is not byte-identical")
        server = self.spine.server
        self._require(len(server) == 2 * total,
                      f"log holds {len(server)} entries, expected {2 * total}")
        server.verify_integrity()
        report = Auditor.for_server(server).audit_server(server)
        self._require(
            len(report.valid_entries()) == 2 * total
            and not report.invalid_entries() and not report.hidden,
            "audit of an honest run is not all-valid",
        )
        for component, protocol in self._protocols.items():
            signed = protocol.stats()["signatures"]
            self._require(signed == total,
                          f"{component} signed {signed}x for {total} publications")
        m.counters.update(self.spine.counters())
        self.close()
        m.stored_bytes = directory_bytes(self.store_dir)

    def blocking_path(self):
        return [
            ("publish", None, True),
            ("send_frame", "on_link_send", True),
            ("on_frame", None, True),
            ("decode:RawBytes", "ROOT", True),
        ]

    def close(self) -> None:
        for node in self._nodes:
            node.shutdown()
        self._nodes = []
        super().close()


# ---------------------------------------------------------------------------
# ingest_batched, ingest_with_reads
# ---------------------------------------------------------------------------


class Ingest(Workload):
    """Closed loop of ``submit_batch_sync(64 entries)`` on one connection;
    with ``reads_hz`` a second connection proves inclusion beside it.

    A time-sized closed loop ingests as many entries as the host manages,
    and resident memory is proportional to them (~1.7 KB each), so the peak
    RSS is read when the log holds ``rss_at_entries`` -- memory for a fixed
    log size, not a second throughput metric.
    """

    def setup(self) -> None:
        params = self.params
        rng = random.Random(self.seed)
        pub, sub = fixed_keypair("pub"), fixed_keypair("sub")
        # The window signs nothing: a pool of real subscriber entries is
        # signed and encoded here and replayed in a cycle.  ADLP signs
        # h(seq || D), not the topic, so one signed (seq, D) pair is a
        # valid entry under every topic name in the pool.
        pairs = []
        for seq in range(1, params["signed_pairs"] + 1):
            digest = message_digest(seq, rng.randbytes(params["payload_bytes"]))
            pairs.append((seq, digest, sub.private.sign_digest(digest),
                          pub.private.sign_digest(digest)))
        batch = params["batch"]
        records: List[bytes] = []
        for index in range(params["pool_batches"] * batch):
            seq, digest, own_sig, peer_sig = pairs[index % len(pairs)]
            records.append(LogEntry(
                component_id=SUB, topic=f"/t{index // len(pairs)}",
                type_name=RawBytes.TYPE_NAME, direction=Direction.IN, seq=seq,
                timestamp=1.6e9 + index, scheme=Scheme.ADLP, data_hash=digest,
                own_sig=own_sig, peer_id=PUB, peer_sig=peer_sig,
            ).encode())
        self._pool = [records[i:i + batch] for i in range(0, len(records), batch)]
        self._cursor = 0  # batches submitted so far
        self._read_rng = random.Random(self.seed + 1)
        self._reader: Optional[RemoteLogger] = None

        reads = params["reads_hz"] > 0
        self._logger_key = fixed_keypair("logger") if reads else None
        self.spine = self._build_spine(
            signer=self._logger_key.private if reads else None
        )
        self._writer = self.spine.logger()
        self._writer.register_key(PUB, pub.public)
        self._writer.register_key(SUB, sub.public)
        for _ in range(params["warmup_batches"]):
            if not self._submit():
                raise RuntimeError("warm-up batch was not acknowledged")
        if reads:
            self._reader = self.spine.logger()
            self._prove(time.perf_counter())

    def _submit(self) -> bool:
        batch = self._pool[self._cursor % len(self._pool)]
        with self.tracer.span("rpc_submit", "remote", ("batch", self._cursor)):
            count = self._writer.submit_batch_sync(batch)
        self._cursor += 1
        return count == self._cursor * len(batch)

    def _record_at(self, index: int) -> bytes:
        batch = self.params["batch"]
        return self._pool[(index // batch) % len(self._pool)][index % batch]

    def _prove(self, due: float) -> Tuple[float, bool]:
        """Fetch a signed tree head and an inclusion proof for a seeded
        index and verify both; returns (latency from ``due``, correct)."""
        with self.tracer.span("rpc_prove", "remote"):
            sth = self._reader.fetch_sth(timeout=OP_TIMEOUT_S)
            index = self._read_rng.randrange(sth.entries)
            proof = self._reader.prove_inclusion(
                index, tree_size=sth.entries, timeout=OP_TIMEOUT_S
            )
            record = self._record_at(index)
            root = bytes(sth.merkle_root)
            good = sth.verify(self._logger_key.public) and proof.verify(record, root)
        latency = time.perf_counter() - due
        # outside the timed part: the same proof must refuse a wrong leaf
        return latency, good and not proof.verify(record + b"\x00", root)

    def _read_loop(self, start: float, end: float, m: Measurement) -> None:
        period = 1.0 / self.params["reads_hz"]
        due = start + period / 2
        while due < end:
            m.lateness.append(_sleep_until(due))
            try:
                latency, correct = self._prove(due)
            except Exception:
                latency, correct = OP_TIMEOUT_S, False
            m.counters["proofs"] += 1
            if correct and latency < OP_TIMEOUT_S:
                m.evidence.append(latency)
            else:
                m.counters["proofs_failed"] += 1
            due += period

    def run(self, seconds: float) -> Measurement:
        batch = self.params["batch"]
        m = Measurement()
        self.tracer.recording = self.traced
        cpu0 = time.process_time()
        start = time.perf_counter()
        end = start + seconds
        reader = None
        if self._reader is not None:
            reader = threading.Thread(
                target=self._read_loop, args=(start, end, m), name="spine-reader"
            )
            reader.start()
        try:
            while time.perf_counter() < end:
                began = time.perf_counter()
                try:
                    acked = self._submit()
                except Exception:
                    acked = False
                done = time.perf_counter()
                m.ops += batch
                if acked:
                    m.latency.append(done - began)
                    m.completions.append((done, batch))
                else:
                    m.failed += batch
                if not m.peak_rss_mb and self._cursor * batch >= self.params["rss_at_entries"]:
                    m.peak_rss_mb = peak_rss_mb()
        finally:
            if reader is not None:
                reader.join(OP_TIMEOUT_S * 3)
        m.cpu_s = time.process_time() - cpu0
        self.tracer.recording = False
        m.peak_rss_mb = m.peak_rss_mb or peak_rss_mb()  # a window too short to get there
        m.failed += int(m.counters["proofs_failed"])
        m.named = {"batch_ack": m.latency}
        if self._reader is not None:
            m.named["prove"] = m.evidence
        else:
            m.evidence = m.latency  # acknowledged == durable: same instant
        entries = self._cursor * batch
        m.user_bytes = self.params["payload_bytes"] * entries
        m.counters["entries_stored"] = entries
        return m

    def verify(self, m: Measurement) -> None:
        batch = self.params["batch"]
        entries = self._cursor * batch
        head, frontier = GENESIS, MerkleFrontier()
        for index in range(self._cursor):
            for record in self._pool[index % len(self._pool)]:
                head = chain_digest(head, record)
                frontier.append(record)
        reference = (entries, head, frontier.root())

        def commitment(server: LogServer):
            c = server.commitment()
            return (c.entries, c.chain_head, c.merkle_root)

        self._require(commitment(self.spine.server) == reference,
                      "live log disagrees with the reference chain head / Merkle root")
        m.counters.update(self.spine.counters())
        self._require(m.counters["proofs_failed"] == 0,
                      "an inclusion proof failed, or verified a wrong leaf")
        self.close()
        m.stored_bytes = directory_bytes(self.store_dir)
        if self.inject == "drop_acked_entry":
            _tear_last_record(self.store_dir)
        began = time.perf_counter()
        try:
            reopened = LogServer(DurableLogStore(self.store_dir, fsync="always"))
        except Exception as exc:
            raise OracleError(f"{self.name}: store does not re-open: {exc}") from exc
        m.counters["recover_s"] = time.perf_counter() - began
        try:
            self._require(commitment(reopened) == reference,
                          "re-opened store lost acknowledged entries or changed its commitments")
        finally:
            reopened.close()

    def blocking_samples(self, m: Measurement) -> List[float]:
        return m.named.get("prove", m.latency)

    def blocking_path(self):
        if self._reader is not None:
            return [
                ("rpc_prove", None, False),  # its own self time is the wait
                ("signed_tree_head", None, True),
                ("prove_inclusion", None, True),
            ]
        return [
            ("rpc_submit", None, False),  # its own self time is the wait
            ("submit", "ROOT", True),
            ("decode:LoggerRequest", "ROOT", True),
            ("encode:LoggerResponse", "ROOT", True),
        ]


def _tear_last_record(store_dir: str) -> None:
    """Oracle self-test: cut the tail off the newest WAL segment, so the
    last acknowledged entry no longer survives a re-open."""
    wal = os.path.join(store_dir, "wal")
    last = os.path.join(wal, sorted(os.listdir(wal))[-1])
    with open(last, "r+b") as handle:
        handle.truncate(os.path.getsize(last) - 8)


# ---------------------------------------------------------------------------
# audit_rsa, audit_ed25519
# ---------------------------------------------------------------------------

HONEST, FALSIFY_PUB, HIDE_SUB, HIDE_PUB = "honest", "falsify_pub", "hide_sub", "hide_pub"

#: what the auditor must say per kind: (publisher entry, subscriber entry,
#: component proven to have hidden its entry)
EXPECTED = {
    HONEST: ("valid:consistent_pair", "valid:consistent_pair", None),
    FALSIFY_PUB: ("invalid:falsified_data", "valid:counterpart_ack", None),
    HIDE_SUB: ("valid:counterpart_ack", None, SUB),
    HIDE_PUB: (None, "valid:counterpart_ack", PUB),
}


def tamper_plan(seed: int, plan_size: int, prefix: int, share: float) -> Dict[int, str]:
    """Seeded ``transmission index -> tamper kind``.  Drawn over
    ``plan_size`` whatever the corpus length, so a shorter corpus is a
    prefix of a longer one.  The first of each kind falls inside
    ``prefix`` and every other beyond it, so each scheme's corpus sees all
    three and the verdict counts do not change with the seed."""
    rng = random.Random(seed + 2)
    kinds = (FALSIFY_PUB, HIDE_SUB, HIDE_PUB)
    wanted = max(len(kinds), round(share * plan_size))
    plan: Dict[int, str] = {}
    while len(plan) < wanted:
        if len(plan) < len(kinds):
            index = rng.randrange(prefix)
        else:
            index = rng.randrange(prefix, plan_size)
        if index not in plan:
            plan[index] = kinds[len(plan) % len(kinds)]
    return plan


class Audit(Workload):
    """Full audits of a seeded corpus, a fresh ``Auditor`` each pass."""

    def setup(self) -> None:
        params = self.params
        scheme = params["scheme"]
        pub, sub = fixed_keypair("pub", scheme), fixed_keypair("sub", scheme)
        rng = random.Random(self.seed)
        plan = tamper_plan(self.seed, params["plan_size"], params["prefix"],
                           params["tamper_share"])
        count = params["transmissions"]
        self._kinds = [plan.get(index, HONEST) for index in range(count)]
        entries: List[LogEntry] = []
        for index, kind in enumerate(self._kinds):
            seq = index + 1
            data = rng.randbytes(params["payload_bytes"])
            digest = message_digest(seq, data)
            s_x, s_y = pub.private.sign_digest(digest), sub.private.sign_digest(digest)
            claimed, claimed_sig = data, s_x
            if kind == FALSIFY_PUB:
                # the publisher logs (and signs) data it never sent
                claimed = rng.randbytes(params["payload_bytes"])
                claimed_sig = pub.private.sign_digest(message_digest(seq, claimed))
            if kind != HIDE_PUB:
                entries.append(LogEntry(
                    component_id=PUB, topic=TOPIC, type_name="sensors/LaserScan",
                    direction=Direction.OUT, seq=seq, timestamp=1.6e9 + seq,
                    scheme=Scheme.ADLP, data=claimed, own_sig=claimed_sig,
                    peer_id=SUB, peer_hash=digest, peer_sig=s_y,
                ))
            if kind != HIDE_SUB:
                entries.append(LogEntry(
                    component_id=SUB, topic=TOPIC, type_name="sensors/LaserScan",
                    direction=Direction.IN, seq=seq, timestamp=1.6e9 + seq + 0.5,
                    scheme=Scheme.ADLP, data_hash=digest, own_sig=s_y,
                    peer_id=PUB, peer_sig=s_x,
                ))
        if self.inject == "flip_verdict":
            # oracle self-test: one honest subscriber entry stops verifying
            victim = next(e for e in entries
                          if e.component_id == SUB and self._kinds[e.seq - 1] == HONEST)
            victim.own_sig = bytes(len(victim.own_sig))
        self._entries = len(entries)
        self._truth = [(i + 1,) + EXPECTED[kind] for i, kind in enumerate(self._kinds)]
        self._truth_components = self._count_components(self._truth)
        self._mismatched_passes = 0
        self._last_summary: List[tuple] = []

        self.spine = self._build_spine(listen=False)
        server = self.spine.server
        server.register_key(PUB, pub.public)
        server.register_key(SUB, sub.public)
        for start in range(0, len(entries), 64):
            server.submit_batch(entries[start:start + 64])
        self._audit_pass()  # warm-up: imports, caches, first touch of the WAL

    def _audit_pass(self):
        target = self.spine.front
        with self.tracer.span("audit_pass", "audit"):
            return Auditor.for_server(target).audit_server(target)

    def _summary(self, report) -> List[tuple]:
        """Per transmission: (seq, publisher verdict, subscriber verdict,
        component with a hidden entry)."""
        seen: Dict[int, Dict[str, str]] = defaultdict(dict)
        for item in report.classified:
            reasons = "+".join(reason.value for reason in item.reasons)
            seen[item.entry.seq][item.entry.component_id] = f"{item.verdict.value}:{reasons}"
        for hidden in report.hidden:
            seen[hidden.transmission.seq]["hidden"] = hidden.component_id
        return [
            (seq, seen[seq].get(PUB), seen[seq].get(SUB), seen[seq].get("hidden"))
            for seq in range(1, len(self._kinds) + 1)
        ]

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        self.tracer.recording = self.traced
        end = time.perf_counter() + seconds
        audited_s = 0.0  # pass time only: the checks between passes are not the window
        while True:
            cpu0 = time.process_time()
            began = time.perf_counter()
            report = self._audit_pass()
            done = time.perf_counter()
            m.cpu_s += time.process_time() - cpu0
            m.ops += self._entries
            m.latency.append(done - began)
            audited_s += done - began
            m.completions.append((audited_s, self._entries))
            # checked between passes, outside the timed part
            self.tracer.recording = False
            self._last_summary = self._summary(report)
            components = {
                cid: (v.valid_entries, v.invalid_entries, v.hidden_entries)
                for cid, v in report.components.items()
            }
            if self._last_summary != self._truth or components != self._truth_components:
                self._mismatched_passes += 1
                m.failed += self._entries
            m.counters["entries_valid"] = len(report.valid_entries())
            m.counters["entries_invalid"] = len(report.invalid_entries())
            m.counters["entries_hidden"] = len(report.hidden)
            if time.perf_counter() >= end:
                break
            self.tracer.recording = self.traced
        m.evidence = m.latency
        m.peak_rss_mb = peak_rss_mb()
        m.named = {"audit_pass": m.latency}
        m.user_bytes = self.params["payload_bytes"] * len(self._kinds)
        m.counters["entries_stored"] = self._entries
        return m

    @staticmethod
    def _count_components(truth: List[tuple]) -> Dict[str, Tuple[int, int, int]]:
        """(valid, invalid, hidden) entries per component."""
        counts = {PUB: [0, 0, 0], SUB: [0, 0, 0]}
        for _, pub_verdict, sub_verdict, hidden in truth:
            for component, verdict in ((PUB, pub_verdict), (SUB, sub_verdict)):
                if verdict is not None:
                    counts[component][0 if verdict.startswith("valid") else 1] += 1
            if hidden is not None:
                counts[hidden][2] += 1
        return {component: tuple(c) for component, c in counts.items()}

    def prefix_verdicts(self) -> List[tuple]:
        """Verdicts on the transmissions both audit workloads share."""
        return self._last_summary[: self.params["prefix"]]

    def verify(self, m: Measurement) -> None:
        self._require(self._mismatched_passes == 0,
                      f"{self._mismatched_passes} audit pass(es) disagree with the seeded ground truth")
        self.close()
        m.stored_bytes = directory_bytes(self.store_dir)

    def blocking_path(self):
        return [("audit_pass", None, True)]


KINDS = {"pubsub": PubSub, "ingest": Ingest, "audit": Audit}


def make_workload(name: str, seed: int, workdir: str, smoke: bool = False,
                  tracer: Optional[Tracer] = None, inject: Optional[str] = None) -> Workload:
    params = workload_params(name, smoke)
    return KINDS[params["kind"]](name, params, seed, workdir, tracer=tracer, inject=inject)
