"""The churn x fault x overload scenario matrix.

Every overload-protection mechanism in this package -- admission control,
credit windows, retry budgets, shedding -- exists to keep one invariant
under stress: **no acknowledged evidence is ever lost, and the audit
never produces a false verdict**.  This module turns that sentence into
an executable grid.  A :class:`ScenarioCell` names one combination of

- **backend**: ``plain`` (one in-memory ``LogServer`` behind an
  endpoint), ``sharded`` (the shard set behind one endpoint),
  ``replicated`` (fan-out over two endpoints with spill + catch-up);
- **fault**: a transport fault profile from the PR-1 fault injector
  (``drop`` / ``delay`` / ``disconnect`` / ``truncate``), ``none``,
  ``overload`` -- a slowed ingest path plus a concurrent fire-and-forget
  flood that drives the server's admission controller into its BUSY
  regime -- or ``equivocation``: a *compromised logger*
  (:class:`~repro.adversary.forking.ForkingLogServer`) serving a forked
  view to a second client group, which STH gossip must detect within
  :data:`EQUIVOCATION_ROUND_BOUND` rounds while every honest plain cell
  (which runs the same gossip machinery against its honest logger)
  reports zero evidence;
- **churn**: ``none`` or ``restart`` (endpoint bounce, or replica
  bounce + catch-up, whichever the backend calls a restart);
- **load**: ``light`` or ``flood`` (transmission count scales, and the
  overload cells' noise flood scales with it).

and :func:`run_cell` executes it: an honest publisher/subscriber
workload is pushed through the backend while the cell's fault, churn and
overload run, then the cell asserts (1) every acknowledged entry is
present in the final log exactly once (duplicates are tolerated -- and
counted -- only on the fire-and-forget replicated path, where a
disconnect mid-frame makes at-least-once the contract), (2) the store
passes tamper-evidence verification, (3) a full audit classifies zero
entries invalid and finds zero hidden transmissions, and (4) the
retransmit ratio stays under the configured budget.

Not every fault crosses every backend.  ``dup`` and ``reorder`` are
excluded everywhere *by design*: a duplicated submission frame is an
auditable replay (the protocol's own tamper signal, tested in the
adversary suite), and reorder breaks the FIFO count-reconcile contract
the acknowledged submitters depend on.  The fire-and-forget
replicated path excludes silent frame loss (``drop`` / ``truncate``):
an unacked dropped frame is invisible to the client, so "no acked
loss" would hold vacuously while evidence leaked.  Overload
cells pin ``churn=none``: their concurrent noise flood breaks the
single-writer count arithmetic that restart reconciliation leans on.

Sits in its own module (NOT re-exported from ``repro.resilience``) so
that ``repro.core`` can import the package without a cycle.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary.forking import ForkingLogServer
from repro.audit import Topology
from repro.audit.auditor import Auditor
from repro.audit.verdicts import EntryClass
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.protocol import message_digest
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.crypto.keys import KeyPair, generate_keypair
from repro.errors import LoggingError, ServerBusy
from repro.gossip import GossipRelay, gossip_round
from repro.middleware.transport.faulty import FaultyTransport
from repro.middleware.transport.inproc import InprocTransport
from repro.replication import ReplicatedLogger
from repro.core.policy import ReplicationConfig
from repro.resilience.admission import AdmissionConfig, AdmissionController
from repro.resilience.flow import FlowControlConfig
from repro.resilience.overload import OverloadInjector
from repro.sharding.sharded_server import ShardedLogServer

BACKENDS = ("plain", "sharded", "replicated")
FAULTS = (
    "none", "drop", "delay", "disconnect", "truncate", "overload",
    "equivocation",
)
CHURNS = ("none", "restart")
LOADS = ("light", "flood")

#: Which fault kinds are sound per backend (see the module docstring for
#: why the exclusions are exclusions).  ``equivocation`` -- a compromised
#: *logger* serving a forked view to a second client group -- runs on the
#: plain backend only: the fork adversary is a pair of in-process
#: ``LogServer`` views behind two endpoints, and one backend suffices to
#: exercise the gossip detection path the fault exists to test.
FAULTS_BY_BACKEND: Dict[str, Tuple[str, ...]] = {
    "plain": FAULTS,
    "sharded": ("none", "drop", "delay", "disconnect", "truncate", "overload"),
    "replicated": ("none", "delay", "disconnect", "overload"),
}

#: Transport fault probabilities per named fault kind.
FAULT_PROFILES: Dict[str, Dict[str, float]] = {
    "none": {},
    "overload": {},  # server-side injection, not a transport fault
    "equivocation": {},  # logger-side fork, not a transport fault
    "drop": {"drop": 0.05},
    "delay": {"delay": 0.25, "delay_by": 0.002},
    "disconnect": {"disconnect": 0.02},
    "truncate": {"truncate": 0.03},
}

#: Gossip rounds within which a split view must surface as evidence (the
#: ring topology over two client groups connects them in one round; two
#: is the asserted bound, leaving slack for a late second fetch).
EQUIVOCATION_ROUND_BOUND = 2

#: Honest transmissions per load level (each is one pub + one sub entry).
TRANSMISSIONS = {"light": 12, "flood": 48}
#: Fire-and-forget noise entries the overload cells flood with.
NOISE_ENTRIES = {"light": 64, "flood": 160}

#: Wall-clock bound per cell; a cell that cannot converge inside this is
#: reported as a failure, never a hang.
CELL_TIMEOUT = 45.0
#: Retransmitted-entries / acked-entries ceiling (the retry-budget bar).
RETRANSMIT_BUDGET = 1.5

_TOPICS = ["/m/a", "/m/b", "/m/c", "/m/d", "/m/e", "/m/f", "/m/g", "/m/h"]

_ADMISSION = AdmissionConfig(
    high_watermark=24, low_watermark=8, retry_after=0.01, max_retry_after=0.25
)
_INGEST_DELAY = 0.001

_NOISE_FLOW = FlowControlConfig(
    window_bytes=4096,
    credit_timeout=2.0,
    retry_budget=64.0,
    retry_token_ratio=0.5,
    retry_time_refill=50.0,
    shed_min_pause=0.01,
    shed_max_pause=0.1,
)


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the matrix."""

    backend: str
    fault: str
    churn: str
    load: str

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.fault not in FAULTS_BY_BACKEND[self.backend]:
            raise ValueError(
                f"fault {self.fault!r} is not sound on the "
                f"{self.backend} backend"
            )
        if self.churn not in CHURNS:
            raise ValueError(f"unknown churn {self.churn!r}")
        if self.fault == "overload" and self.churn != "none":
            raise ValueError(
                "overload cells pin churn=none (the noise flood breaks "
                "restart count-reconciliation)"
            )
        if self.fault == "equivocation" and self.churn != "none":
            raise ValueError(
                "equivocation cells pin churn=none (the fault under test "
                "is the logger's, and churning the endpoints would only "
                "blur the bounded-round detection claim)"
            )
        if self.load not in LOADS:
            raise ValueError(f"unknown load {self.load!r}")

    @property
    def name(self) -> str:
        return f"{self.backend}/{self.fault}/{self.churn}/{self.load}"


@dataclass
class CellResult:
    """What one executed cell observed and whether it held the bar."""

    cell: ScenarioCell
    submitted: int = 0
    acked: int = 0
    delivered: int = 0
    duplicates: int = 0
    retransmits: int = 0
    busy_responses: int = 0
    shed_entries: int = 0
    credit_syncs: int = 0
    valid: int = 0
    invalid: int = 0
    hidden: int = 0
    equivocation_evidence: int = 0
    gossip_rounds: int = 0
    elapsed: float = 0.0
    failures: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def retransmit_ratio(self) -> float:
        return self.retransmits / float(max(1, self.submitted))

    @property
    def throughput(self) -> float:
        return self.acked / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed_entries / float(max(1, self.submitted))

    def row(self) -> Dict[str, object]:
        """One bench-results row."""
        return {
            "cell": self.cell.name,
            "ok": self.ok,
            "submitted": self.submitted,
            "acked": self.acked,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "retransmits": self.retransmits,
            "retransmit_ratio": round(self.retransmit_ratio, 4),
            "busy_responses": self.busy_responses,
            "shed_entries": self.shed_entries,
            "shed_rate": round(self.shed_rate, 4),
            "credit_syncs": self.credit_syncs,
            "valid": self.valid,
            "invalid": self.invalid,
            "hidden": self.hidden,
            "equivocation_evidence": self.equivocation_evidence,
            "gossip_rounds": self.gossip_rounds,
            "elapsed_s": round(self.elapsed, 3),
            "throughput_eps": round(self.throughput, 1),
            "failures": list(self.failures),
        }


def enumerate_cells(full: bool = False) -> List[ScenarioCell]:
    """The matrix.  ``full`` is the overload-marked soak grid; the
    default is the 5-cell tier-1 smoke slice (at least one cell per
    backend, chosen to cover a transport fault, an equivocating logger,
    an overload, a churn and a replicated disconnect between them)."""
    if not full:
        return [
            ScenarioCell("plain", "drop", "none", "light"),
            ScenarioCell("plain", "equivocation", "none", "light"),
            ScenarioCell("sharded", "overload", "none", "flood"),
            ScenarioCell("sharded", "none", "restart", "light"),
            ScenarioCell("replicated", "disconnect", "none", "light"),
        ]
    cells: List[ScenarioCell] = []
    for backend in BACKENDS:
        for fault in FAULTS_BY_BACKEND[backend]:
            churns: Sequence[str] = (
                ("none",) if fault in ("overload", "equivocation") else CHURNS
            )
            for churn in churns:
                for load in LOADS:
                    cells.append(ScenarioCell(backend, fault, churn, load))
    return cells


# -- workload ---------------------------------------------------------------


def _cell_keys(seed: int) -> Tuple[KeyPair, KeyPair]:
    return (
        generate_keypair(512, seed=seed + 1),
        generate_keypair(512, seed=seed + 2),
    )


def _honest_pair(
    keys: Tuple[KeyPair, KeyPair], topic: str, seq: int, payload: bytes
) -> Tuple[bytes, bytes]:
    """Encoded publisher OUT + subscriber IN for one honest transmission
    (same shape the sharding battery's workload builder produces)."""
    digest = message_digest(seq, payload)
    s_x = keys[0].private.sign_digest(digest)
    s_y = keys[1].private.sign_digest(digest)
    pub = LogEntry(
        component_id="/pub", topic=topic, type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=payload, own_sig=s_x,
        peer_id="/sub", peer_hash=digest, peer_sig=s_y,
    )
    sub = LogEntry(
        component_id="/sub", topic=topic, type_name="std/String",
        direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
        data_hash=digest, own_sig=s_y, peer_id="/pub", peer_sig=s_x,
    )
    return pub.encode(), sub.encode()


def _build_records(
    rng: random.Random,
    keys: Tuple[KeyPair, KeyPair],
    topics: Sequence[str],
    transmissions: int,
) -> List[bytes]:
    """A shuffled honest workload."""
    seqs = {t: 0 for t in topics}
    records: List[bytes] = []
    for _ in range(transmissions):
        topic = rng.choice(list(topics))
        seqs[topic] += 1
        payload = bytes(
            rng.getrandbits(8) for _ in range(rng.randrange(4, 24))
        )
        pub, sub = _honest_pair(keys, topic, seqs[topic], payload)
        records.append(pub)
        records.append(sub)
    rng.shuffle(records)
    return records


def _topology(topics: Sequence[str]) -> Topology:
    return Topology(
        publisher_of={t: "/pub" for t in topics},
        subscribers_of={t: ["/sub"] for t in topics},
    )


# -- invariant checking -----------------------------------------------------


def _check_delivery(
    result: CellResult,
    must_have: Sequence[bytes],
    may_have: Sequence[bytes],
    delivered: Sequence[bytes],
    allow_duplicates: bool,
) -> List[bytes]:
    """Assert every *acknowledged* record (``must_have``) is present and
    nothing outside the *submitted* set (``may_have``) appears; count
    duplicates; return the deduplicated stream for auditing.

    The two sets differ when a cell timed out mid-run: unacknowledged
    records may or may not have landed (either is fine), but an acked
    record missing -- or a record nobody submitted appearing -- is the
    invariant breach the matrix exists to catch."""
    counts: Dict[bytes, int] = {}
    for record in delivered:
        counts[record] = counts.get(record, 0) + 1
    missing = [r for r in must_have if r not in counts]
    if missing:
        result.failures.append(
            f"{len(missing)} acknowledged entries missing from the final "
            f"log (acked-evidence loss)"
        )
    submitted_set = set(may_have)
    unexpected = sum(n for r, n in counts.items() if r not in submitted_set)
    if unexpected:
        result.failures.append(
            f"{unexpected} records present that were never submitted"
        )
    result.delivered = len(counts)
    result.duplicates = sum(n - 1 for n in counts.values())
    if result.duplicates and not allow_duplicates:
        result.failures.append(
            f"{result.duplicates} duplicate ingestions on an exactly-once "
            f"submission path"
        )
    return list(counts)


def _audit(
    result: CellResult,
    keys: Tuple[KeyPair, KeyPair],
    topics: Sequence[str],
    records: Sequence[bytes],
) -> None:
    """Zero false verdicts: the workload is honest, so any INVALID or
    hidden finding is the infrastructure manufacturing evidence."""
    rebuild = LogServer()
    rebuild.register_key("/pub", keys[0].public)
    rebuild.register_key("/sub", keys[1].public)
    try:
        entries = [LogEntry.decode(bytes(r)) for r in records]
    except Exception as exc:
        result.failures.append(f"undecodable record in final log: {exc}")
        return
    report = Auditor(rebuild.keystore, _topology(topics)).audit(entries)
    result.valid = sum(
        1 for c in report.classified if c.verdict is EntryClass.VALID
    )
    result.invalid = sum(
        1 for c in report.classified if c.verdict is EntryClass.INVALID
    )
    result.hidden = len(report.hidden)
    if result.invalid:
        result.failures.append(
            f"{result.invalid} honest entries classified INVALID "
            f"(false verdicts)"
        )
    if result.hidden:
        result.failures.append(
            f"{result.hidden} transmissions reported hidden in an "
            f"all-delivered run"
        )


def _check_budget(result: CellResult) -> None:
    if result.retransmit_ratio > RETRANSMIT_BUDGET:
        result.failures.append(
            f"retransmit ratio {result.retransmit_ratio:.2f} exceeds the "
            f"{RETRANSMIT_BUDGET} budget"
        )


# -- acknowledged submission driver ----------------------------------------


class _SyncDriver:
    """Chunked acknowledged submission with BUSY pacing and (when the
    cell's arithmetic allows it) count-based loss reconciliation.

    ``count_exact`` is the single-writer case: the server's entry count
    identifies this driver's landed prefix exactly, so a lost response
    is reconciled instead of retransmitted blindly.  Overload cells run
    with a concurrent noise flood and set ``count_exact=False``; they
    rely on BUSY being refuse-before-ingest (retrying a refused chunk
    cannot double-ingest) and on their fault-free transport.
    """

    def __init__(
        self,
        client_ref: Dict[str, RemoteLogger],
        result: CellResult,
        count_exact: bool,
        deadline: float,
        chunk: int = 8,
    ):
        self._ref = client_ref
        self._result = result
        self._count_exact = count_exact
        self._deadline = deadline
        self._chunk = chunk
        self.base = 0

    def _client(self) -> RemoteLogger:
        return self._ref["client"]

    def reconciled_count(self) -> Optional[int]:
        """Poll health until the server answers; entries above ``base``
        are this driver's landed prefix (single-writer FIFO)."""
        while time.monotonic() < self._deadline:
            try:
                return self._client().health(timeout=1.0).entries - self.base
            except LoggingError:
                time.sleep(0.05)
        return None

    def anchor(self) -> bool:
        """Record the pre-run server count the reconcile leans on."""
        self.base = 0
        count = self.reconciled_count()
        if count is None:
            self._result.failures.append(
                "server never answered the anchoring health probe"
            )
            return False
        self.base = count
        return True

    def run(
        self,
        records: Sequence[bytes],
        churn: Optional[Callable[[], None]] = None,
    ) -> int:
        """Submit every record with acknowledgement; returns the count
        confirmed landed.  ``churn`` fires once at the halfway mark."""
        result = self._result
        confirmed = 0
        churned = churn is None
        while confirmed < len(records):
            if time.monotonic() > self._deadline:
                result.failures.append(
                    f"cell timed out with {len(records) - confirmed} "
                    f"entries unconfirmed"
                )
                break
            if not churned and confirmed >= len(records) // 2:
                churned = True
                churn()  # type: ignore[misc]
            chunk = list(records[confirmed:confirmed + self._chunk])
            try:
                count = self._client().submit_batch_sync(chunk, timeout=1.0)
            except ServerBusy as exc:
                result.busy_responses += 1
                # BUSY refuses before ingesting: honoring the hint and
                # resending the same chunk cannot double-ingest.  Paced
                # by the *server's* hint, these resends are cooperative
                # flow control, not blind retransmission, so they do not
                # count against the retransmit budget.
                time.sleep(min(max(exc.retry_after, 0.005), 0.25))
                continue
            except LoggingError as exc:
                if not self._count_exact:
                    result.failures.append(
                        f"unexpected submission failure on a fault-free "
                        f"transport: {exc}"
                    )
                    break
                # Frames may or may not have landed; the count settles it.
                time.sleep(0.05)  # let in-flight frames finish ingesting
                landed = self.reconciled_count()
                if landed is None:
                    result.failures.append(
                        "server unreachable during reconciliation"
                    )
                    break
                if landed < confirmed:
                    result.failures.append(
                        f"server count regressed below the confirmed "
                        f"prefix ({landed} < {confirmed}): acked loss"
                    )
                    break
                result.retransmits += max(0, confirmed + len(chunk) - landed)
                confirmed = landed
                continue
            confirmed = (
                count - self.base if self._count_exact
                else confirmed + len(chunk)
            )
        return confirmed


# -- noise flood (the overload cells' concurrency) -------------------------


class _NoiseFlood:
    """Fire-and-forget batch flood from N independent connections.

    Batch frames are force-admitted in bulk, so each one holds the
    admission latch for its (slowed) ingest -- that is what makes the
    sync driver and the *other* noise clients' credit syncs observe
    BUSY.  Flow control is on: crossing the credit window forces sync
    round trips, BUSY answers push the client into shed mode, and the
    drain phase proves shedding delayed -- never lost -- the entries.
    """

    def __init__(
        self,
        make_client: Callable[[int], RemoteLogger],
        records: Sequence[bytes],
        clients: int = 2,
        batch: int = 32,
    ):
        self.clients = [make_client(i) for i in range(clients)]
        self._shares: List[List[bytes]] = [[] for _ in self.clients]
        for i, record in enumerate(records):
            self._shares[i % len(self.clients)].append(record)
        self._batch = batch
        self._threads: List[threading.Thread] = []

    def start(self) -> None:
        for client, share in zip(self.clients, self._shares):
            thread = threading.Thread(
                target=self._flood, args=(client, share), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _flood(self, client: RemoteLogger, share: List[bytes]) -> None:
        for i in range(0, len(share), self._batch):
            try:
                client.submit_batch(share[i:i + self._batch])
            except Exception:
                return  # surfaced by the drain check's spill accounting

    def drain(self, deadline: float) -> Optional[str]:
        """Join the flood, then drain every spill queue and prove (via a
        FIFO health round trip per connection) that all frames landed."""
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for client in self.clients:
            while client.spilled > 0 or client.shedding:
                if time.monotonic() > deadline:
                    return (
                        f"noise flood failed to drain: {client.spilled} "
                        f"entries still spilled"
                    )
                client.flush_spill()
                time.sleep(0.01)
            while True:
                if time.monotonic() > deadline:
                    return "noise flood could not confirm delivery"
                try:
                    # FIFO: any answer proves every prior frame on this
                    # connection was ingested.
                    client.health(timeout=2.0)
                    break
                except LoggingError:
                    time.sleep(0.02)
            if client.spilled > 0:
                return "noise spill refilled after the drain proof"
        return None

    def stats(self) -> Tuple[int, int, int, int]:
        busy = sum(c.busy_responses for c in self.clients)
        shed = sum(c.shed_entries for c in self.clients)
        syncs = sum(c.stats().get("credit_syncs", 0) for c in self.clients)
        retries = sum(c.retries for c in self.clients)
        return busy, shed, syncs, retries

    def close(self) -> None:
        for client in self.clients:
            client.close()


# -- per-backend cell runners ----------------------------------------------


def _run_equivocation_cell(
    cell: ScenarioCell, seed: int, result: CellResult
) -> None:
    """The compromised-logger cell: one signing identity forks its log
    and serves each view to a different client group.  Each group's
    experience is internally consistent (its own STH verifies, inclusion
    proofs check out), so detection must come from gossip -- and must
    arrive within :data:`EQUIVOCATION_ROUND_BOUND` ring rounds, yielding
    evidence that verifies under the logger's own key."""
    rng = random.Random(seed)
    keys = _cell_keys(seed)
    logger_keys = generate_keypair(512, seed=seed + 3)
    records = _build_records(rng, keys, _TOPICS[:4], TRANSMISSIONS[cell.load])
    result.submitted = len(records)

    fork = ForkingLogServer(logger_keys.private, fork_at=len(records) // 2)
    fork.register_key("/pub", keys[0].public)
    fork.register_key("/sub", keys[1].public)
    transports = [InprocTransport(), InprocTransport()]
    endpoints = [
        LogServerEndpoint(fork.face("honest"), transport=transports[0]),
        LogServerEndpoint(fork.face("forked"), transport=transports[1]),
    ]
    clients = [
        RemoteLogger(e.address, transport=t)
        for e, t in zip(endpoints, transports)
    ]
    relays = [GossipRelay(f"group-{i}") for i in range(len(clients))]
    for relay in relays:
        relay.register_key(fork.log_id, logger_keys.public)

    deadline = time.monotonic() + CELL_TIMEOUT
    started = time.monotonic()
    try:
        driver = _SyncDriver(
            {"client": clients[0]}, result, count_exact=True,
            deadline=deadline,
        )
        if not driver.anchor():
            return
        acked = driver.run(records)
        result.acked = acked
        result.elapsed = time.monotonic() - started

        # Per-group verification passes: the split view is invisible to a
        # client that only ever talks to one face.
        for group, (client, relay) in enumerate(zip(clients, relays)):
            sth = client.fetch_sth(timeout=2.0)
            if not sth.verify(logger_keys.public):
                result.failures.append(
                    f"group {group}'s STH failed signature verification"
                )
                continue
            proof = client.prove_inclusion(0, tree_size=sth.entries)
            record = client.fetch_records(0, 1)[0]
            if not proof.verify(record, sth.merkle_root):
                result.failures.append(
                    f"group {group}'s inclusion proof failed against its "
                    f"own signed head"
                )
            if relay.observe(sth, source=f"replica-{group}"):
                result.failures.append(
                    "evidence before any gossip: a single group should "
                    "never see the fork"
                )

        # Detection: ring gossip between the two groups' relays.
        rounds = 0
        while (
            rounds < EQUIVOCATION_ROUND_BOUND
            and not any(relay.evidence() for relay in relays)
        ):
            gossip_round(relays)
            rounds += 1
        result.gossip_rounds = rounds
        evidence = [ev for relay in relays for ev in relay.evidence()]
        result.equivocation_evidence = len(evidence)
        if not evidence:
            result.failures.append(
                f"split view undetected after {rounds} gossip rounds"
            )
        for ev in evidence:
            if not ev.verify(logger_keys.public):
                result.failures.append(
                    "equivocation evidence does not verify under the "
                    "logger's key (unconvincing conviction)"
                )
            if ev.first.log_id != fork.log_id:
                result.failures.append(
                    f"evidence convicts {ev.first.log_id!r}, not the "
                    f"forking logger {fork.log_id!r}"
                )

        # The standard invariant bar still applies to the honest view.
        must_have = list(records[:acked])
        delivered = [bytes(r) for r in fork.honest.raw_records()]
        deduped = _check_delivery(
            result, must_have, records, delivered, allow_duplicates=False
        )
        try:
            fork.honest.verify_integrity()
        except Exception as exc:
            result.failures.append(f"store failed verification: {exc}")
        _audit(result, keys, _TOPICS, deduped)
        _check_budget(result)
    finally:
        for client in clients:
            client.close()
        for endpoint in endpoints:
            endpoint.close()
        fork.close()


def _run_endpoint_cell(
    cell: ScenarioCell, seed: int, result: CellResult
) -> None:
    """The plain and sharded backends: one endpoint, one
    acknowledged client, transport faults or an overload flood."""
    if cell.fault == "equivocation":
        _run_equivocation_cell(cell, seed, result)
        return
    rng = random.Random(seed)
    keys = _cell_keys(seed)
    overload = cell.fault == "overload"
    sync_topics = _TOPICS[:4]
    records = _build_records(rng, keys, sync_topics, TRANSMISSIONS[cell.load])
    result.submitted = len(records)

    if cell.backend == "sharded":
        server = ShardedLogServer(shards=4)
    else:
        server = LogServer()
    server.register_key("/pub", keys[0].public)
    server.register_key("/sub", keys[1].public)
    honest_gossip: Optional[GossipRelay] = None
    if cell.backend == "plain":
        # False-positive bar: an *honest* logger under this cell's fault
        # and load, observed through the full gossip machinery (signed
        # heads, consistency challenges), must yield zero evidence.
        logger_keys = generate_keypair(512, seed=seed + 3)
        server.attach_signer(logger_keys.private)
        honest_gossip = GossipRelay(
            "honest-watch",
            consistency_prover=lambda old, new: server.prove_consistency(
                old.entries, new.entries
            ),
        )
        honest_gossip.register_key(server.log_id, logger_keys.public)
        honest_gossip.observe(server.signed_tree_head(), source="anchor")
    ingest = (
        OverloadInjector(server, delay=_INGEST_DELAY) if overload else server
    )
    admission = AdmissionController(_ADMISSION)
    profile = FAULT_PROFILES[cell.fault]
    transport = (
        FaultyTransport(InprocTransport(), seed=seed, **profile)
        if profile
        else InprocTransport()
    )

    state: Dict[str, object] = {}
    state["endpoint"] = LogServerEndpoint(
        ingest, transport=transport, admission=admission
    )

    def new_client() -> RemoteLogger:
        return RemoteLogger(
            state["endpoint"].address,  # type: ignore[attr-defined]
            transport=transport,
            reconnect_backoff=0.01,
            max_reconnect_backoff=0.2,
            rng=random.Random(seed + 77),
        )

    client_ref: Dict[str, RemoteLogger] = {"client": new_client()}

    def churn() -> None:
        client_ref["client"].close()
        state["endpoint"].close()  # type: ignore[attr-defined]
        state["endpoint"] = LogServerEndpoint(
            ingest, transport=transport, admission=admission
        )
        client_ref["client"] = new_client()

    noise: Optional[_NoiseFlood] = None
    noise_records: List[bytes] = []
    deadline = time.monotonic() + CELL_TIMEOUT
    started = time.monotonic()
    try:
        driver = _SyncDriver(
            client_ref, result, count_exact=not overload, deadline=deadline
        )
        if not driver.anchor():
            return
        if overload:
            noise_records = _build_records(
                rng, keys, _TOPICS[4:], NOISE_ENTRIES[cell.load] // 2
            )
            result.submitted += len(noise_records)
            noise = _NoiseFlood(
                lambda i: RemoteLogger(
                    state["endpoint"].address,  # type: ignore[attr-defined]
                    transport=transport,
                    spill_capacity=100_000,
                    flow_control=_NOISE_FLOW,
                    rng=random.Random(seed + 100 + i),
                ),
                noise_records,
            )
            noise.start()
        acked_sync = driver.run(
            records, churn=churn if cell.churn == "restart" else None
        )
        result.acked = acked_sync
        noise_acked: List[bytes] = []
        if noise is not None:
            trouble = noise.drain(deadline)
            if trouble is None:
                result.acked += len(noise_records)
                noise_acked = noise_records
            else:
                result.failures.append(trouble)
            busy, shed, syncs, retries = noise.stats()
            result.busy_responses += busy
            result.shed_entries += shed
            result.credit_syncs += syncs
            result.retransmits += retries
        result.elapsed = time.monotonic() - started
        if overload and cell.load == "flood" and result.busy_responses == 0:
            result.failures.append(
                "overload flood never tripped admission control"
            )

        must_have = list(records[:acked_sync]) + noise_acked
        may_have = list(records) + noise_records
        if cell.backend == "sharded":
            delivered = [
                bytes(r)
                for s in range(server.shard_count)
                for r in server.shard_raw_records(s)
            ]
        else:
            delivered = [bytes(r) for r in server.raw_records()]
        deduped = _check_delivery(
            result, must_have, may_have, delivered, allow_duplicates=False
        )
        try:
            server.verify_integrity()
        except Exception as exc:
            result.failures.append(f"store failed verification: {exc}")
        if honest_gossip is not None:
            honest_gossip.observe(server.signed_tree_head(), source="final")
            result.equivocation_evidence = len(honest_gossip.evidence())
            if result.equivocation_evidence:
                result.failures.append(
                    "honest cell produced equivocation evidence "
                    "(false positive): "
                    + "; ".join(
                        ev.describe() for ev in honest_gossip.evidence()
                    )
                )
        _audit(result, keys, _TOPICS, deduped)
        _check_budget(result)
    finally:
        if noise is not None:
            noise.close()
        client_ref["client"].close()
        state["endpoint"].close()  # type: ignore[attr-defined]
        server.close()


def _run_replicated_cell(
    cell: ScenarioCell, seed: int, result: CellResult
) -> None:
    """The replicated backend: fire-and-forget fan-out with spill,
    flush, and catch-up.  At-least-once is the contract here, so
    duplicates are tolerated (and counted); loss is not."""
    rng = random.Random(seed)
    keys = _cell_keys(seed)
    overload = cell.fault == "overload"
    records = _build_records(
        rng, keys, _TOPICS[:4], TRANSMISSIONS[cell.load]
    )
    result.submitted = len(records)

    servers = [LogServer(), LogServer()]
    for server in servers:
        server.register_key("/pub", keys[0].public)
        server.register_key("/sub", keys[1].public)
    ingests = [
        OverloadInjector(s, delay=_INGEST_DELAY) if overload else s
        for s in servers
    ]
    profile = FAULT_PROFILES[cell.fault]
    transport = (
        FaultyTransport(InprocTransport(), seed=seed, **profile)
        if profile
        else InprocTransport()
    )
    endpoints = [
        LogServerEndpoint(
            ingest,
            transport=transport,
            admission=AdmissionController(_ADMISSION) if overload else None,
        )
        for ingest in ingests
    ]
    shared = ReplicatedLogger(
        [e.address for e in endpoints],
        config=ReplicationConfig(
            breaker_failure_threshold=3,
            breaker_reset_timeout=0.05,
            breaker_max_reset_timeout=0.25,
            flow_control=_NOISE_FLOW if overload else None,
        ),
        transport=transport,
        rng=random.Random(seed + 9),
    )
    deadline = time.monotonic() + CELL_TIMEOUT
    started = time.monotonic()
    try:
        churned = cell.churn != "restart"
        for i, record in enumerate(records):
            if not churned and i >= len(records) // 2:
                churned = True
                # Graceful restart: drain replica spills and run a sync
                # barrier before bouncing the endpoint.  An abrupt close
                # would discard fire-and-forget frames still buffered in
                # the endpoint's transport queue -- silent frame loss,
                # which this backend's cells exclude by design (restart
                # churn here means failover and rejoin; the drop/truncate
                # exclusions in the module docstring explain why silent
                # loss is untestable against an unacked fan-out).
                barrier = min(deadline, time.monotonic() + 15.0)
                while time.monotonic() < barrier:
                    if shared.flush_spill() and shared.quiesce(
                        replica=1, timeout=1.0
                    ):
                        break
                    time.sleep(0.01)
                endpoints[1].close()
                endpoints[1] = LogServerEndpoint(
                    ingests[1], transport=transport
                )
                shared.reset_replica(1, endpoints[1].address)
            shared.submit(record)
        result.acked = len(records)

        # Convergence: flush spill until both replicas hold everything.
        expected_len = len(records)
        while time.monotonic() < deadline:
            shared.flush_spill()
            if all(len(s) >= expected_len for s in servers):
                break
            if min(len(s) for s in servers) < expected_len:
                try:
                    shared.catch_up()
                except LoggingError:
                    pass
            time.sleep(0.02)
        lagging = [i for i, s in enumerate(servers) if len(s) < expected_len]
        if lagging:
            result.failures.append(
                f"replicas {lagging} never converged "
                f"({[len(s) for s in servers]} of {expected_len})"
            )
        result.elapsed = time.monotonic() - started

        stats = shared.stats()
        result.shed_entries = stats.get("replica_shed", 0)
        result.busy_responses = stats.get("replica_busy", 0)
        result.retransmits = stats.get("spill_retries", 0)

        for index, server in enumerate(servers):
            delivered = [bytes(r) for r in server.raw_records()]
            deduped = _check_delivery(
                result, records, records, delivered, allow_duplicates=True
            )
            try:
                server.verify_integrity()
            except Exception as exc:
                result.failures.append(
                    f"replica {index} failed verification: {exc}"
                )
            if index == 0:
                _audit(result, keys, _TOPICS, deduped)
        _check_budget(result)
    finally:
        shared.close()
        for endpoint in endpoints:
            endpoint.close()


_RUNNERS = {
    "plain": _run_endpoint_cell,
    "sharded": _run_endpoint_cell,
    "replicated": _run_replicated_cell,
}


def run_cell(cell: ScenarioCell, seed: int = 1337) -> CellResult:
    """Execute one cell; failures are collected, never raised."""
    result = CellResult(cell=cell)
    try:
        _RUNNERS[cell.backend](cell, seed, result)
    except Exception as exc:  # infrastructure trouble is a failed cell
        result.failures.append(f"cell crashed: {type(exc).__name__}: {exc}")
    return result


def run_matrix(
    cells: Optional[Sequence[ScenarioCell]] = None,
    seed: int = 1337,
    full: bool = False,
    record: bool = False,
) -> List[CellResult]:
    """Run a slice of the matrix (default: the tier-1 smoke slice).

    With ``record=True`` every cell's throughput/shed-rate row is
    appended to ``bench_results.json`` under ``resilience_matrix``.
    """
    chosen = list(cells) if cells is not None else enumerate_cells(full=full)
    results = [
        run_cell(cell, seed=seed + 101 * i) for i, cell in enumerate(chosen)
    ]
    if record:
        from repro.bench.reporting import save_results

        save_results(
            "resilience_matrix",
            {
                "seed": seed,
                "cells": [r.row() for r in results],
                "ok": all(r.ok for r in results),
            },
        )
    return results
