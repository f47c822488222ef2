"""Command-line investigator interface.

::

    python -m repro.tools verify  CASE_DIR | --store STORE_DIR [--shards N]
    python -m repro.tools inspect CASE_DIR | --store STORE_DIR [--shards N]
                                  [--component C] [--topic T] [--limit N]
                                  [--shard I]
    python -m repro.tools audit   CASE_DIR | --store STORE_DIR [--shards N]
                                  [--publisher TOPIC=COMPONENT ...]
    python -m repro.tools trace   CASE_DIR TOPIC SEQ
    python -m repro.tools recover STORE_DIR [--shards N | --shard I]
    python -m repro.tools health  HOST:PORT [HOST:PORT ...]
    python -m repro.tools replicas HOST:PORT [HOST:PORT ...]
                                  [--quorum N] [--audit] [--key KEY_FILE]
    python -m repro.tools sth     HOST:PORT [HOST:PORT ...]
                                  [--shard I] [--key KEY_FILE]
    python -m repro.tools proof   HOST:PORT INDEX [--shard I]
                                  [--key KEY_FILE]

``CASE_DIR`` is a bundle produced by :func:`repro.tools.caseio.export_case`;
``STORE_DIR`` is a :class:`~repro.storage.durable_store.DurableLogStore`
directory (a crashed logger's WAL + checkpoints), opened and replayed in
place -- the investigator can work directly on the wreckage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.audit import (
    Auditor,
    ProvenanceGraph,
    Topology,
    audit_replica_set,
    render_report,
)
from repro.core.entries import Direction
from repro.core.log_server import LogServer
from repro.core.policy import ReplicationConfig
from repro.core.remote import RemoteLogger
from repro.crypto.keys import PublicKey
from repro.errors import LogIntegrityError, LoggingError, ProofError
from repro.gossip import GossipRelay
from repro.replication import DivergenceDetector, ReplicatedLogger
from repro.sharding import ShardedLogServer, audit_sharded, shard_dirname
from repro.storage.durable_store import DurableLogStore
from repro.tools.caseio import load_case


def _open_store(store_dir: str) -> DurableLogStore:
    """Open an existing store directory; a typo'd path must error, not
    quietly materialize an empty (and trivially "intact") store."""
    if not os.path.isdir(store_dir):
        raise SystemExit(f"no such store directory: {store_dir}")
    return DurableLogStore(store_dir)


def _load_server(args: argparse.Namespace) -> "LogServer | ShardedLogServer":
    """The log server named by the arguments: an exported case bundle or,
    with ``--store``, a durable store directory recovered in place
    (``--shards N`` reopens it as a sharded layout)."""
    store_dir = getattr(args, "store", None)
    shards = getattr(args, "shards", None)
    if shards is not None and store_dir is None:
        raise SystemExit("--shards requires --store (case bundles are unsharded)")
    if store_dir is not None:
        if args.case is not None:
            raise SystemExit("give either CASE_DIR or --store, not both")
        if shards is not None:
            if not os.path.isdir(store_dir):
                raise SystemExit(f"no such store directory: {store_dir}")
            return ShardedLogServer(shards=shards, store_dir=store_dir)
        return LogServer(_open_store(store_dir))
    if args.case is None:
        raise SystemExit("either CASE_DIR or --store is required")
    return load_case(args.case).server


def _source_label(args: argparse.Namespace) -> str:
    store_dir = getattr(args, "store", None)
    return f"store {store_dir}" if store_dir is not None else f"case {args.case}"


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        server = _load_server(args)
        server.verify_integrity()
    except LogIntegrityError as exc:
        print(f"TAMPERED: {exc}")
        return 2
    print(f"{_source_label(args)}: INTACT")
    print(f"  entries:     {len(server)}")
    print(f"  components:  {len(server.keystore)}")
    for component_id, label in sorted(server.keystore.describe().items()):
        fingerprint = server.keystore.get(component_id).fingerprint()
        print(f"    {component_id:<24} {label:<10} fp={fingerprint}")
    if isinstance(server, ShardedLogServer):
        commitment = server.commitment()
        print(f"  shards:      {commitment.shards}")
        print(f"  set root:    {commitment.root.hex()}")
        for index, shard in enumerate(commitment.shard_commitments):
            print(
                f"  shard {index:3}:   entries={shard.entries:<8} "
                f"head={shard.chain_head.hex()[:16]} "
                f"root={shard.merkle_root.hex()[:16]}"
            )
    else:
        print(f"  chain head:  {server.store.head().hex()}")
        print(f"  merkle root: {server.merkle_root().hex()}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        server = _load_server(args)
    except LogIntegrityError as exc:
        print(f"TAMPERED: {exc}")
        return 2
    if args.component:
        key = server.keystore.find(args.component)
        if key is not None:
            print(
                f"# {args.component} key: {key.describe()} "
                f"fp={key.fingerprint()}"
            )
    shard = getattr(args, "shard", None)
    if shard is not None:
        if not isinstance(server, ShardedLogServer):
            raise SystemExit("--shard requires --shards (an unsharded source)")
        entries = server.entries(
            component_id=args.component, topic=args.topic, shard=shard
        )
    else:
        entries = server.entries(component_id=args.component, topic=args.topic)
    shown = entries[: args.limit] if args.limit else entries
    for i, entry in enumerate(shown):
        direction = "out" if entry.direction is Direction.OUT else "in "
        payload = (
            f"|D|={len(entry.data)}" if entry.data else f"h(D)={entry.data_hash.hex()[:12]}"
        )
        print(
            f"{i:6} {entry.component_id:<22} {direction} "
            f"{entry.topic:<22} seq={entry.seq:<6} t={entry.timestamp:<18.6f} "
            f"{entry.scheme.name.lower():<5} {payload}"
        )
    if args.limit and len(entries) > args.limit:
        print(f"... and {len(entries) - args.limit} more")
    return 0


def _parse_topology(pairs: List[str]) -> Optional[Topology]:
    if not pairs:
        return None
    topology = Topology()
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--publisher expects TOPIC=COMPONENT, got {pair!r}")
        topic, component = pair.split("=", 1)
        topology.publisher_of[topic] = component
    return topology


def _cmd_audit(args: argparse.Namespace) -> int:
    # Opening a durable store replays its journal, and replay itself can
    # detect tampering (e.g. a WAL shorter than its checkpoint) -- report
    # it like verify does instead of surfacing a traceback.
    try:
        server = _load_server(args)
    except LogIntegrityError as exc:
        print(f"TAMPERED: {exc}")
        return 2
    topology = _parse_topology(args.publisher)
    labels = sorted(server.keystore.describe().values())
    if labels:
        counts = {label: labels.count(label) for label in dict.fromkeys(labels)}
        summary = ", ".join(
            f"{label} x{count}" for label, count in counts.items()
        )
        print(f"registered keys: {summary}")
    if isinstance(server, ShardedLogServer):
        result = audit_sharded(server, topology=topology)
        for outcome in result.outcomes:
            if outcome.tampered:
                print(f"shard {outcome.shard}: TAMPERED ({outcome.error})")
            else:
                print(f"shard {outcome.shard}: {outcome.entries} entries, intact")
        print(render_report(result.report, max_findings=args.max_findings))
        if result.tampered_shards:
            print(f"tampered shards: {result.tampered_shards}")
            return 2
        return 1 if result.report.flagged_components() else 0
    auditor = Auditor.for_server(server, topology)
    report = auditor.audit_server(server)
    print(render_report(report, max_findings=args.max_findings))
    return 1 if report.flagged_components() else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    bundle = load_case(args.case)
    report = Auditor.for_server(bundle.server).audit_server(bundle.server)
    valid = [c.entry for c in report.valid_entries()]
    graph = ProvenanceGraph(valid)
    if not graph.has_item(args.topic, args.seq):
        print(f"no valid entry for {args.topic}#{args.seq}")
        return 2
    print(f"lineage of {args.topic}#{args.seq}:")
    for item in graph.lineage(args.topic, args.seq):
        producer = graph.producer_of(item.topic, item.seq) or "?"
        print(f"  {item.topic:<26} #{item.seq:<6} produced by {producer}")
    print("components on the causal chain:")
    for component in graph.suspects(args.topic, args.seq):
        print(f"  {component}")
    return 0


def _recover_one(store_dir: str, label: str) -> int:
    try:
        store = _open_store(store_dir)
    except LogIntegrityError as exc:
        print(f"{label}: TAMPERED: {exc}")
        return 2
    recovery = store.recovery
    print(f"{label}: recovered")
    print(f"  entries:          {recovery.entries}")
    print(f"  from checkpoint:  {recovery.checkpoint_entries or 0}")
    print(f"  replayed tail:    {recovery.replayed}")
    print(f"  torn tail bytes:  {recovery.truncated_bytes} (truncated)")
    print(f"  chain head:       {store.head().hex()}")
    print(f"  merkle root:      {store.merkle_root().hex()}")
    store.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Replay a durable store's WAL and report what survived the crash.

    For a sharded layout, ``--shards N`` recovers every shard directory in
    turn and ``--shard I`` exactly one -- tamper localization means an
    investigator usually needs to replay a single shard's wreckage, not
    the whole set.
    """
    shards = getattr(args, "shards", None)
    shard = getattr(args, "shard", None)
    if shard is not None:
        target = os.path.join(args.store_dir, shard_dirname(shard))
        return _recover_one(target, f"store {args.store_dir} shard {shard}")
    if shards is not None:
        worst = 0
        for index in range(shards):
            target = os.path.join(args.store_dir, shard_dirname(index))
            worst = max(
                worst, _recover_one(target, f"store {args.store_dir} shard {index}")
            )
        return worst
    return _recover_one(args.store_dir, f"store {args.store_dir}")


def _parse_address(value: str):
    """``HOST:PORT`` -> the transport-layer tcp address tuple."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SystemExit(f"replica address must be HOST:PORT, got {value!r}")
    return ("tcp", host, int(port))


def _cmd_health(args: argparse.Namespace) -> int:
    """Probe each replica's commitment once; cross-check for divergence."""
    detector = DivergenceDetector()
    unreachable = 0
    for value in args.replica:
        client = RemoteLogger(_parse_address(value))
        stats: dict = {}
        try:
            commitment = client.health(timeout=args.timeout)
            try:
                # Best-effort observability: servers without OP_STATS
                # (or without the counter) just omit the line.
                stats = client.server_stats(timeout=args.timeout)
            except LoggingError:
                stats = {}
        except LoggingError as exc:
            print(f"{value:<28} UNREACHABLE ({exc})")
            unreachable += 1
            continue
        finally:
            client.close()
        detector.observe(value, commitment)
        print(
            f"{value:<28} entries={commitment.entries:<8} "
            f"bytes={commitment.total_bytes:<10} "
            f"head={commitment.chain_head.hex()[:16]} "
            f"root={commitment.merkle_root.hex()[:16]}"
        )
        if "deadline_rejections" in stats:
            print(
                f"{'':<28} deadline_expired={stats['deadline_rejections']}"
            )
    evidence = detector.check()
    for item in evidence:
        print(
            f"DIVERGENCE at {item.entries} entries: "
            + ", ".join(f"{label}={root.hex()[:16]}" for label, root in item.roots)
        )
    if evidence:
        return 2
    return 1 if unreachable else 0


def _load_public_key(path: str) -> PublicKey:
    """Read a logger public key file: raw ``PublicKey.to_bytes()`` output,
    or the same bytes hex-encoded (what ``sth`` prints)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise SystemExit(f"cannot read key file {path}: {exc}")
    try:
        return PublicKey.from_bytes(blob)
    except Exception:
        pass
    try:
        return PublicKey.from_bytes(bytes.fromhex(blob.decode("ascii").strip()))
    except Exception:
        raise SystemExit(f"{path} is not a logger public key (raw or hex)")


def _cmd_sth(args: argparse.Namespace) -> int:
    """Fetch each replica's signed tree head; cross-check for split views.

    With ``--key`` the heads are signature-verified and any conflict is
    *proven* equivocation (exit 2); without it the command only reports
    what each replica claims.
    """
    key = _load_public_key(args.key) if args.key else None
    relay = GossipRelay("cli")
    unreachable = 0
    bad_signature = 0
    for value in args.replica:
        client = RemoteLogger(_parse_address(value))
        try:
            sth = client.fetch_sth(timeout=args.timeout, shard=args.shard)
        except LoggingError as exc:
            print(f"{value:<28} UNREACHABLE ({exc})")
            unreachable += 1
            continue
        finally:
            client.close()
        if key is not None:
            relay.register_key(sth.log_id, key)
            verdict = "sig=OK" if sth.verify(key) else "sig=BAD"
            if verdict == "sig=BAD":
                bad_signature += 1
        else:
            verdict = "sig=unverified"
        relay.observe(sth, source=value)
        print(
            f"{value:<28} log={sth.log_id} scope={sth.scope} "
            f"entries={sth.entries:<8} root={sth.merkle_root.hex()[:16]} "
            f"head={sth.chain_head.hex()[:16]} {verdict}"
        )
    for item in relay.evidence():
        print(f"EQUIVOCATION: {item.describe()}")
    if relay.evidence() or bad_signature:
        return 2
    return 1 if unreachable else 0


def _cmd_proof(args: argparse.Namespace) -> int:
    """Verify one record's inclusion against the replica's signed head.

    Fetches the record, the latest STH, and an inclusion proof at the
    STH's tree size, then checks the proof against the signed root (and,
    with ``--key``, the STH signature itself).  Exit 2 on any failure:
    the logger is claiming a history that does not contain this record.
    """
    client = RemoteLogger(_parse_address(args.replica))
    try:
        try:
            sth = client.fetch_sth(timeout=args.timeout, shard=args.shard)
        except LoggingError as exc:
            print(f"cannot fetch STH: {exc}")
            return 2
        if args.key:
            key = _load_public_key(args.key)
            if not sth.verify(key):
                print(f"STH signature INVALID for log {sth.log_id}")
                return 2
        if args.index >= sth.entries:
            print(
                f"index {args.index} is beyond the signed head "
                f"({sth.entries} entries)"
            )
            return 2
        try:
            records = client.fetch_records(
                start=args.index, count=1, timeout=args.timeout,
                shard=args.shard,
            )
            proof = client.prove_inclusion(
                args.index, tree_size=sth.entries, timeout=args.timeout,
                shard=args.shard,
            )
        except ProofError as exc:
            print(f"proof REFUSED: {exc}")
            return 2
        except LoggingError as exc:
            print(f"cannot fetch proof: {exc}")
            return 2
        if not records:
            print(f"no record at index {args.index}")
            return 2
        if not proof.verify(records[0], sth.merkle_root):
            print(
                f"inclusion proof INVALID: record {args.index} is not in "
                f"the signed tree (root {sth.merkle_root.hex()[:16]})"
            )
            return 2
        sig_note = "signature verified" if args.key else "signature unverified"
        print(
            f"record {args.index} INCLUDED in log {sth.log_id} at size "
            f"{sth.entries} (root {sth.merkle_root.hex()[:16]}, {sig_note})"
        )
        return 0
    finally:
        client.close()


def _cmd_replicas(args: argparse.Namespace) -> int:
    """Replica-set status: per-replica health, breaker, lag, quorum."""
    config = ReplicationConfig(quorum=args.quorum)
    logger_set = ReplicatedLogger(
        [_parse_address(value) for value in args.replica], config=config
    )
    try:
        if args.key:
            logger_set.enable_sth_gossip(_load_public_key(args.key))
        logger_set.probe()
        for status in logger_set.statuses():
            if status.entries is None:
                detail = f"UNREACHABLE ({status.last_error})"
            else:
                detail = (
                    f"entries={status.entries:<8} lag={status.lag:<6} "
                    f"root={status.merkle_root.hex()[:16]}"
                )
            print(
                f"replica-{status.index} {args.replica[status.index]:<24} "
                f"breaker={status.breaker:<9} {detail}"
            )
        # One-shot probe: judge quorum on what actually answered (a single
        # failed health is below the breaker threshold, so breaker state
        # alone would call a dead replica healthy here).
        statuses = logger_set.statuses()
        healthy = sum(
            1
            for s in statuses
            if s.entries is not None and s.breaker != "open"
        )
        quorum_status = logger_set.quorum_status()
        quorum_met = healthy >= quorum_status["quorum"]
        print(
            f"quorum: {healthy}/{quorum_status['replicas']} healthy, "
            f"{quorum_status['quorum']} required -> "
            + ("MET" if quorum_met else "NOT MET")
        )
        evidence = logger_set.divergence()
        for item in evidence:
            print(
                f"DIVERGENCE at {item.entries} entries: "
                + ", ".join(
                    f"{label}={root.hex()[:16]}" for label, root in item.roots
                )
            )
        equivocation = logger_set.equivocation()
        for item in equivocation:
            print(f"EQUIVOCATION: {item.describe()}")
        if args.audit:
            audit_clients = [
                RemoteLogger(_parse_address(value)) for value in args.replica
            ]
            try:
                result = audit_replica_set(audit_clients, quorum=args.quorum)
            finally:
                for client in audit_clients:
                    client.close()
            print(
                f"audited replica-{result.audited_replica} "
                f"({result.audited_entries} entries, "
                f"common prefix {result.common_prefix}): "
                f"{len(result.report.valid_entries())} valid"
            )
        if evidence or equivocation:
            return 2
        return 0 if quorum_met else 1
    finally:
        logger_set.close()


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("case", nargs="?", default=None)
    parser.add_argument(
        "--store",
        default=None,
        metavar="STORE_DIR",
        help="operate on a durable log-store directory instead of a case",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="open --store as a sharded layout of N shard directories",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Third-party investigation of ADLP evidence bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check tamper evidence")
    _add_source_arguments(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_inspect = sub.add_parser("inspect", help="list log entries")
    _add_source_arguments(p_inspect)
    p_inspect.add_argument("--component", default=None)
    p_inspect.add_argument("--topic", default=None)
    p_inspect.add_argument("--limit", type=int, default=50)
    p_inspect.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="I",
        help="list only shard I's entries (with --shards)",
    )
    p_inspect.set_defaults(func=_cmd_inspect)

    p_audit = sub.add_parser("audit", help="classify all entries")
    _add_source_arguments(p_audit)
    p_audit.add_argument(
        "--publisher",
        action="append",
        default=[],
        metavar="TOPIC=COMPONENT",
        help="declare a topic's unique publisher (repeatable)",
    )
    p_audit.add_argument("--max-findings", type=int, default=20)
    p_audit.set_defaults(func=_cmd_audit)

    p_trace = sub.add_parser("trace", help="provenance lineage of one datum")
    p_trace.add_argument("case")
    p_trace.add_argument("topic")
    p_trace.add_argument("seq", type=int)
    p_trace.set_defaults(func=_cmd_trace)

    p_recover = sub.add_parser(
        "recover", help="replay a durable store's WAL after a crash"
    )
    p_recover.add_argument("store_dir")
    p_recover.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="recover all N shard directories of a sharded layout",
    )
    p_recover.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="I",
        help="recover only shard I's directory",
    )
    p_recover.set_defaults(func=_cmd_recover)

    p_health = sub.add_parser(
        "health", help="probe live log-server replicas' commitments"
    )
    p_health.add_argument("replica", nargs="+", metavar="HOST:PORT")
    p_health.add_argument("--timeout", type=float, default=2.0)
    p_health.set_defaults(func=_cmd_health)

    p_replicas = sub.add_parser(
        "replicas", help="replica-set status: breakers, lag, quorum"
    )
    p_replicas.add_argument("replica", nargs="+", metavar="HOST:PORT")
    p_replicas.add_argument(
        "--quorum",
        type=int,
        default=None,
        help="required agreeing replicas (default: majority)",
    )
    p_replicas.add_argument(
        "--audit",
        action="store_true",
        help="also audit the quorum-consistent view",
    )
    p_replicas.add_argument(
        "--key",
        default=None,
        metavar="KEY_FILE",
        help="logger public key: also gossip signed tree heads across "
        "the replicas and report proven equivocation",
    )
    p_replicas.set_defaults(func=_cmd_replicas)

    p_sth = sub.add_parser(
        "sth", help="fetch signed tree heads; cross-check for split views"
    )
    p_sth.add_argument("replica", nargs="+", metavar="HOST:PORT")
    p_sth.add_argument("--timeout", type=float, default=2.0)
    p_sth.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="I",
        help="fetch shard I's head instead of the whole-log/set head",
    )
    p_sth.add_argument(
        "--key",
        default=None,
        metavar="KEY_FILE",
        help="logger public key (raw or hex file): verify signatures, "
        "making any conflict proven equivocation",
    )
    p_sth.set_defaults(func=_cmd_sth)

    p_proof = sub.add_parser(
        "proof", help="verify one record's inclusion against the signed head"
    )
    p_proof.add_argument("replica", metavar="HOST:PORT")
    p_proof.add_argument("index", type=int, metavar="INDEX")
    p_proof.add_argument("--timeout", type=float, default=2.0)
    p_proof.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="I",
        help="prove within shard I (sharded servers)",
    )
    p_proof.add_argument(
        "--key",
        default=None,
        metavar="KEY_FILE",
        help="logger public key: also verify the STH signature",
    )
    p_proof.set_defaults(func=_cmd_proof)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
