"""Engineering benchmark (beyond the paper): the proof plane.

What does split-view detection cost the logger and its clients?  Three
rates bound it:

- **STH issuance** -- one RSA signature over a fixed-size payload; the
  logger pays this per gossip epoch, not per entry.
- **Inclusion prove+verify** -- a Merkle path build (server) plus a
  hash walk (client); the per-entry client-audit cost.
- **Consistency prove+verify** -- the RFC 6962 subproof between two
  sizes; paid once per observed head growth.

All three are entry-count-logarithmic or constant, so the numbers here
are what makes "every client verifies continuously" a defensible
deployment mode.  ``test_prove_time_size_sweep`` is the evidence for
"logarithmic": it times one inclusion proof at three log sizes a decade
apart (1e3 / 1e4 / 1e5) and fails if a hundredfold larger log makes a
proof ten times slower.  Set ``REPRO_BENCH_SMOKE=1`` for a tiny CI-sized
workload.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.reporting import Table, save_results
from repro.core import LogServer
from repro.core.entries import Direction, LogEntry, Scheme
from repro.crypto.merkle import MerkleFrontier, MerkleTree

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
ENTRIES = 256 if SMOKE else 4096
PROOF_ROUNDS = 1 if SMOKE else 3
SWEEP_SIZES = (250, 1000, 4000) if SMOKE else (1000, 10_000, 100_000)

_results: dict = {}


@pytest.fixture(scope="module")
def signed_server(bench_keys):
    """A signing server pre-loaded with ENTRIES records."""
    server = LogServer(signer=bench_keys[0].private, log_id="bench-proofs")
    payload = b"x" * 256
    for seq in range(ENTRIES):
        server.submit(LogEntry(
            component_id="/pub", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
            data=payload,
        ))
    return server


def test_sth_issuance_rate(benchmark, signed_server, bench_keys):
    sth = benchmark(signed_server.signed_tree_head)
    assert sth.verify(bench_keys[0].public)
    _results["sth_per_second"] = 1.0 / benchmark.stats.stats.mean


def test_inclusion_prove_verify_rate(benchmark, signed_server):
    records = signed_server.raw_records(0, ENTRIES)
    root = signed_server.merkle_root()
    indexes = range(0, ENTRIES, max(1, ENTRIES // 64))

    def prove_and_verify():
        for index in indexes:
            proof = signed_server.prove_inclusion(index)
            assert proof.verify(records[index], root)

    benchmark.pedantic(prove_and_verify, rounds=PROOF_ROUNDS, warmup_rounds=0)
    _results["inclusion_proofs_per_second"] = (
        len(list(indexes)) / benchmark.stats.stats.mean
    )


def test_consistency_prove_verify_rate(benchmark, signed_server):
    root = signed_server.merkle_root()
    sizes = list(range(1, ENTRIES, max(1, ENTRIES // 64)))
    # what a monitor holds: roots it computed itself over the prefix
    old_roots, prefix = {}, MerkleFrontier()
    for size, record in enumerate(signed_server.raw_records(0, sizes[-1]), 1):
        prefix.append(record)
        if size in sizes:
            old_roots[size] = prefix.root()

    def prove_and_verify():
        for old in sizes:
            proof = signed_server.prove_consistency(old, ENTRIES)
            assert proof.verify(old_roots[old], root)

    benchmark.pedantic(prove_and_verify, rounds=PROOF_ROUNDS, warmup_rounds=0)
    _results["consistency_proofs_per_second"] = (
        len(list(sizes)) / benchmark.stats.stats.mean
    )


def test_prove_time_size_sweep(benchmark):
    """One inclusion proof against the newest root, at three log sizes."""
    benchmark(lambda: None)
    tree, per_proof_us = MerkleTree(), {}
    for size in SWEEP_SIZES:
        for index in range(len(tree), size):
            tree.append(b"%0256d" % index)
        indexes = range(0, size, size // 200)
        best = float("inf")
        for _ in range(5):
            began = time.perf_counter()
            for index in indexes:
                tree.prove(index, size)
            best = min(best, (time.perf_counter() - began) / len(indexes))
        per_proof_us[size] = best * 1e6
    _results["prove_us_by_entries"] = per_proof_us
    smallest, largest = SWEEP_SIZES[0], SWEEP_SIZES[-1]
    assert per_proof_us[largest] < 10 * per_proof_us[smallest], per_proof_us


def test_report_proofs(benchmark, signed_server):
    benchmark(lambda: None)
    table = Table(
        f"Proof plane throughput ({ENTRIES}-entry log, RSA-1024 STH)",
        ["Operation", "Ops/s"],
    )
    table.add_row("STH issuance", _results["sth_per_second"])
    table.add_row("Inclusion prove+verify", _results["inclusion_proofs_per_second"])
    table.add_row("Consistency prove+verify", _results["consistency_proofs_per_second"])
    table.show()
    sweep = Table("Inclusion proof build time by log size", ["Entries", "us/proof"])
    for size, value in _results["prove_us_by_entries"].items():
        sweep.add_row(size, value)
    sweep.show()
    _results["entries"] = ENTRIES
    save_results("proofs", _results)
    # Proof building is hashing-bound (no RSA): even the smoke workload
    # should clear hundreds of proofs per second.
    assert _results["inclusion_proofs_per_second"] > 100
    assert _results["consistency_proofs_per_second"] > 100
