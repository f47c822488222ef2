"""Engineering benchmark (beyond the paper): auditor throughput.

How fast can a third party classify evidence?  Dominated by two RSA
verifications per entry (own signature + counterpart signature).  Useful
for sizing post-incident analysis: at ~N entries/s, a minute of the
self-driving app's log (~350 entries/s under ADLP) audits in a few
seconds.
"""

import pytest

from repro.audit import Auditor, Topology
from benchmarks.harness import Table, save_results
from repro.core import LogServer
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest

ENTRY_PAIRS = 200

_results = {}


@pytest.fixture(scope="module")
def prepared(bench_keys):
    """A server holding ENTRY_PAIRS consistent transmissions."""
    server = LogServer()
    server.register_key("/pub", bench_keys[0].public)
    server.register_key("/sub", bench_keys[1].public)
    payload = b"x" * 256
    for seq in range(1, ENTRY_PAIRS + 1):
        digest = message_digest(seq, payload)
        s_x = bench_keys[0].private.sign_digest(digest)
        s_y = bench_keys[1].private.sign_digest(digest)
        server.submit(LogEntry(
            component_id="/pub", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
            data=payload, own_sig=s_x, peer_id="/sub",
            peer_hash=digest, peer_sig=s_y,
        ))
        server.submit(LogEntry(
            component_id="/sub", topic="/t", type_name="std/String",
            direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
            data_hash=digest, own_sig=s_y, peer_id="/pub", peer_sig=s_x,
        ))
    topology = Topology(publisher_of={"/t": "/pub"})
    return server, topology


def test_audit_throughput(benchmark, prepared):
    server, topology = prepared
    auditor = Auditor.for_server(server, topology)
    entries = server.entries()

    report = benchmark(auditor.audit, entries)
    assert len(report.valid_entries()) == 2 * ENTRY_PAIRS

    stats = benchmark.stats.stats
    entries_per_s = len(entries) / stats.mean
    _results["entries_per_second"] = entries_per_s
    _results["entries"] = len(entries)


def test_report_auditor(benchmark, prepared):
    benchmark(lambda: None)
    table = Table(
        "Auditor throughput (RSA-1024 verification-bound)",
        ["Entries", "Entries/s"],
    )
    table.add_row(_results["entries"], _results["entries_per_second"])
    table.show()
    save_results("bench_auditor", _results)
    # Two pure-Python RSA verifications per entry (~70 us each) plus
    # pairing overhead: expect comfortably above 1k entries/s.
    assert _results["entries_per_second"] > 500
