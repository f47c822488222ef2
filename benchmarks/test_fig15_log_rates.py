"""Figure 15: log generation rate (bytes/s at the trusted logger) for
Steering data and Image data, under three configurations:

- Base: naive logging, subscriber stores data as-is;
- ADLP h(D''): ADLP with the subscriber storing the hash;
- ADLP D'': ADLP with the subscriber storing the data as-is.

Expected shape: for Image data, the h(D) option collapses the subscriber's
contribution (~921 KB -> ~350 B per entry), so ADLP-h(D) generates far
less log volume than ADLP-D; for tiny Steering data the three are
comparable and ADLP's signatures dominate.
"""

import time

import pytest

from repro.bench.rates import measure_log_rate
from repro.bench.reporting import Table, save_results
from repro.bench.workloads import payload_of_size
from repro.core import AdlpProtocol, LogServer, NaiveProtocol
from repro.core.policy import AdlpConfig
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes

MEASURE_S = 2.0

#: (label, payload size, publish rate) -- Steering at 50 Hz, Image at 20 Hz
WORKLOADS = [("Steering", 20, 50.0), ("Image", 921641, 20.0)]
VARIANTS = ["base", "adlp_hash", "adlp_data"]

_results = {}


def _protocols(variant, server, keys):
    if variant == "base":
        return (
            NaiveProtocol("/pub", server.submit_batch),
            NaiveProtocol("/sub", server.submit_batch),
        )
    stores_hash = variant == "adlp_hash"
    config = AdlpConfig(
        key_bits=1024, subscriber_stores_hash=stores_hash, ack_timeout=10.0
    )
    return (
        AdlpProtocol("/pub", server, config=config, keypair=keys[0]),
        AdlpProtocol("/sub", server, config=config, keypair=keys[1]),
    )


def _measure(variant, size, hz, keys):
    master = Master()
    server = LogServer()
    pub_protocol, sub_protocol = _protocols(variant, server, keys)
    pub_node = Node("/pub", master, protocol=pub_protocol)
    sub_node = Node("/sub", master, protocol=sub_protocol)
    payload = payload_of_size(size)
    try:
        sub_node.subscribe("/data", RawBytes, lambda m: None)
        pub = pub_node.advertise("/data", RawBytes, queue_size=4)
        assert pub.wait_for_subscribers(1, timeout=10.0)
        pub_node.create_timer(hz, lambda: pub.publish(RawBytes(data=payload)))
        time.sleep(0.5)  # warm up
        rate = measure_log_rate(server, MEASURE_S)
        return rate
    finally:
        pub_node.shutdown()
        sub_node.shutdown()


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_log_rates(benchmark, bench_keys, workload):
    label, size, hz = workload
    per_variant = {}
    for variant in VARIANTS:
        rate = _measure(variant, size, hz, bench_keys)
        per_variant[variant] = {
            "bytes_per_s": rate.bytes_per_second,
            "entries_per_s": rate.entries_per_second,
        }
    _results[label] = per_variant
    benchmark.pedantic(lambda: None, rounds=1)


def test_report_fig15(benchmark, bench_keys):
    benchmark(lambda: None)
    table = Table(
        "Figure 15 -- log generation rate (KB/s)",
        ["Workload", "Base", "ADLP h(D)", "ADLP D"],
    )
    for label, _, _ in WORKLOADS:
        row = _results[label]
        table.add_row(
            label,
            row["base"]["bytes_per_s"] / 1e3,
            row["adlp_hash"]["bytes_per_s"] / 1e3,
            row["adlp_data"]["bytes_per_s"] / 1e3,
        )
    table.show()
    save_results("fig15", _results)

    image = _results["Image"]
    # Shape 1 (the headline): storing h(D) collapses Image log volume
    # relative to storing D -- the subscriber side drops from ~1 MB to
    # ~350 B per entry, so ADLP-h(D) is far below ADLP-D.
    assert (
        image["adlp_hash"]["bytes_per_s"] < 0.7 * image["adlp_data"]["bytes_per_s"]
    )
    # Shape 2: ADLP-h(D) also undercuts Base for Image (Base logs D twice).
    assert image["adlp_hash"]["bytes_per_s"] < image["base"]["bytes_per_s"]
    # Shape 3: for tiny Steering data ADLP logs MORE than base (signature
    # overhead dominates small payloads).
    steering = _results["Steering"]
    assert steering["adlp_hash"]["bytes_per_s"] > steering["base"]["bytes_per_s"]
