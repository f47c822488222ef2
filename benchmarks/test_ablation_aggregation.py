"""Ablation: per-subscriber publisher entries vs §VI-E aggregated logging.

Measures publisher-side log bytes per publication as the subscriber count
grows.  Expected: per-subscriber entries scale linearly with fan-out (the
~|D|-sized payload is duplicated per subscriber); aggregated entries stay
~flat (one payload copy + one hash/signature pair per subscriber).
"""

import time

import pytest

from benchmarks.harness import Table, save_results, payload_of_size
from repro.core import AdlpProtocol, Direction, LogServer
from repro.core.policy import AdlpConfig
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes
from repro.util.concurrency import wait_for

SUBSCRIBER_COUNTS = [1, 2, 4]
MESSAGES = 10
PAYLOAD = payload_of_size(65536)

_results = {}


def _publisher_bytes_per_publication(aggregate: bool, n_subs: int, keys) -> float:
    config = AdlpConfig(
        key_bits=1024,
        aggregate_publisher_entries=aggregate,
        aggregation_window=0.05,
        ack_timeout=10.0,
    )
    master = Master()
    server = LogServer()
    pub_protocol = AdlpProtocol("/pub", server, config=config, keypair=keys[0])
    pub_node = Node("/pub", master, protocol=pub_protocol)
    nodes = [pub_node]
    subs = []
    for i in range(n_subs):
        protocol = AdlpProtocol(
            f"/sub{i}", server, config=AdlpConfig(key_bits=1024), keypair=keys[1 + i]
        )
        node = Node(f"/sub{i}", master, protocol=protocol)
        nodes.append(node)
        subs.append(node.subscribe("/data", RawBytes, lambda m: None))
    try:
        pub = pub_node.advertise("/data", RawBytes, queue_size=32)
        assert pub.wait_for_subscribers(n_subs, timeout=10.0)
        for _ in range(MESSAGES):
            pub.publish(RawBytes(data=PAYLOAD))
        assert wait_for(
            lambda: pub_protocol.stats.acks_received >= MESSAGES * n_subs,
            timeout=30.0,
        )
        time.sleep(0.15)  # let the aggregation window close
    finally:
        for node in nodes:
            node.shutdown()
        pub_protocol.flush()
    total = sum(
        e.encoded_size()
        for e in server.entries(component_id="/pub", direction=Direction.OUT)
    )
    return total / MESSAGES


@pytest.mark.parametrize("aggregate", [False, True], ids=["per_subscriber", "aggregated"])
def test_aggregation(benchmark, bench_keys, aggregate):
    label = "aggregated" if aggregate else "per_subscriber"
    per_count = {}
    for count in SUBSCRIBER_COUNTS:
        per_count[str(count)] = _publisher_bytes_per_publication(
            aggregate, count, bench_keys
        )
    _results[label] = per_count
    benchmark.pedantic(lambda: None, rounds=1)


def test_report_aggregation(benchmark, bench_keys):
    benchmark(lambda: None)
    table = Table(
        "Ablation -- publisher log bytes per publication (64 KiB payload)",
        ["Subscribers", "Per-subscriber entries", "Aggregated (§VI-E)"],
    )
    for count in SUBSCRIBER_COUNTS:
        table.add_row(
            count,
            _results["per_subscriber"][str(count)],
            _results["aggregated"][str(count)],
        )
    table.show()
    save_results("ablation_aggregation", _results)

    per_sub = _results["per_subscriber"]
    agg = _results["aggregated"]
    # per-subscriber entries duplicate the payload linearly with fan-out
    assert per_sub["4"] > 3.0 * per_sub["1"]
    # aggregation keeps publisher volume ~flat (only +hash+sig per sub)
    assert agg["4"] < 1.2 * agg["1"]
    # and aggregation always wins at fan-out > 1
    assert agg["4"] < per_sub["4"]
