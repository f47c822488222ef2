"""Figure 14: Image publisher's CPU utilization vs number of subscribers,
for (i) no logging, (ii) base logging, (iii) ADLP.

Expected shape:
- base logging adds a small per-publication overhead over no-logging;
- ADLP adds crypto on top, but that crypto cost is ~fixed w.r.t. the
  number of subscribers (hash+sign happen once per publication), so the
  ADLP-base gap does NOT grow linearly with subscriber count.

Publisher CPU is measured per-thread via /proc (the publisher node's
threads only), the in-process analogue of the paper's per-process
accounting.
"""

import time

import pytest

from repro.bench.cpu import ThreadGroupCpuSampler, threads_matching
from repro.bench.reporting import Table, save_results
from repro.bench.workloads import payload_of_size
from repro.core import AdlpProtocol, LogServer, NaiveProtocol
from repro.core.policy import AdlpConfig
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes

SCHEMES = ["none", "naive", "adlp"]
SUBSCRIBER_COUNTS = [1, 2, 4]
PUBLISH_HZ = 20.0  # the paper's camera rate
MEASURE_S = 2.5
IMAGE = payload_of_size(921641)

_results = {}


def _protocol(scheme, name, server, keys, index):
    if scheme == "none":
        return None
    if scheme == "naive":
        return NaiveProtocol(name, server.submit_batch)
    config = AdlpConfig(key_bits=1024, ack_timeout=10.0)
    return AdlpProtocol(name, server, config=config, keypair=keys[index])


def _measure(scheme, n_subscribers, keys):
    master = Master()
    server = LogServer()
    pub_node = Node("/pub", master, protocol=_protocol(scheme, "/pub", server, keys, 0))
    nodes = [pub_node]
    subs = []
    for i in range(n_subscribers):
        node = Node(
            f"/sub{i}",
            master,
            protocol=_protocol(scheme, f"/sub{i}", server, keys, 1 + i),
        )
        nodes.append(node)
        subs.append(node.subscribe("/image", RawBytes, lambda m: None))
    try:
        pub = pub_node.advertise("/image", RawBytes, queue_size=4)
        assert pub.wait_for_subscribers(n_subscribers, timeout=10.0)
        pub_node.create_timer(PUBLISH_HZ, lambda: pub.publish(RawBytes(data=IMAGE)))
        time.sleep(0.5)  # warm up the pipeline
        # every thread working for the publisher node: per-subscriber link
        # workers, the accept thread, the publish timer, the logging thread
        ids = threads_matching(
            lambda t: t.name.startswith(("publink-", "pubaccept-"))
            or t.name in ("logging-/pub", "timer-/pub")
        )
        sampler = ThreadGroupCpuSampler(ids)
        sampler.start()
        deadline = time.monotonic() + MEASURE_S
        while time.monotonic() < deadline:
            time.sleep(0.1)
            sampler.sample()
        cpu = sampler.stop()
        stats = getattr(pub_node.protocol, "stats", None)
        signatures = getattr(stats, "signatures", 0) if stats else 0
        published = pub.stats.published
        return cpu, signatures, published
    finally:
        for node in nodes:
            node.shutdown()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_publisher_cpu(benchmark, bench_keys, scheme):
    per_count = {}
    for count in SUBSCRIBER_COUNTS:
        cpu, signatures, published = _measure(scheme, count, bench_keys)
        per_count[str(count)] = cpu
        per_count[f"sig_per_pub_{count}"] = (
            signatures / published if published else 0.0
        )
    _results[scheme] = per_count
    benchmark.pedantic(lambda: None, rounds=1)  # measurement happens above


def test_report_fig14(benchmark, bench_keys):
    benchmark(lambda: None)
    table = Table(
        "Figure 14 -- Image publisher CPU%% vs subscribers (20 Hz, ~900 KB)",
        ["Subscribers"] + SCHEMES,
    )
    for count in SUBSCRIBER_COUNTS:
        table.add_row(count, *[_results[s][str(count)] for s in SCHEMES])
    table.show()
    save_results("fig14", _results)

    for count in SUBSCRIBER_COUNTS:
        key = str(count)
        # Shape 1: ADLP costs more than no-logging everywhere.
        assert _results["adlp"][key] > _results["none"][key]
    # Shape 2 (the paper's key claim): hashing+signing happen once per
    # publication regardless of subscriber count.  CPU% is noisy on shared
    # machines, so the claim is asserted exactly via the crypto counters:
    # one signature per publication at every fan-out level.
    for count in SUBSCRIBER_COUNTS:
        ratio = _results["adlp"][f"sig_per_pub_{count}"]
        assert ratio == pytest.approx(1.0, abs=0.15), (count, ratio)
