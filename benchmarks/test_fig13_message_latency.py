"""Figure 13: average publisher->subscriber message latency vs payload
size, naive (baseline) vs ADLP, over TCP.

Expected shape: ADLP's latency ~= baseline + ~2 x (hash+sign), because the
publisher signs once and the subscriber hashes+signs again for the ACK
before delivering; the gap is roughly constant in absolute terms and
therefore shrinks relatively as payloads grow.
"""

import threading
import time

import pytest

from repro.bench.reporting import Table, save_results
from repro.bench.workloads import payload_of_size
from repro.core import AdlpProtocol, LogServer, NaiveProtocol
from repro.middleware import Master, Node
from repro.middleware.msgtypes import RawBytes
from repro.middleware.transport import TcpTransport

#: payload sizes measured (paper sweeps small..~1MB)
SIZES = [20, 1024, 8705, 65536, 262144, 921641]
MESSAGES_PER_SIZE = 30

_results = {}


class _LatencyProbe:
    """Measures publish->deliver latency via a callback rendezvous."""

    def __init__(self, node, pub_node, msg_class):
        self.received = threading.Event()
        self.sub = node.subscribe("/bench", msg_class, self._on_msg)
        self.pub = pub_node.advertise("/bench", msg_class, queue_size=4)
        assert self.pub.wait_for_subscribers(1, timeout=10.0)

    def _on_msg(self, msg):
        self.received.set()

    def roundtrip(self, msg) -> float:
        self.received.clear()
        t0 = time.perf_counter()
        self.pub.publish(msg)
        assert self.received.wait(10.0), "message lost"
        return time.perf_counter() - t0


def _measure_scheme(scheme: str, keys) -> dict:
    master = Master(transport=TcpTransport())
    server = LogServer()
    if scheme == "naive":
        pub_protocol = NaiveProtocol("/pub", server.submit_batch)
        sub_protocol = NaiveProtocol("/sub", server.submit_batch)
    else:
        from repro.core.policy import AdlpConfig

        config = AdlpConfig(key_bits=1024, ack_timeout=10.0)
        pub_protocol = AdlpProtocol("/pub", server, config=config, keypair=keys[0])
        sub_protocol = AdlpProtocol("/sub", server, config=config, keypair=keys[1])
    pub_node = Node("/pub", master, protocol=pub_protocol)
    sub_node = Node("/sub", master, protocol=sub_protocol)
    latencies = {}
    try:
        probe = _LatencyProbe(sub_node, pub_node, RawBytes)
        for size in SIZES:
            payload = payload_of_size(size)
            msg = RawBytes(data=payload)
            samples = []
            for _ in range(3):  # warmup
                probe.roundtrip(RawBytes(data=payload))
            for _ in range(MESSAGES_PER_SIZE):
                samples.append(probe.roundtrip(RawBytes(data=payload)))
            latencies[size] = sum(samples) / len(samples)
    finally:
        pub_node.shutdown()
        sub_node.shutdown()
    return latencies


@pytest.mark.parametrize("scheme", ["naive", "adlp"])
def test_latency_sweep(benchmark, bench_keys, scheme):
    latencies = _measure_scheme(scheme, bench_keys)
    _results[scheme] = {str(size): value * 1e3 for size, value in latencies.items()}

    # register a representative single-message latency with pytest-benchmark
    master = Master(transport=TcpTransport())
    server = LogServer()
    if scheme == "naive":
        protocols = NaiveProtocol("/pub", server.submit_batch), NaiveProtocol("/sub", server.submit_batch)
    else:
        from repro.core.policy import AdlpConfig

        config = AdlpConfig(key_bits=1024, ack_timeout=10.0)
        protocols = (
            AdlpProtocol("/pub", server, config=config, keypair=bench_keys[0]),
            AdlpProtocol("/sub", server, config=config, keypair=bench_keys[1]),
        )
    pub_node = Node("/pub", master, protocol=protocols[0])
    sub_node = Node("/sub", master, protocol=protocols[1])
    try:
        probe = _LatencyProbe(sub_node, pub_node, RawBytes)
        payload = payload_of_size(8705)
        benchmark.pedantic(
            lambda: probe.roundtrip(RawBytes(data=payload)),
            rounds=20,
            warmup_rounds=3,
        )
    finally:
        pub_node.shutdown()
        sub_node.shutdown()


def test_report_fig13(benchmark, bench_keys):
    benchmark(lambda: None)
    table = Table(
        "Figure 13 -- avg message latency pub->sub over TCP (ms)",
        ["Size (B)", "Baseline", "ADLP", "ADLP - Baseline"],
    )
    for size in SIZES:
        base = _results["naive"][str(size)]
        adlp = _results["adlp"][str(size)]
        table.add_row(size, base, adlp, adlp - base)
    table.show()
    save_results("fig13", _results)

    # Shape 1: ADLP is slower than baseline at every size.
    for size in SIZES:
        assert _results["adlp"][str(size)] > _results["naive"][str(size)]
    # Shape 2: the ADLP-baseline gap is on the order of 2x(hash+sign) --
    # we accept 0.5x..8x of two signing operations (~2 x ~1.7 ms) to keep
    # the check robust on shared machines.
    gaps = [
        _results["adlp"][str(size)] - _results["naive"][str(size)] for size in SIZES
    ]
    for gap in gaps:
        assert 0.5 < gap < 30.0
