"""Turns a window's :class:`~.workloads.Measurement` (and, for the traced
pass, its spans) into the metrics ``BENCHMARK.json`` declares.

``BENCHMARK.json`` is the single list of metric names, units and bounds;
this module computes a value for every name in it and refuses to run if
the two ever disagree (:func:`attach_units`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, FrozenSet, List

from .stats import median, slice_rates, supported_tail
from .tracing import SpanTable, Tracer
from .workloads import Measurement, Workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


#: Spans whose self time is waiting for work recorded in other spans (a
#: sync RPC in flight, the publisher link's wait for the ACK).
WAIT_SPANS = frozenset({"rpc_submit", "rpc_prove", "on_link_send"})


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def attach_units(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(
            f"BENCHMARK.json and the benchmark disagree: not computed {missing}, "
            f"not declared {extra}"
        )
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    """The gated metrics; every workload reports all of them.

    ``latency_ms_p50`` is what the caller of one request waits for and
    ``evidence_ms_p50`` when that request's evidence is held (or proven)
    by the trusted logger; the README maps both to ``deliver`` /
    ``logged`` / ``batch_ack`` / ``prove`` / ``audit_pass`` per workload.
    ``ops_per_s`` is the median over equal op-count slices of the window,
    so one fsync stall does not move it.
    """
    return {
        "setup_s": setup_s,
        "latency_ms_p50": _ms(median(m.latency)),
        "evidence_ms_p50": _ms(median(m.evidence)),
        "ops_per_s": median(slice_rates(m.completions)),
        "cpu_ms_per_op": _ms(m.cpu_s) / max(1, m.ops),
        "peak_rss_mb": m.peak_rss_mb,
        "stored_bytes_per_user_byte": m.stored_bytes / max(1, m.user_bytes),
    }


def filler(params: Dict[str, Any]) -> FrozenSet[str]:
    """Gated metrics that say nothing of their own on this workload.

    The result line carries every metric on every workload because the
    driver's contract wants it so; the printed rows and ``compare`` leave
    these cells out.
    """
    names = set()
    if params["loop"] == "open":
        names.add("ops_per_s")  # the offered rate, for as long as the system keeps up
    if params["kind"] != "pubsub" and not params.get("reads_hz"):
        names.add("evidence_ms_p50")  # the same samples as latency_ms_p50
    return frozenset(names)


def tails(m: Measurement) -> Dict[str, dict]:
    """Highest supported percentile (at most p99) of each sample set, with
    the percentile actually used and the sample count."""
    sets = {
        "tail.deliver_ms_p99": m.named.get("deliver", ()),
        "tail.logged_ms_p99": m.named.get("logged", ()),
        "tail.batch_ack_ms_p99": m.named.get("batch_ack", ()),
        "tail.prove_ms_p99": m.named.get("prove", ()),
        "tail.generator_late_ms_p99": m.lateness,
    }
    out = {}
    for name, samples in sets.items():
        fraction, value = supported_tail(samples)
        out[name] = {"value": _ms(value), "percentile": fraction * 100, "n": len(samples)}
    return out


def per_layer(workload: Workload, reference: Measurement, traced: Measurement,
              tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced window.  ``per_op`` metrics are the
    layer's *self* time summed over the window / operations attempted."""
    table = SpanTable(tracer.spans)
    counters = traced.counters
    ops = max(1, traced.ops)
    kind = workload.params["kind"]

    def per_op(spans) -> float:
        return _ms(table.self_sum(spans)) / ops

    def per(spans_time: float, count: float) -> float:
        return _ms(spans_time) / count if count else 0.0

    sign = table.select("crypto", "sign")
    verify = table.select("crypto", "verify")
    encodes = [s for s in table.select("serialization") if s.name.startswith("encode")]
    decodes = [s for s in table.select("serialization") if s.name.startswith("decode")]
    outer_encodes = [
        s for s in encodes
        if not (table.by_id.get(s.parent) and table.by_id[s.parent].name.startswith("encode"))
    ]
    link_sends = table.select("middleware", "send_frame")
    remote_sends = table.select("remote", "send_frame")
    client_submits = table.select("remote", "client_submit")
    client_submit_ids = {s.id for s in client_submits}
    rpc_submits = table.select("remote", "rpc_submit")
    ingests = table.select("log_server", "submit")
    proves = table.select("log_server", "prove_inclusion")
    reads = table.select("log_server", "entries")
    appends = table.select("storage", "append")
    fsyncs = table.select("storage", "fsync")
    entries_appended = table.value(appends)

    if kind == "pubsub":
        sign_calls = counters["signatures"] / counters["published_total"]
    else:
        sign_calls = len(sign) / ops
    endpoint_overhead = 0.0
    if rpc_submits and ingests:
        endpoint_overhead = _ms(
            table.total(rpc_submits) / len(rpc_submits) - table.total(ingests) / len(ingests)
        )

    # Self times are sums, so the residual is taken against the summed
    # latency: against the median, the tail would read as "unexplained".
    blocking = workload.blocking_samples(traced)
    residual = 0.0
    if blocking:
        residual = 1.0 - table.blocking_self_time(workload.blocking_path()) / sum(blocking)
    overhead = 0.0
    if reference.latency and traced.latency:
        overhead = median(traced.latency) / median(reference.latency) - 1.0

    out = {
        "crypto.sign_ms_per_op": per_op(sign),
        "crypto.sign_calls_per_op": sign_calls,
        "crypto.hash_ms_per_op": per_op(table.select("crypto", "hash")),
        "crypto.verify_ms_per_op": per_op(verify),
        "crypto.verify_calls_per_op": len(verify) / ops,
        "crypto.chain_ms_per_op": per_op(table.select("crypto", "chain")),
        "crypto.merkle_ms_per_op": per_op(table.select("crypto", "merkle")),
        "serialization.encode_ms_per_op": per_op(encodes),
        "serialization.decode_ms_per_op": per_op(decodes),
        "serialization.encoded_bytes_per_op": table.value(outer_encodes) / ops,
        "middleware.send_ms_per_op": per_op(link_sends),
        "middleware.frames_per_op": len(link_sends) / ops,
        "middleware.wire_bytes_per_op": table.value(link_sends) / ops,
        "adlp_protocol.make_frame_ms_per_op": per_op(table.select("adlp_protocol", "make_frame")),
        "adlp_protocol.on_frame_ms_per_op": per_op(table.select("adlp_protocol", "on_frame")),
        "adlp_protocol.ack_wait_ms_p50": _ms(median(
            [table.self_time[s.id] for s in table.select("adlp_protocol", "on_link_send")]
        )),
        "adlp_protocol.retransmits": counters.get("retransmits", 0),
        "adlp_protocol.ack_timeouts": counters.get("ack_timeouts", 0),
        "logging_thread.queue_wait_ms_p50": _ms(median(tracer.samples["logging_thread.queue_wait"])),
        "logging_thread.entries_per_batch": (
            table.value(client_submits) / len(client_submits) if client_submits else 0.0
        ),
        "logging_thread.dropped": counters.get("logging_dropped", 0),
        "remote.client_submit_ms_per_op": per_op(
            client_submits + [s for s in remote_sends if s.parent in client_submit_ids]
        ),
        "remote.rpc_rtt_ms_p50": _ms(median([s.end - s.start for s in rpc_submits])),
        "remote.frames_per_op": len(remote_sends) / ops,
        "remote.endpoint_overhead_ms_per_batch": endpoint_overhead,
        "remote.spilled": counters.get("remote_spilled", 0),
        "remote.shed_entries": counters.get("remote_shed_entries", 0),
        "remote.busy_responses": counters.get("remote_busy_responses", 0),
        "remote.late_replies_discarded": counters.get("remote_late_replies_discarded", 0),
        "remote.endpoint_rejected": counters.get("endpoint_rejected", 0),
        "log_server.ingest_ms_per_entry": per(table.self_sum(ingests), table.value(ingests)),
        "log_server.entries_per_batch": table.value(ingests) / len(ingests) if ingests else 0.0,
        "log_server.prove_ms_per_call": per(table.total(proves), len(proves)),
        "log_server.read_ms_per_entry": per(table.total(reads), table.value(reads)),
        "storage.append_ms_per_entry": per(table.self_sum(appends), entries_appended),
        "storage.fsync_ms_per_batch": per(table.total(fsyncs), len(appends)),
        "storage.fsyncs_per_entry": len(fsyncs) / entries_appended if entries_appended else 0.0,
        "storage.bytes_written_per_entry": traced.stored_bytes / max(1, counters["entries_stored"]),
        "storage.recover_s": counters.get("recover_s", 0.0),
        "audit.classify_ms_per_entry": per_op(table.select("audit", "audit_pass")),
        "audit.entries_valid": counters.get("entries_valid", 0),
        "audit.entries_invalid": counters.get("entries_invalid", 0),
        "audit.entries_hidden": counters.get("entries_hidden", 0),
        "trace.overhead_share": overhead,
        "trace.residual_share": residual,
    }
    out.update({name: tail["value"] for name, tail in tails(reference).items()})
    return out


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Each layer's (and ``layer.span``'s) share of all traced *busy* self
    time; spans that only wait for other spans are left out."""
    times = SpanTable(tracer.spans).layer_self_times(skip=WAIT_SPANS)
    total = sum(value for name, value in times.items() if "." not in name) or 1.0
    return {name: value / total for name, value in sorted(times.items())}
