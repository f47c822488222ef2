"""Encoding copies a payload once.

``tracemalloc`` over :meth:`WireMessage.encode` of messages carrying
1 MiB: the peak allocation is the encoded message itself plus its short
headers, so the budget is a ratio of the payload size.  The encoded bytes
themselves are pinned by ``test_decoder_differential.py``.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.remote import OP_SUBMIT_BATCH, LoggerRequest

PAYLOAD = 1 << 20
BUDGET = 1.25


def _peak(operation) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        operation()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _entry(seq: int, size: int) -> LogEntry:
    return LogEntry(
        component_id="/camera",
        topic="/image",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=random.Random(seq).randbytes(size),
        own_sig=b"s" * 128,
    )


def test_log_entry_encode_copies_its_data_once():
    entry = _entry(1, PAYLOAD)
    assert _peak(entry.encode) <= BUDGET * PAYLOAD


def test_batch_request_encode_copies_each_entry_once():
    records = [_entry(seq, PAYLOAD // 8).encode() for seq in range(1, 9)]
    request = LoggerRequest(op=OP_SUBMIT_BATCH, entry_batch=records)
    assert _peak(request.encode) <= BUDGET * sum(map(len, records))
