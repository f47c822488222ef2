import threading
import time

from repro.core.entries import LogEntry
from repro.core.logging_thread import LoggingThread
from repro.util.concurrency import wait_for


def make_entry(seq=1):
    return LogEntry(component_id="/a", topic="/t", seq=seq)


def collect(received):
    """A ``submit_batch`` sink appending every entry to ``received``."""

    def submit_batch(batch):
        received.extend(batch)
        return [0] * len(batch)

    return submit_batch


class TestLoggingThread:
    def test_entries_reach_submit(self):
        received = []
        thread = LoggingThread("/a", collect(received))
        for i in range(5):
            thread.enqueue(make_entry(i + 1))
        assert thread.flush(2.0)
        assert [e.seq for e in received] == [1, 2, 3, 4, 5]
        thread.stop()

    def test_flush_waits_for_pending(self):
        gate = threading.Event()
        received = []

        def slow_submit(batch):
            gate.wait(2.0)
            received.extend(batch)
            return [0] * len(batch)

        thread = LoggingThread("/a", slow_submit)
        thread.enqueue(make_entry())
        assert not thread.flush(0.05)  # blocked submit -> flush times out
        gate.set()
        assert thread.flush(2.0)
        assert len(received) == 1
        thread.stop()

    def test_submit_errors_counted_not_raised(self):
        def failing_submit(batch):
            raise RuntimeError("logger down")

        thread = LoggingThread("/a", failing_submit)
        thread.enqueue(make_entry())
        assert wait_for(lambda: thread.dropped == 1, timeout=2.0)
        thread.stop()

    def test_stop_flushes_by_default(self):
        received = []
        thread = LoggingThread("/a", collect(received))
        for i in range(20):
            thread.enqueue(make_entry(i + 1))
        thread.stop()
        assert len(received) == 20

    def test_flush_when_idle_is_immediate(self):
        thread = LoggingThread("/a", lambda batch: [0] * len(batch))
        t0 = time.monotonic()
        assert thread.flush(1.0)
        assert time.monotonic() - t0 < 0.5
        thread.stop()
