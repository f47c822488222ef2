"""The per-node logging thread.

The prototype "created a Logging Thread that runs in parallel with each
node's main thread.  One logging thread is created per ROS node, no matter
how many topics the node publishes and subscribes" (Section V-B).  Entries
are queued by the transport protocol on the hot path and pushed to the log
server asynchronously, so logging never blocks publication or delivery.

The sink is one group-commit callable (``submit_batch``).  The worker
drains up to ``batch_max`` queued entries per wakeup and submits them in
one call -- one lock acquisition, one WAL fsync, one RPC round trip for
the whole batch instead of per entry; a lone entry is a batch of one.
Batch submission is all-or-nothing at the sink, so a failed batch is
retried and finally re-submitted entry by entry (each as ``[entry]``),
isolating a poison entry without dropping its batchmates.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, List, Optional, Union

from repro.core.entries import LogEntry
from repro.util.concurrency import StoppableThread

#: Entries buffered before the submitting thread blocks (backpressure).
_QUEUE_CAPACITY = 4096


class LoggingThread:
    """Asynchronous submitter of log entries to a log-server callable.

    :param component_id: owning node's id (used for the thread name).
    :param submit_batch: the group-commit ingestion function, typically
        :meth:`repro.core.log_server.LogServer.submit_batch`.
    :param max_retries: failed submissions are retried this many times
        (with exponentially growing sleeps) before the entry is counted as
        dropped -- a transient logger hiccup must not lose evidence.
    :param retry_backoff: initial sleep between retries; doubles per
        attempt.
    :param on_retry: callable invoked once per retry attempt (stats hook).
    :param batch_max: upper bound on entries per ``submit_batch`` call.
    :param tick: optional callable invoked once per worker wakeup (both
        after a drain and on idle timeouts) -- the hook deadline-driven
        maintenance like the ACK aggregator's expiry flush piggybacks on.
    """

    def __init__(
        self,
        component_id: str,
        submit_batch: Callable[[List[Union[LogEntry, bytes]]], List[int]],
        max_retries: int = 0,
        retry_backoff: float = 0.01,
        on_retry: Optional[Callable[[], None]] = None,
        batch_max: int = 1,
        tick: Optional[Callable[[], None]] = None,
    ):
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        self.component_id = component_id
        self._submit_batch = submit_batch
        self._batch_max = batch_max
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._on_retry = on_retry
        self._tick = tick
        self._queue: "queue.Queue" = queue.Queue(maxsize=_QUEUE_CAPACITY)
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._dropped = 0
        #: Entries accepted by a whole-drain ``submit_batch`` call (the
        #: rest, if any, went through the per-entry fallback).
        self.batched = 0
        #: Whole-drain ``submit_batch`` calls accepted.
        self.batches = 0
        self._worker = StoppableThread(
            name=f"logging-{component_id}", target=self._run
        )
        self._worker.start()

    def enqueue(self, entry: LogEntry) -> None:
        """Queue an entry for submission (hot path; non-blocking).

        If the queue is full the entry is dropped and counted -- a failing
        logger must not stall the node (the paper's no-single-point-of-
        failure property).  Dropped entries surface in :attr:`dropped`.
        """
        with self._pending_lock:
            self._pending += 1
            self._idle.clear()
        try:
            self._queue.put_nowait(entry)
        except queue.Full:
            self._dropped += 1
            self._finish_one()

    def _finish_one(self) -> None:
        with self._pending_lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    def _run(self) -> None:
        while True:
            try:
                entry = self._queue.get(timeout=0.1)
            except queue.Empty:
                self._run_tick()
                if self._worker.stopped():
                    return
                continue
            batch = [entry]
            while len(batch) < self._batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            try:
                if self._submit_with_retries(batch):
                    self.batched += len(batch)
                    self.batches += 1
                elif len(batch) == 1:
                    self._dropped += 1
                else:
                    # All-or-nothing at the sink, so per-entry re-submission
                    # cannot double-ingest: it isolates a poison entry to
                    # its own drop instead of losing the whole batch.
                    for item in batch:
                        if not self._submit_with_retries([item]):
                            self._dropped += 1
            finally:
                for _ in batch:
                    self._finish_one()
            self._run_tick()

    def _run_tick(self) -> None:
        if self._tick is None:
            return
        try:
            self._tick()
        except Exception:
            pass  # maintenance trouble must not kill the submit loop

    def _submit_with_retries(self, batch: List[LogEntry]) -> bool:
        """Submit ``batch``, retrying on failure; ``False`` when every
        attempt failed."""
        backoff = self._retry_backoff
        attempt = 0
        while True:
            try:
                self._submit_batch(batch)
                return True
            except Exception:
                # The logger is outside the node's failure domain; errors
                # are tolerated (and visible in server-side counts).
                attempt += 1
                if attempt > self._max_retries or self._worker.stopped():
                    break
                if self._on_retry is not None:
                    self._on_retry()
                time.sleep(backoff)
                backoff *= 2
        return False

    @property
    def dropped(self) -> int:
        """Entries lost to backpressure or submission failures."""
        return self._dropped

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until all queued entries have been submitted."""
        return self._idle.wait(timeout)

    def stop(self, flush: bool = True, timeout: float = 5.0) -> None:
        """Flush (optionally) and stop the worker."""
        if flush:
            self.flush(timeout)
        self._worker.stop()
