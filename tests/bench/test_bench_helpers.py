import json
import threading
import time

import pytest

from benchmarks.harness import (
    ProcessCpuSampler,
    ThreadGroupCpuSampler,
    threads_matching,
    measure_log_rate,
    Table,
    save_results,
    TimingStats,
    measure,
    LATENCY_SWEEP_SIZES,
    PAPER_SIZES,
    paper_payloads,
    payload_of_size,
)
from repro.core import LogServer
from repro.core.entries import LogEntry


class TestWorkloads:
    def test_paper_sizes_exact(self):
        assert PAPER_SIZES == {"Steering": 20, "Scan": 8705, "Image": 921641}
        for name, payload in paper_payloads().items():
            assert len(payload) == PAPER_SIZES[name]

    def test_payloads_deterministic(self):
        assert payload_of_size(100) == payload_of_size(100)

    def test_different_sizes_different_content(self):
        assert payload_of_size(100)[:50] != payload_of_size(200)[:50]

    def test_sweep_covers_paper_range(self):
        assert min(LATENCY_SWEEP_SIZES) == 20
        assert max(LATENCY_SWEEP_SIZES) == 921641


class TestTiming:
    def test_measure_counts_samples(self):
        stats = measure(lambda: None, samples=50, warmup=2)
        assert stats.samples == 50
        assert stats.mean >= 0

    def test_measure_captures_real_duration(self):
        stats = measure(lambda: time.sleep(0.002), samples=5, warmup=0)
        assert 0.0015 < stats.mean < 0.05

    def test_stats_from_samples(self):
        stats = TimingStats.from_samples([0.001, 0.002, 0.003])
        assert stats.mean == pytest.approx(0.002)
        assert stats.min == 0.001 and stats.max == 0.003
        assert stats.mean_ms == pytest.approx(2.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            TimingStats.from_samples([])


class TestCpuSamplers:
    def test_process_sampler_sees_busy_loop(self):
        sampler = ProcessCpuSampler()
        sampler.start()
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.2:
            sum(range(1000))
        cpu = sampler.stop()
        assert cpu > 20.0  # busy loop should look busy

    def test_process_sampler_idle_is_low(self):
        sampler = ProcessCpuSampler()
        sampler.start()
        time.sleep(0.2)
        assert sampler.stop() < 50.0

    def test_thread_group_sampler_isolates_threads(self):
        stop = threading.Event()

        def burn():
            while not stop.is_set():
                sum(range(1000))

        worker = threading.Thread(target=burn, name="burner")
        worker.start()
        try:
            ids = threads_matching(lambda t: t.name == "burner")
            assert ids
            sampler = ThreadGroupCpuSampler(ids)
            sampler.start()
            time.sleep(0.3)
            cpu = sampler.stop()
            assert cpu > 20.0
            # and a sampler over an idle thread set sees ~nothing
            idle_ids = threads_matching(lambda t: t.name == "MainThread")
            idle = ThreadGroupCpuSampler(idle_ids)
            idle.start()
            time.sleep(0.1)
        finally:
            stop.set()
            worker.join()


class TestLogRate:
    def test_measures_ingest(self):
        server = LogServer()
        stop = threading.Event()

        def feeder():
            seq = 0
            while not stop.is_set():
                seq += 1
                server.submit(LogEntry(component_id="/a", topic="/t", seq=seq, data=b"x" * 100))
                time.sleep(0.002)

        thread = threading.Thread(target=feeder)
        thread.start()
        try:
            rate = measure_log_rate(server, duration_s=0.3)
        finally:
            stop.set()
            thread.join()
        assert rate.entries > 10
        assert rate.bytes_per_second > 1000
        assert rate.megabits_per_second == pytest.approx(
            rate.bytes_per_second * 8 / 1e6
        )


class TestReporting:
    def test_table_renders_aligned(self):
        table = Table("Demo", ["Type", "Value"])
        table.add_row("Steering", 3.042)
        table.add_row("Image", 3.457)
        text = table.render()
        assert "Demo" in text and "Steering" in text and "3.042" in text

    def test_row_arity_checked(self):
        table = Table("Demo", ["A", "B"])
        with pytest.raises(ValueError):
            table.add_row("only one")

    def test_save_results_merges(self, tmp_path, monkeypatch):
        path = tmp_path / "results.json"
        monkeypatch.setattr("benchmarks.harness._RESULTS_PATH", str(path))
        save_results("exp1", {"a": 1})
        save_results("exp2", {"b": 2})
        data = json.loads(path.read_text())
        assert data == {"exp1": {"a": 1}, "exp2": {"b": 2}}
