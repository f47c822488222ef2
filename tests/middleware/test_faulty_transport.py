"""The chaos layer itself: every fault kind fires deterministically.

These tests drive :class:`FaultyTransport` directly (no protocol on top) so
each fault's wire-level effect can be asserted exactly: scripted faults hit
the exact frame index they name, seeded probabilistic schedules replay
identically, and an all-zero schedule is byte-for-byte transparent.
"""

import time

import pytest

from repro.middleware.transport.base import ConnectionClosed
from tests.sim.faulty import (
    FAULT_KINDS,
    FaultProfile,
    FaultSchedule,
    FaultyTransport,
)


def connected_pair(transport):
    """One accepted + one connecting endpoint of ``transport``."""
    listener = transport.listen()
    connect_end = transport.connect(listener.address)
    accept_end = listener.accept(timeout=1.0)
    assert accept_end is not None
    return accept_end, connect_end


def drain(connection, timeout=0.2):
    """Collect frames until the line goes quiet."""
    frames = []
    while True:
        try:
            frame = connection.recv_frame(timeout=timeout)
        except ConnectionClosed:
            return frames
        if frame is None:
            return frames
        frames.append(frame)


class TestScriptedFaults:
    def test_drop_removes_exactly_the_scripted_frame(self):
        schedule = FaultSchedule(seed=7).script("accept", 1, "drop")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        for i in range(3):
            accept_end.send_frame(f"frame-{i}".encode())
        assert drain(connect_end) == [b"frame-0", b"frame-2"]
        assert accept_end.applied == [(1, "drop")]
        assert transport.stats.drops == 1
        assert transport.stats.sent == 3

    def test_dup_delivers_the_frame_twice(self):
        schedule = FaultSchedule(seed=7).script("accept", 0, "dup")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        accept_end.send_frame(b"once")
        assert drain(connect_end) == [b"once", b"once"]
        assert transport.stats.dups == 1

    def test_delay_blocks_the_sender_then_delivers(self):
        profile = FaultProfile(delay_by=0.05)
        schedule = FaultSchedule(
            seed=7, accept_side=profile, connect_side=profile
        ).script("accept", 0, "delay")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        start = time.monotonic()
        accept_end.send_frame(b"late")
        elapsed = time.monotonic() - start
        assert elapsed >= 0.04
        assert drain(connect_end) == [b"late"]
        assert transport.stats.delays == 1

    def test_reorder_swaps_adjacent_frames(self):
        schedule = FaultSchedule(seed=7).script("accept", 0, "reorder")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        accept_end.send_frame(b"first")
        accept_end.send_frame(b"second")
        assert drain(connect_end) == [b"second", b"first"]
        assert transport.stats.reorders == 1

    def test_truncate_halves_the_frame(self):
        schedule = FaultSchedule(seed=7).script("accept", 0, "truncate")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        accept_end.send_frame(b"0123456789")
        assert drain(connect_end) == [b"01234"]
        assert transport.stats.truncations == 1

    def test_disconnect_closes_both_ends(self):
        schedule = FaultSchedule(seed=7).script("accept", 1, "disconnect")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        accept_end.send_frame(b"fine")
        with pytest.raises(ConnectionClosed):
            accept_end.send_frame(b"never arrives")
        assert accept_end.closed
        # the peer sees the survivor frame, then the close
        assert connect_end.recv_frame(timeout=0.5) == b"fine"
        with pytest.raises(ConnectionClosed):
            connect_end.recv_frame(timeout=0.5)
        assert transport.stats.disconnects == 1

    def test_script_range_hits_every_frame_from_start_index(self):
        schedule = FaultSchedule(seed=7).script_range("connect", 2, "drop")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        for i in range(5):
            connect_end.send_frame(f"f{i}".encode())
        assert drain(accept_end) == [b"f0", b"f1"]
        assert connect_end.applied == [(2, "drop"), (3, "drop"), (4, "drop")]

    def test_any_connection_script_fires_once_where_first_reached(self):
        # connection 0 never reaches frame 1; connection 1 does, and takes
        # the fault; connection 2 then sends its frame 1 clean
        schedule = FaultSchedule(seed=7).script("accept", 1, "drop", conn_index=None)
        transport = FaultyTransport(schedule=schedule)
        ends = [connected_pair(transport) for _ in range(3)]
        ends[0][0].send_frame(b"only")
        for accept_end, _ in ends[1:]:
            accept_end.send_frame(b"a")
            accept_end.send_frame(b"b")
        assert [accept_end.applied for accept_end, _ in ends] == [
            [], [(1, "drop")], []
        ]
        assert drain(ends[1][1]) == [b"a"]
        assert drain(ends[2][1]) == [b"a", b"b"]

    def test_faults_are_per_side(self):
        # scripted on the accept side: the connect side stays clean
        schedule = FaultSchedule(seed=7).script("accept", 0, "drop")
        transport = FaultyTransport(schedule=schedule)
        accept_end, connect_end = connected_pair(transport)
        connect_end.send_frame(b"untouched")
        assert drain(accept_end) == [b"untouched"]
        assert connect_end.applied == []

    def test_unknown_kind_and_side_rejected(self):
        schedule = FaultSchedule()
        with pytest.raises(ValueError):
            schedule.script("accept", 0, "gremlins")
        with pytest.raises(ValueError):
            schedule.script("sideways", 0, "drop")
        with pytest.raises(ValueError):
            FaultProfile(drop=1.5)


class TestDeterminism:
    def _run_once(self, seed):
        transport = FaultyTransport(seed=seed, drop=0.3, dup=0.2, truncate=0.1)
        accept_end, connect_end = connected_pair(transport)
        for i in range(50):
            accept_end.send_frame(f"payload-{i:03d}".encode())
        received = drain(connect_end)
        return received, list(accept_end.applied), transport.stats

    def test_same_seed_replays_identically(self):
        received_a, applied_a, stats_a = self._run_once(seed=1234)
        received_b, applied_b, stats_b = self._run_once(seed=1234)
        assert applied_a  # the profile actually fired
        assert applied_a == applied_b
        assert received_a == received_b
        assert (stats_a.drops, stats_a.dups, stats_a.truncations) == (
            stats_b.drops,
            stats_b.dups,
            stats_b.truncations,
        )

    def test_different_seeds_diverge(self):
        _, applied_a, _ = self._run_once(seed=1234)
        _, applied_b, _ = self._run_once(seed=4321)
        assert applied_a != applied_b

    def test_sides_have_independent_streams(self):
        transport = FaultyTransport(seed=99, drop=0.5)
        accept_end, connect_end = connected_pair(transport)
        for i in range(30):
            accept_end.send_frame(b"a")
            connect_end.send_frame(b"c")
        assert accept_end.applied != connect_end.applied


class TestTransparency:
    def test_zero_probability_schedule_is_byte_for_byte_transparent(self, rng):
        transport = FaultyTransport(seed=5)  # all probabilities zero
        accept_end, connect_end = connected_pair(transport)
        outbound = [rng.randbytes(rng.randrange(0, 512)) for _ in range(30)]
        inbound = [rng.randbytes(rng.randrange(0, 512)) for _ in range(30)]
        for frame in outbound:
            accept_end.send_frame(frame)
        for frame in inbound:
            connect_end.send_frame(frame)
        assert drain(connect_end) == outbound
        assert drain(accept_end) == inbound
        assert transport.stats.total_faults() == 0
        assert accept_end.applied == []
        assert connect_end.applied == []
        assert transport.stats.sent == 60

    def test_profile_transparency_flag(self):
        assert FaultProfile().is_transparent
        for kind in FAULT_KINDS:
            assert not FaultProfile(**{kind: 0.5}).is_transparent
