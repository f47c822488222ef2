"""CLI over sharded durable layouts: verify/inspect/audit/recover."""

import os

import pytest

from repro.sharding import ShardedLogServer, shard_dirname
from repro.storage.durable_store import CHECKPOINT_SUBDIR, WAL_SUBDIR
from repro.storage.wal import segment_paths
from repro.tools.cli import main

from tests.sharding.workload import (
    TOPICS,
    forged_out,
    honest_pair,
    register_pair,
)

SHARDS = 3


def build_layout(tmp_path, keypool, dirty=False):
    store_dir = str(tmp_path / "sharded-store")
    server = ShardedLogServer(shards=SHARDS, store_dir=store_dir, fsync="never")
    register_pair(server, keypool)
    for topic in TOPICS:
        for seq in (1, 2):
            pub, sub = honest_pair(keypool, topic, seq, b"cli-%d" % seq)
            server.submit(pub.encode())
            server.submit(sub.encode())
    if dirty:
        server.submit(forged_out(keypool, "/a", 3, b"lie").encode())
    # a checkpoint per shard, so later damage cannot hide as a torn tail
    server.checkpoint()
    server.close()
    return store_dir


def flip_checkpoint_byte(store_dir, shard):
    """Damage one shard's newest checkpoint: lenient recovery still
    reopens (WAL replay), but the strict tamper check fails."""
    ckpt_dir = os.path.join(store_dir, shard_dirname(shard), CHECKPOINT_SUBDIR)
    path = os.path.join(ckpt_dir, sorted(os.listdir(ckpt_dir))[-1])
    with open(path, "r+b") as f:
        f.seek(30)
        byte = f.read(1)
        f.seek(30)
        f.write(bytes([byte[0] ^ 0x01]))


def drop_wal(store_dir, shard):
    """Delete one shard's WAL outright: its checkpoint promises entries
    the log no longer holds, so even lenient recovery refuses."""
    wal_dir = os.path.join(store_dir, shard_dirname(shard), WAL_SUBDIR)
    for _, path in segment_paths(wal_dir):
        os.remove(path)


@pytest.fixture()
def layout(tmp_path, keypool):
    return build_layout(tmp_path, keypool)


class TestVerify:
    def test_intact_sharded_layout(self, layout, capsys):
        assert main(["verify", "--store", layout, "--shards", str(SHARDS)]) == 0
        out = capsys.readouterr().out
        assert "INTACT" in out
        assert "shards:      3" in out
        assert "set root:" in out
        for shard in range(SHARDS):
            assert f"shard   {shard}:" in out

    def test_tampered_shard_fails_verify(self, layout, capsys):
        flip_checkpoint_byte(layout, 1)
        assert main(["verify", "--store", layout, "--shards", str(SHARDS)]) == 2
        out = capsys.readouterr().out
        assert "TAMPERED" in out and "shard 1" in out

    def test_wrong_shard_count_refused(self, layout, capsys):
        assert main(["verify", "--store", layout, "--shards", "4"]) == 2
        assert "TAMPERED" in capsys.readouterr().out

    def test_shards_without_store_rejected(self, layout):
        with pytest.raises(SystemExit):
            main(["verify", layout, "--shards", str(SHARDS)])

    def test_missing_store_directory_rejected(self, tmp_path):
        ghost = str(tmp_path / "no-such-store")
        with pytest.raises(SystemExit):
            main(["verify", "--store", ghost, "--shards", str(SHARDS)])
        assert not os.path.exists(ghost)


class TestInspect:
    def test_lists_every_shard_by_default(self, layout, capsys):
        assert main(["inspect", "--store", layout, "--shards", str(SHARDS)]) == 0
        out = capsys.readouterr().out
        for topic in TOPICS:
            assert topic in out

    def test_shard_filter_lists_one_shard(self, layout, capsys):
        server = ShardedLogServer(shards=SHARDS, store_dir=layout, fsync="never")
        expected = {e.topic for e in server.entries(shard=0)}
        server.close()
        assert (
            main(
                ["inspect", "--store", layout, "--shards", str(SHARDS),
                 "--shard", "0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        listed = {line.split()[3] for line in out.splitlines() if line.strip()}
        assert listed == expected

    def test_evidence_loss_at_open_is_reported_not_raised(self, layout, capsys):
        # Dropping a checkpointed shard's WAL makes store-open itself fail
        # during journal replay; the CLI must report it, not traceback.
        drop_wal(layout, 1)
        assert main(["inspect", "--store", layout, "--shards", str(SHARDS)]) == 2
        out = capsys.readouterr().out
        assert "TAMPERED" in out and "checkpointed evidence" in out

    def test_shard_flag_requires_sharded_source(self, tmp_path, keypool):
        from repro.core import DurableLogStore, LogServer

        store_dir = str(tmp_path / "plain")
        server = LogServer(DurableLogStore(store_dir, fsync="never"))
        pub, _ = honest_pair(keypool, "/a", 1, b"x")
        server.submit(pub.encode())
        server.close()
        with pytest.raises(SystemExit):
            main(["inspect", "--store", store_dir, "--shard", "0"])


class TestAudit:
    def test_clean_layout_exits_zero(self, layout, capsys):
        assert main(["audit", "--store", layout, "--shards", str(SHARDS)]) == 0
        out = capsys.readouterr().out
        assert out.count("intact") == SHARDS
        assert "FLAGGED" not in out

    def test_forged_entry_exits_one(self, tmp_path, keypool, capsys):
        layout = build_layout(tmp_path, keypool, dirty=True)
        assert main(["audit", "--store", layout, "--shards", str(SHARDS)]) == 1
        assert "/pub" in capsys.readouterr().out

    def test_evidence_loss_at_open_is_reported_not_raised(self, layout, capsys):
        drop_wal(layout, 1)
        assert main(["audit", "--store", layout, "--shards", str(SHARDS)]) == 2
        out = capsys.readouterr().out
        assert "TAMPERED" in out and "checkpointed evidence" in out

    def test_tampered_shard_exits_two_and_is_named(self, layout, capsys):
        flip_checkpoint_byte(layout, 2)
        assert main(["audit", "--store", layout, "--shards", str(SHARDS)]) == 2
        out = capsys.readouterr().out
        assert "shard 2: TAMPERED" in out
        assert "tampered shards: [2]" in out
        # the intact shards still classified
        assert out.count("intact") == SHARDS - 1


class TestRecover:
    def test_recover_all_shards(self, layout, capsys):
        assert main(["recover", layout, "--shards", str(SHARDS)]) == 0
        out = capsys.readouterr().out
        assert out.count("recovered") == SHARDS
        for shard in range(SHARDS):
            assert f"shard {shard}: recovered" in out

    def test_recover_single_shard(self, layout, capsys):
        assert main(["recover", layout, "--shard", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("recovered") == 1
        assert "shard 1: recovered" in out

    def test_recover_reports_damaged_shard(self, layout, capsys):
        drop_wal(layout, 0)
        assert main(["recover", layout, "--shards", str(SHARDS)]) == 2
        out = capsys.readouterr().out
        assert "shard 0: TAMPERED" in out
        assert out.count("recovered") == SHARDS - 1
