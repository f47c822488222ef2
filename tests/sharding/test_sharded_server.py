"""ShardedLogServer mechanics: routing, batching, commitments, layout."""

import os

import pytest

from repro.core.entries import Direction
from repro.errors import LogIntegrityError, LoggingError
from repro.sharding import ShardedLogServer, ShardSetCommitment, shard_dirname

from tests.sharding.workload import (
    GOLDEN_SHARDS_4,
    TOPICS,
    honest_pair,
    register_pair,
)


@pytest.fixture()
def sharded(keypool):
    server = ShardedLogServer(shards=4)
    register_pair(server, keypool)
    return server


def pair_records(keypool, topic, seq=1, payload=b"data"):
    pub, sub = honest_pair(keypool, topic, seq, payload)
    return pub.encode(), sub.encode()


class TestRouting:
    def test_submit_lands_in_topic_shard(self, sharded, keypool):
        for topic in TOPICS:
            pub, _ = pair_records(keypool, topic)
            sharded.submit(pub)
        for topic, shard in GOLDEN_SHARDS_4.items():
            assert len(sharded.shard(shard).entries(topic=topic)) == 1
            assert sharded.shard_of(topic) == shard

    def test_both_sides_of_a_transmission_share_a_shard(self, sharded, keypool):
        for topic in TOPICS:
            pub, sub = pair_records(keypool, topic)
            sharded.submit(pub)
            sharded.submit(sub)
        for topic, shard in GOLDEN_SHARDS_4.items():
            in_shard = sharded.shard(shard).entries(topic=topic)
            assert [e.direction for e in in_shard] == [Direction.OUT, Direction.IN]

    def test_submit_returns_per_shard_index(self, sharded, keypool):
        # /b and /c both route to shard 0: their indexes interleave 0,1
        # while /a (shard 3) starts back at 0.
        assert sharded.submit(pair_records(keypool, "/b")[0]) == 0
        assert sharded.submit(pair_records(keypool, "/c")[0]) == 1
        assert sharded.submit(pair_records(keypool, "/a")[0]) == 0

    def test_entry_objects_are_routed_too(self, sharded, keypool):
        pub, _ = honest_pair(keypool, "/d", 1, b"obj")
        sharded.submit(pub)
        assert len(sharded.shard(GOLDEN_SHARDS_4["/d"])) == 1

    def test_undecodable_submission_rejected_and_counted(self, sharded):
        before = sharded.rejected_submissions
        with pytest.raises(LoggingError):
            sharded.submit(b"\xff\xff not a log entry")
        assert sharded.rejected_submissions == before + 1
        assert len(sharded) == 0


class TestBatching:
    def test_batch_splits_by_shard(self, sharded, keypool):
        batch = []
        for topic in TOPICS:
            pub, sub = pair_records(keypool, topic)
            batch.extend([pub, sub])
        indices = sharded.submit_batch(batch)
        assert len(indices) == len(batch)
        assert len(sharded) == len(batch)
        # each shard got its topics' four entries (2 topics x OUT+IN)
        for shard in range(4):
            assert len(sharded.shard(shard)) == 4

    def test_batch_indices_align_with_input_positions(self, sharded, keypool):
        b1, _ = pair_records(keypool, "/b", seq=1)
        a1, _ = pair_records(keypool, "/a", seq=1)
        b2, _ = pair_records(keypool, "/b", seq=2)
        indices = sharded.submit_batch([b1, a1, b2])
        # /b -> shard 0 gets indexes 0,1; /a -> shard 3 gets index 0
        assert indices == [0, 0, 1]

    def test_undecodable_entry_rejects_whole_batch_before_mutation(
        self, sharded, keypool
    ):
        good, _ = pair_records(keypool, "/a")
        with pytest.raises(LoggingError):
            sharded.submit_batch([good, b"\xffgarbage"])
        assert len(sharded) == 0
        assert sharded.rejected_submissions == 1

    def test_empty_batch_is_a_noop(self, sharded):
        assert sharded.submit_batch([]) == []


class TestExplicitShardTargeting:
    def test_submit_to_matching_shard_accepted(self, sharded, keypool):
        pub, _ = pair_records(keypool, "/a")
        assert sharded.submit_batch_to_shard(GOLDEN_SHARDS_4["/a"], [pub]) == [0]

    def test_misrouted_submit_rejected(self, sharded, keypool):
        pub, _ = pair_records(keypool, "/a")
        wrong = (GOLDEN_SHARDS_4["/a"] + 1) % 4
        with pytest.raises(LoggingError):
            sharded.submit_batch_to_shard(wrong, [pub])
        assert len(sharded) == 0

    def test_misrouted_batch_rejected_whole(self, sharded, keypool):
        a, _ = pair_records(keypool, "/a")
        b, _ = pair_records(keypool, "/b")
        with pytest.raises(LoggingError):
            sharded.submit_batch_to_shard(GOLDEN_SHARDS_4["/a"], [a, b])
        assert len(sharded) == 0


class TestQuerySurface:
    def test_topic_filter_reads_only_its_shard(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        for topic in TOPICS:
            [entry] = sharded.entries(topic=topic)
            assert entry.topic == topic

    def test_shard_filter_scopes_to_one_shard(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        for shard in range(4):
            entries = sharded.entries(shard=shard)
            assert len(entries) == 2
            assert all(GOLDEN_SHARDS_4[e.topic] == shard for e in entries)

    def test_len_and_bytes_sum_over_shards(self, sharded, keypool):
        for topic in TOPICS:
            pub, sub = pair_records(keypool, topic)
            sharded.submit(pub)
            sharded.submit(sub)
        assert len(sharded) == 16
        assert sharded.total_bytes == sum(
            s.total_bytes for s in (sharded.shard(i) for i in range(4))
        )

    def test_stats_sum_to_shard_stats(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        stats = sharded.stats()
        per_shard = sharded.shard_stats()
        assert stats["shard_count"] == 4
        assert stats["sharded_entries"] == sum(s["entries"] for s in per_shard)
        assert stats["sharded_bytes"] == sum(s["total_bytes"] for s in per_shard)
        assert [s["shard"] for s in per_shard] == [0, 1, 2, 3]

    def test_keys_broadcast_to_every_shard(self, sharded, keypool):
        for shard in range(4):
            assert sharded.shard(shard).public_key("/pub") == keypool[0].public
            assert sharded.shard(shard).public_key("/sub") == keypool[1].public
        assert sharded.components() == sorted(["/pub", "/sub"])
        assert set(sharded.keys_snapshot()) == {"/pub", "/sub"}


class TestCommitment:
    def test_set_root_changes_when_any_shard_changes(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        before = sharded.commitment()
        sharded.submit(pair_records(keypool, "/a", seq=2)[0])
        after = sharded.commitment()
        assert before.root != after.root
        assert after.entries == before.entries + 1

    def test_mismatched_shards_localizes_the_change(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        before = sharded.commitment()
        sharded.submit(pair_records(keypool, "/e", seq=2)[0])
        after = sharded.commitment()
        assert before.mismatched_shards(after) == [GOLDEN_SHARDS_4["/e"]]

    def test_identical_sets_have_no_mismatch(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        a, b = sharded.commitment(), sharded.commitment()
        assert a == b
        assert a.mismatched_shards(b) == []

    def test_comparing_different_sized_sets_raises(self, sharded):
        other = ShardedLogServer(shards=2).commitment()
        with pytest.raises(ValueError, match="different sizes"):
            sharded.commitment().mismatched_shards(other)

    def test_mismatched_shards_names_every_damaged_shard(self, sharded, keypool):
        """Two shards diverge simultaneously: localization must name both
        (sorted), not stop at the first."""
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        before = sharded.commitment()
        sharded.submit(pair_records(keypool, "/e", seq=2)[0])  # shard 1
        sharded.submit(pair_records(keypool, "/f", seq=2)[0])  # shard 2
        after = sharded.commitment()
        damaged = sorted({GOLDEN_SHARDS_4["/e"], GOLDEN_SHARDS_4["/f"]})
        assert before.mismatched_shards(after) == damaged
        # localization is symmetric
        assert after.mismatched_shards(before) == damaged

    def test_mismatched_shards_when_every_shard_diverged(self, sharded, keypool):
        before = sharded.commitment()
        for topic in TOPICS:  # the golden mapping covers all four shards
            sharded.submit(pair_records(keypool, topic)[0])
        assert before.mismatched_shards(sharded.commitment()) == [0, 1, 2, 3]

    def test_as_log_commitment_carries_set_root(self, sharded, keypool):
        sharded.submit(pair_records(keypool, "/a")[0])
        commitment = sharded.commitment()
        collapsed = commitment.as_log_commitment()
        assert collapsed.chain_head == commitment.root
        assert collapsed.merkle_root == commitment.root
        assert collapsed.entries == commitment.entries == 1
        assert sharded.merkle_root() == commitment.root

    def test_single_shard_set_root_still_binds_shard_root(self, keypool):
        """Even at shards=1 the set root is a Merkle layer *over* the
        shard commitment, not the shard root itself."""
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        sharded.submit(pair_records(keypool, "/a")[0])
        commitment = sharded.commitment()
        assert isinstance(commitment, ShardSetCommitment)
        assert commitment.root != commitment.shard_commitments[0].merkle_root


class TestIntegrity:
    def test_verify_integrity_names_the_tampered_shard(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        sharded.shard(2).store.tamper(0, b"rewritten")
        with pytest.raises(LogIntegrityError, match="shard 2"):
            sharded.verify_integrity()

    def test_clean_set_verifies(self, sharded, keypool):
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        sharded.verify_integrity()  # must not raise


class TestDurableLayout:
    def test_reopen_recovers_identical_set_root(self, tmp_path, keypool):
        store_dir = str(tmp_path / "sharded")
        server = ShardedLogServer(shards=3, store_dir=store_dir, fsync="never")
        register_pair(server, keypool)
        for topic in TOPICS:
            pub, sub = pair_records(keypool, topic)
            server.submit(pub)
            server.submit(sub)
        before = server.commitment()
        server.close()

        reopened = ShardedLogServer(shards=3, store_dir=store_dir, fsync="never")
        assert len(reopened) == 16
        assert reopened.commitment().root == before.root
        reopened.close()

    def test_each_shard_gets_its_own_directory(self, tmp_path, keypool):
        store_dir = str(tmp_path / "sharded")
        server = ShardedLogServer(shards=3, store_dir=store_dir, fsync="never")
        server.close()
        assert sorted(os.listdir(store_dir)) == [shard_dirname(i) for i in range(3)]

    def test_reopen_with_different_count_refused(self, tmp_path):
        store_dir = str(tmp_path / "sharded")
        ShardedLogServer(shards=3, store_dir=store_dir, fsync="never").close()
        with pytest.raises(LogIntegrityError):
            ShardedLogServer(shards=4, store_dir=store_dir, fsync="never")

    @pytest.mark.parametrize("requested", [1, 2, 8])
    def test_rebalance_refusal_covers_shrink_and_grow(self, tmp_path, requested):
        """The topic->shard mapping depends on the count, so a 4-shard
        layout refuses *any* other count -- halving, doubling, and
        collapsing to one all included -- and the refusal names both the
        layout's directories and the requested count."""
        store_dir = str(tmp_path / "sharded")
        ShardedLogServer(shards=4, store_dir=store_dir, fsync="never").close()
        with pytest.raises(LogIntegrityError, match="shard directories") as err:
            ShardedLogServer(shards=requested, store_dir=store_dir, fsync="never")
        assert "[0, 1, 2, 3]" in str(err.value)
        assert f"{requested} shards were requested" in str(err.value)
        # the refusal must fire before any shard store is opened or
        # mutated: the untouched layout still reopens cleanly at 4
        ShardedLogServer(shards=4, store_dir=store_dir, fsync="never").close()

    def test_partial_layout_is_refused_too(self, tmp_path):
        """A layout with a missing shard directory (torn manual copy) is
        rejected rather than silently re-created with fresh chains."""
        store_dir = str(tmp_path / "sharded")
        ShardedLogServer(shards=3, store_dir=store_dir, fsync="never").close()
        os.rename(
            os.path.join(store_dir, shard_dirname(2)),
            os.path.join(store_dir, "stash"),
        )
        with pytest.raises(LogIntegrityError, match="shard directories"):
            ShardedLogServer(shards=3, store_dir=store_dir, fsync="never")

    def test_store_dir_and_factory_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedLogServer(
                shards=2,
                store_dir=str(tmp_path / "x"),
                store_factory=lambda index: None,
            )


class TestObservers:
    def test_observer_sees_submits_on_every_shard(self, sharded, keypool):
        seen = []
        observer = lambda entry: seen.append(entry.topic)  # noqa: E731
        sharded.add_observer(observer)
        for topic in TOPICS:
            sharded.submit(pair_records(keypool, topic)[0])
        assert sorted(seen) == sorted(TOPICS)
        sharded.remove_observer(observer)
        sharded.submit(pair_records(keypool, "/a", seq=2)[0])
        assert len(seen) == len(TOPICS)
