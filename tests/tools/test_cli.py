import os

import pytest

from repro.adversary import SubscriberBehavior
from repro.adversary.behaviors import flip_first_byte
from repro.core import DurableLogStore, LogServer
from repro.errors import LogIntegrityError
from repro.tools.caseio import export_case
from repro.tools.cli import main

from tests.helpers import run_scenario


@pytest.fixture()
def clean_case(tmp_path, keypool):
    result = run_scenario(keypool, publications=3)
    path = str(tmp_path / "clean")
    export_case(result.server, path)
    return path


@pytest.fixture()
def dirty_case(tmp_path, keypool):
    result = run_scenario(
        keypool,
        subscriber_behaviors=[SubscriberBehavior(falsify=flip_first_byte)],
        publications=2,
    )
    path = str(tmp_path / "dirty")
    export_case(result.server, path)
    return path


@pytest.fixture()
def durable_store(tmp_path, keypool):
    """A durable store directory holding a clean scenario's entries."""
    result = run_scenario(keypool, publications=3)
    store_dir = str(tmp_path / "store")
    server = LogServer(DurableLogStore(store_dir))
    for component_id, key in result.server.keystore.snapshot().items():
        server.register_key(component_id, key)
    entries = result.server.entries()
    # Checkpoint mid-stream so the store has both a checkpointed prefix and
    # a replayable (tearable) tail.
    for entry in entries[:-2]:
        server.submit(entry)
    server.checkpoint()
    for entry in entries[-2:]:
        server.submit(entry)
    server.close()
    return store_dir


class TestVerify:
    def test_intact_case(self, clean_case, capsys):
        assert main(["verify", clean_case]) == 0
        out = capsys.readouterr().out
        assert "INTACT" in out and "merkle root" in out

    def test_tampered_case(self, clean_case, capsys):
        from tests.tools.test_caseio import flip_wal_byte, snapshot

        flip_wal_byte(clean_case, position=-1)  # the last record's CRC
        before = snapshot(clean_case)
        assert main(["verify", clean_case]) == 2
        assert "TAMPERED" in capsys.readouterr().out
        assert snapshot(clean_case) == before


class TestInspect:
    def test_lists_entries(self, clean_case, capsys):
        assert main(["inspect", clean_case]) == 0
        out = capsys.readouterr().out
        assert "/pub" in out and "/sub0" in out and "seq=1" in out

    def test_component_filter(self, clean_case, capsys):
        assert main(["inspect", clean_case, "--component", "/pub"]) == 0
        out = capsys.readouterr().out
        assert "/pub" in out
        assert "\n" in out
        assert all("/sub0 " not in line for line in out.splitlines())

    def test_limit(self, clean_case, capsys):
        assert main(["inspect", clean_case, "--limit", "1"]) == 0
        assert "more" in capsys.readouterr().out


class TestAudit:
    def test_clean_case_exit_zero(self, clean_case, capsys):
        assert main(["audit", clean_case, "--publisher", "/t=/pub"]) == 0
        assert "FLAGGED" not in capsys.readouterr().out

    def test_dirty_case_exit_one(self, dirty_case, capsys):
        assert main(["audit", dirty_case, "--publisher", "/t=/pub"]) == 1
        out = capsys.readouterr().out
        assert "FLAGGED" in out and "/sub0" in out

    def test_bad_publisher_syntax(self, clean_case):
        with pytest.raises(SystemExit):
            main(["audit", clean_case, "--publisher", "nonsense"])


class TestRecover:
    def test_recover_reports_store_state(self, durable_store, capsys):
        assert main(["recover", durable_store]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "entries:" in out and "chain head:" in out
        assert "from checkpoint:" in out

    def test_recover_reports_torn_tail(self, durable_store, capsys):
        from repro.storage.durable_store import WAL_SUBDIR
        from repro.storage.wal import segment_paths

        wal_path = segment_paths(os.path.join(durable_store, WAL_SUBDIR))[-1][1]
        with open(wal_path, "r+b") as f:
            f.truncate(os.path.getsize(wal_path) - 4)
        assert main(["recover", durable_store]) == 0
        out = capsys.readouterr().out
        assert "torn tail bytes:" in out
        assert "torn tail bytes:  0" not in out

    def test_recover_refuses_evidence_loss(self, durable_store, capsys):
        from repro.storage.durable_store import WAL_SUBDIR
        from repro.storage.wal import segment_paths

        # The checkpoint promises entries; the WAL is gone.
        for _, path in segment_paths(os.path.join(durable_store, WAL_SUBDIR)):
            os.remove(path)
        assert main(["recover", durable_store]) == 2
        assert "TAMPERED" in capsys.readouterr().out


class TestStoreSource:
    """verify/inspect/audit take any store directory, not only a case."""

    def test_verify_store(self, durable_store, capsys):
        assert main(["verify", durable_store]) == 0
        out = capsys.readouterr().out
        assert "INTACT" in out and durable_store in out

    def test_verify_tampered_store(self, durable_store, capsys):
        from repro.storage.durable_store import WAL_SUBDIR
        from repro.storage.wal import SEGMENT_HEADER_SIZE, segment_paths

        wal_path = segment_paths(os.path.join(durable_store, WAL_SUBDIR))[0][1]
        with open(wal_path, "r+b") as f:
            f.seek(SEGMENT_HEADER_SIZE + 7)
            byte = f.read(1)
            f.seek(SEGMENT_HEADER_SIZE + 7)
            f.write(bytes([byte[0] ^ 0x01]))
        assert main(["verify", durable_store]) == 2
        assert "TAMPERED" in capsys.readouterr().out

    def test_inspect_store(self, durable_store, capsys):
        assert main(["inspect", durable_store]) == 0
        out = capsys.readouterr().out
        assert "/pub" in out and "seq=1" in out

    def test_audit_store(self, durable_store, capsys):
        assert (
            main(["audit", durable_store, "--publisher", "/t=/pub"])
            == 0
        )
        assert "FLAGGED" not in capsys.readouterr().out

    def test_no_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_missing_store_directory_rejected(self, tmp_path):
        """A typo'd path must error out, not materialize an empty store
        that then verifies as trivially intact."""
        ghost = str(tmp_path / "no-such-store")
        with pytest.raises(SystemExit):
            main(["verify", ghost])
        with pytest.raises(SystemExit):
            main(["recover", ghost])
        assert not os.path.exists(ghost)

    def test_directory_without_store_rejected(self, tmp_path):
        """A directory holding no WAL segment is not an empty, intact
        store: every command refuses it and creates nothing there."""
        (tmp_path / "readme.txt").write_text("not evidence")
        plain = str(tmp_path)
        for argv in (["verify", plain], ["inspect", plain], ["audit", plain],
                     ["recover", plain], ["trace", plain, "/t", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert "no log store" in str(exc.value.code)  # a message: exit 1
        assert os.listdir(plain) == ["readme.txt"]

    def test_tamper_in_checkpointed_prefix_is_refused_untouched(self, tmp_path):
        """A torn record the last checkpoint covers is tampering, not a
        crash: verify exits 2 and leaves the journal byte-identical."""
        from repro.storage.durable_store import WAL_SUBDIR
        from repro.storage.wal import segment_paths

        from tests.tools.test_caseio import snapshot

        store_dir = str(tmp_path / "store")
        store = DurableLogStore(store_dir, checkpoint_every=0)
        store.append_batch([b"r%02d-" % i + b"x" * 54 for i in range(20)])
        store.checkpoint()
        store.close()
        [(_, segment)] = segment_paths(os.path.join(store_dir, WAL_SUBDIR))
        size = os.path.getsize(segment)
        with open(segment, "r+b") as f:
            f.seek(size // 2)
            byte = f.read(1)
            f.seek(size // 2)
            f.write(bytes([byte[0] ^ 0x01]))
        before = snapshot(store_dir)
        with pytest.raises(LogIntegrityError, match="tampered"):
            DurableLogStore(store_dir, checkpoint_every=0)
        assert snapshot(store_dir) == before
        assert main(["verify", store_dir]) == 2
        assert main(["recover", store_dir]) == 2
        assert snapshot(store_dir) == before


class TestTrace:
    def test_traces_known_item(self, clean_case, capsys):
        assert main(["trace", clean_case, "/t", "1"]) == 0
        out = capsys.readouterr().out
        assert "lineage of /t#1" in out and "/pub" in out

    def test_unknown_item(self, clean_case, capsys):
        assert main(["trace", clean_case, "/t", "999"]) == 2
        assert "no valid entry" in capsys.readouterr().out


@pytest.fixture()
def replica_endpoints():
    from repro.core import LogServerEndpoint

    servers = [LogServer() for _ in range(3)]
    endpoints = [LogServerEndpoint(s) for s in servers]
    yield servers, endpoints
    for endpoint in endpoints:
        endpoint.close()


def _addr(endpoint) -> str:
    return "%s:%d" % (endpoint.address[1], endpoint.address[2])


def _feed_replicas(servers, keypool, count=4, rogue=None):
    from repro.core.entries import Direction, LogEntry, Scheme

    for server in servers:
        server.register_key("/p", keypool[0].public)
    for i in range(count):
        record = LogEntry(
            component_id="/p", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=i, scheme=Scheme.ADLP,
            data=b"payload-%04d" % i,
        ).encode()
        for index, server in enumerate(servers):
            if index == rogue and i == 1:
                server.submit(
                    LogEntry(
                        component_id="/p", topic="/t", type_name="std/String",
                        direction=Direction.OUT, seq=99, scheme=Scheme.ADLP,
                        data=b"substituted",
                    ).encode()
                )
            else:
                server.submit(record)


class TestHealthCommand:
    def test_healthy_set_exits_zero(self, replica_endpoints, keypool, capsys):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)
        assert main(["health"] + [_addr(e) for e in endpoints]) == 0
        out = capsys.readouterr().out
        assert out.count("entries=4") == 3
        assert "UNREACHABLE" not in out and "DIVERGENCE" not in out
        assert out.count("deadline_expired=0") == 3

    def test_deadline_rejections_reported(self, keypool, capsys):
        from repro.core import LogServerEndpoint

        server = LogServer()
        endpoint = LogServerEndpoint(server)
        try:
            _feed_replicas([server], keypool)
            endpoint.deadline_rejections = 2  # as if two requests expired
            assert main(["health", _addr(endpoint)]) == 0
        finally:
            endpoint.close()
        out = capsys.readouterr().out
        assert "deadline_expired=2" in out

    def test_unreachable_replica_exits_one(self, replica_endpoints, keypool, capsys):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)
        endpoints[1].close()
        assert (
            main(["health", "--timeout", "0.5"] + [_addr(e) for e in endpoints])
            == 1
        )
        out = capsys.readouterr().out
        assert "UNREACHABLE" in out
        assert out.count("entries=4") == 2

    def test_divergence_exits_two_with_roots(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool, rogue=2)
        assert main(["health"] + [_addr(e) for e in endpoints]) == 2
        out = capsys.readouterr().out
        assert "DIVERGENCE at 4 entries" in out

    def test_malformed_address_rejected(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["health", "localhost"])
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["health", "localhost:notaport"])


class TestReplicasCommand:
    def test_healthy_set_reports_quorum_met(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)
        assert main(["replicas"] + [_addr(e) for e in endpoints]) == 0
        out = capsys.readouterr().out
        assert "3/3 healthy" in out and "MET" in out
        assert out.count("breaker=closed") == 3

    def test_no_quorum_exits_one(self, replica_endpoints, keypool, capsys):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)
        endpoints[0].close()
        endpoints[1].close()
        assert main(["replicas"] + [_addr(e) for e in endpoints]) == 1
        out = capsys.readouterr().out
        assert "NOT MET" in out
        assert "UNREACHABLE" in out

    def test_divergent_minority_exits_two(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool, rogue=2)
        assert main(["replicas"] + [_addr(e) for e in endpoints]) == 2
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "breaker=open" in out  # the rogue was quarantined

    def test_audit_flag_runs_replica_set_audit(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)
        assert main(["replicas", "--audit"] + [_addr(e) for e in endpoints]) == 0
        out = capsys.readouterr().out
        assert "audited replica-" in out
        assert "common prefix 4" in out


@pytest.fixture()
def forked_endpoints(keypool):
    """An equivocating logger's two faces behind two endpoints, plus the
    logger's public key written the way ``--key`` reads it."""
    from repro.adversary import ForkingLogServer, tamper_timestamp
    from repro.core import LogServerEndpoint
    from repro.core.entries import Direction, LogEntry, Scheme

    fork = ForkingLogServer(
        keypool[0].private, log_id="cli-fork", fork_at=2,
        mutate=tamper_timestamp,
    )
    for i in range(4):
        fork.submit(
            LogEntry(
                component_id="/p", topic="/t", type_name="std/String",
                direction=Direction.OUT, seq=i, scheme=Scheme.ADLP,
                data=b"payload-%04d" % i,
            ).encode()
        )
    endpoints = [
        LogServerEndpoint(fork.face(view)) for view in ("honest", "forked")
    ]
    yield fork, endpoints
    for endpoint in endpoints:
        endpoint.close()
    fork.close()


@pytest.fixture()
def logger_key_file(tmp_path, keypool):
    path = tmp_path / "logger.pub"
    path.write_bytes(keypool[0].public.to_bytes())
    return str(path)


class TestSthCommand:
    def test_consistent_signed_heads_exit_zero(
        self, replica_endpoints, keypool, logger_key_file, capsys
    ):
        servers, endpoints = replica_endpoints
        for server in servers:
            server.attach_signer(keypool[0].private, log_id="cli-set")
        _feed_replicas(servers, keypool)
        args = [_addr(e) for e in endpoints] + ["--key", logger_key_file]
        assert main(["sth"] + args) == 0
        out = capsys.readouterr().out
        assert out.count("sig=OK") == 3
        assert "EQUIVOCATION" not in out

    def test_split_view_is_proven_and_exits_two(
        self, forked_endpoints, logger_key_file, capsys
    ):
        _, endpoints = forked_endpoints
        args = [_addr(e) for e in endpoints] + ["--key", logger_key_file]
        assert main(["sth"] + args) == 2
        out = capsys.readouterr().out
        assert "EQUIVOCATION" in out and "cli-fork" in out

    def test_split_view_without_key_is_not_a_conviction(
        self, forked_endpoints, capsys
    ):
        _, endpoints = forked_endpoints
        assert main(["sth"] + [_addr(e) for e in endpoints]) == 0
        out = capsys.readouterr().out
        assert "sig=unverified" in out
        assert "EQUIVOCATION" not in out

    def test_unsigned_server_reported_unreachable(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        _feed_replicas(servers, keypool)  # no signer attached
        assert main(["sth", _addr(endpoints[0])]) == 1
        assert "UNREACHABLE" in capsys.readouterr().out

    def test_bad_key_file_rejected(self, tmp_path, replica_endpoints):
        _, endpoints = replica_endpoints
        junk = tmp_path / "junk.pub"
        junk.write_bytes(b"not a key")
        with pytest.raises(SystemExit, match="not a logger public key"):
            main(["sth", _addr(endpoints[0]), "--key", str(junk)])


class TestProofCommand:
    def test_included_record_exits_zero(
        self, replica_endpoints, keypool, logger_key_file, capsys
    ):
        servers, endpoints = replica_endpoints
        servers[0].attach_signer(keypool[0].private, log_id="cli-proof")
        _feed_replicas(servers, keypool)
        assert (
            main(["proof", _addr(endpoints[0]), "2", "--key", logger_key_file])
            == 0
        )
        out = capsys.readouterr().out
        assert "INCLUDED" in out and "signature verified" in out

    def test_index_beyond_head_exits_two(
        self, replica_endpoints, keypool, capsys
    ):
        servers, endpoints = replica_endpoints
        servers[0].attach_signer(keypool[0].private)
        _feed_replicas(servers, keypool)
        assert main(["proof", _addr(endpoints[0]), "99"]) == 2
        assert "beyond the signed head" in capsys.readouterr().out

    def test_wrong_identity_key_exits_two(
        self, replica_endpoints, keypool, tmp_path, capsys
    ):
        servers, endpoints = replica_endpoints
        servers[0].attach_signer(keypool[0].private)
        _feed_replicas(servers, keypool)
        other = tmp_path / "other.pub"
        other.write_bytes(keypool[1].public.to_bytes())
        assert (
            main(["proof", _addr(endpoints[0]), "0", "--key", str(other)]) == 2
        )
        assert "INVALID" in capsys.readouterr().out


class TestReplicasGossip:
    def test_forked_logger_quarantined_with_evidence(
        self, forked_endpoints, logger_key_file, capsys
    ):
        _, endpoints = forked_endpoints
        args = [_addr(e) for e in endpoints] + [
            "--quorum", "1", "--key", logger_key_file,
        ]
        assert main(["replicas"] + args) == 2
        out = capsys.readouterr().out
        assert "EQUIVOCATION" in out
        assert out.count("breaker=open") == 2
