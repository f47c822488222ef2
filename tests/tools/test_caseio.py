import os
import shutil

import pytest

from repro.errors import LogIntegrityError
from repro.storage.durable_store import CHECKPOINT_SUBDIR, WAL_SUBDIR
from repro.storage.wal import segment_paths
from repro.tools.caseio import export_case, load_case

from tests.helpers import run_scenario


def snapshot(path):
    """Every file under ``path`` with its bytes."""
    files = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as f:
                files[os.path.relpath(full, path)] = f.read()
    return files


def flip_wal_byte(path, position=None):
    """Flip one byte of the case's (only) WAL segment, by default in its
    middle (a negative ``position`` counts from the end)."""
    [(_, segment)] = segment_paths(os.path.join(path, WAL_SUBDIR))
    size = os.path.getsize(segment)
    with open(segment, "r+b") as f:
        f.seek(size // 2 if position is None else position % size)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture()
def case_dir(tmp_path, keypool):
    result = run_scenario(keypool, publications=3)
    path = str(tmp_path / "case")
    export_case(result.server, path)
    return path, result


class TestExportLoad:
    def test_roundtrip_preserves_entries(self, case_dir):
        path, result = case_dir
        bundle = load_case(path)
        assert len(bundle.server) == len(result.server)
        original = [e.encode() for e in result.server.entries()]
        restored = [e.encode() for e in bundle.server.entries()]
        assert original == restored

    def test_roundtrip_preserves_keys(self, case_dir):
        path, result = case_dir
        bundle = load_case(path)
        for component in result.server.components():
            assert bundle.server.public_key(component) == result.server.public_key(
                component
            )

    def test_merkle_root_matches(self, case_dir):
        path, result = case_dir
        bundle = load_case(path)
        assert bundle.server.merkle_root() == result.server.merkle_root()

    def test_manifest_written(self, case_dir):
        path, _ = case_dir
        manifest = open(os.path.join(path, "MANIFEST")).read()
        assert "merkle_root:" in manifest and "entries:" in manifest

    def test_loaded_case_is_auditable(self, case_dir):
        path, _ = case_dir
        bundle = load_case(path)
        from repro.audit import Auditor

        report = Auditor.for_server(bundle.server).audit_server(bundle.server)
        assert report.flagged_components() == []
        assert len(report.valid_entries()) == 6

    def test_double_export_rejected(self, case_dir):
        path, result = case_dir
        with pytest.raises(FileExistsError):
            export_case(result.server, path)

    def test_case_is_a_store_opened_in_place(self, case_dir):
        path, result = case_dir
        assert sorted(os.listdir(path)) == ["MANIFEST", CHECKPOINT_SUBDIR, WAL_SUBDIR]
        before = snapshot(path)
        bundle = load_case(path)
        assert bundle.server.store.path == path
        assert bundle.server.store.recovery.replayed == 0  # one checkpoint covers all
        assert bundle.server.store.head() == result.server.store.head()
        bundle.server.close()
        assert snapshot(path) == before

    def test_zero_entry_case_keeps_keys(self, tmp_path, keypool):
        from repro.core import LogServer

        server = LogServer()
        server.register_key("/pub", keypool[0].public)
        path = str(tmp_path / "empty-case")
        export_case(server, path)
        bundle = load_case(path)
        assert len(bundle.server) == 0
        assert bundle.server.public_key("/pub") == keypool[0].public


class TestTamperDetection:
    def test_modified_entries_detected(self, case_dir):
        path, _ = case_dir
        flip_wal_byte(path)
        before = snapshot(path)
        with pytest.raises(LogIntegrityError, match="tampered"):
            load_case(path)
        # refused before a byte changed: the evidence stays as found
        assert snapshot(path) == before

    def test_missing_entries_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_case(str(tmp_path))
        (tmp_path / "readme.txt").write_text("not a store")
        with pytest.raises(FileNotFoundError):
            load_case(str(tmp_path))
        assert os.listdir(tmp_path) == ["readme.txt"]

    def test_manifest_mismatch_detected(self, case_dir, tmp_path, keypool):
        # Replace the store wholesale with a different (self-consistent)
        # one; the MANIFEST's Merkle commitment must catch it.
        path, _ = case_dir
        other = run_scenario(keypool, publications=1)
        other_dir = str(tmp_path / "other")
        export_case(other.server, other_dir)
        for sub in (WAL_SUBDIR, CHECKPOINT_SUBDIR):
            shutil.rmtree(os.path.join(path, sub))
            os.replace(os.path.join(other_dir, sub), os.path.join(path, sub))
        with pytest.raises(LogIntegrityError, match="MANIFEST"):
            load_case(path)
