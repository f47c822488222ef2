"""The package's public face: exports, versioning, error hierarchy."""

import importlib

import pytest

import repro
from repro import errors


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_symbols(self):
        # the README quickstart must keep working
        from repro import (
            AdlpConfig,
            AdlpProtocol,
            Auditor,
            LogServer,
            Master,
            NaiveProtocol,
            Node,
            Topology,
            render_report,
        )

        assert callable(render_report)


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), name

    def test_subsystem_grouping(self):
        assert issubclass(errors.KeyGenerationError, errors.CryptoError)
        assert issubclass(errors.SignatureError, errors.CryptoError)
        assert issubclass(errors.DecodingError, errors.EncodingError)
        assert issubclass(errors.TransportError, errors.MiddlewareError)
        assert issubclass(errors.AckTimeoutError, errors.ProtocolError)
        assert issubclass(errors.LogIntegrityError, errors.LoggingError)

    def test_single_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.StaleSequenceError("x")


class TestHarnessCodeIsNotInTheLibrary:
    """The benchmark harness lives in ``benchmarks/harness.py`` and the
    fault injector and scenario matrix in ``tests/sim/``: none of them is
    part of the installed package."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.bench",
            "repro.resilience",
            "repro.resilience.matrix",
            "repro.middleware.transport.faulty",
        ],
    )
    def test_not_importable(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


class TestTopicShardingIsGone:
    """One trusted logger, as in the paper: the topic-sharded logger and
    every option that reached it are deleted, not merely unused."""

    def test_package_not_importable(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.sharding")

    def test_replication_config_has_no_shards(self):
        from repro.core.policy import ReplicationConfig

        with pytest.raises(TypeError):
            ReplicationConfig(shards=2)

    def test_remote_logger_has_no_shard(self):
        from repro.core.remote import RemoteLogger

        with pytest.raises(TypeError):
            RemoteLogger(("tcp", "127.0.0.1", 1), shard=0)
        assert not hasattr(RemoteLogger, "shard_count")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "DIR", "--shards", "2"],
            ["recover", "DIR", "--shard", "0"],
            ["sth", "127.0.0.1:1", "--shard", "0"],
        ],
    )
    def test_cli_rejects_shard_options(self, argv, capsys):
        from repro.tools.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
