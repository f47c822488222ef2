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
