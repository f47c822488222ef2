"""Shared benchmark fixtures.

Benchmarks run with the paper's cryptographic parameters (RSA-1024,
SHA-256).  Key pairs are seeded so repeated runs measure the same keys.
Results print as paper-style tables and are captured into
``bench_results.json`` (see :mod:`benchmarks.harness`, the timing, CPU,
rate and reporting helpers the benchmarks share).
"""

from __future__ import annotations

import pytest

from repro.core.policy import AdlpConfig
from repro.crypto.keys import generate_keypair


@pytest.fixture(scope="session")
def bench_keys():
    """Seeded 1024-bit keys (the paper's RSA-1024), by index.

    Scheme-pinned: Table I measures the paper's crypto regardless of the
    ``ADLP_SIG_SCHEME`` the suite runs under (the per-scheme comparison
    rows have their own keys)."""
    return [generate_keypair(1024, seed=31337 + i, scheme="rsa") for i in range(8)]


@pytest.fixture(scope="session")
def paper_config():
    """ADLP as the paper runs it: RSA-1024, subscriber stores h(D)."""
    return AdlpConfig(key_bits=1024, subscriber_stores_hash=True, ack_timeout=10.0)
