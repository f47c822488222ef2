"""The pluggable signature-scheme layer: registry, tagging, defaults."""

import pytest

from repro.core.log_server import LogServer
from repro.core.policy import AdlpConfig
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey, generate_keypair
from repro.crypto.schemes import (
    DEFAULT_SCHEME,
    SCHEME_ENV_VAR,
    default_scheme_name,
    get_scheme,
    register_scheme,
    scheme_for_tag,
    scheme_names,
)
from repro.errors import DecodingError, KeyGenerationError, LoggingError


class TestRegistry:
    def test_both_backends_registered(self):
        assert scheme_names() == ["ed25519", "rsa"]

    def test_get_scheme_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown signature scheme"):
            get_scheme("dsa")

    def test_tag_lookup(self):
        assert scheme_for_tag(0x01).name == "rsa"
        assert scheme_for_tag(0x02).name == "ed25519"

    def test_unknown_tag_is_decoding_error(self):
        with pytest.raises(DecodingError, match="unknown signature scheme tag"):
            scheme_for_tag(0x7F)

    def test_reregistering_same_instance_is_idempotent(self):
        rsa = get_scheme("rsa")
        assert register_scheme(rsa) is rsa

    def test_conflicting_registration_rejected(self):
        class Impostor:
            name = "rsa"
            tag = 0x01

        with pytest.raises(ValueError, match="already registered"):
            register_scheme(Impostor())


class TestDefaults:
    def test_default_is_rsa(self, monkeypatch):
        monkeypatch.delenv(SCHEME_ENV_VAR, raising=False)
        assert default_scheme_name() == DEFAULT_SCHEME == "rsa"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SCHEME_ENV_VAR, "ed25519")
        assert default_scheme_name() == "ed25519"
        assert generate_keypair(seed=3).public.scheme_name == "ed25519"

    def test_explicit_scheme_beats_env(self, monkeypatch):
        monkeypatch.setenv(SCHEME_ENV_VAR, "ed25519")
        assert generate_keypair(512, seed=3, scheme="rsa").public.scheme_name == "rsa"


class TestConfig:
    def test_config_follows_env(self, monkeypatch):
        monkeypatch.setenv(SCHEME_ENV_VAR, "ed25519")
        assert AdlpConfig().signature_scheme == "ed25519"

    def test_explicit_config_scheme(self):
        assert AdlpConfig(signature_scheme="ed25519").signature_scheme == "ed25519"

    def test_unknown_scheme_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown signature scheme"):
            AdlpConfig(signature_scheme="rot13")


class TestTaggedKeys:
    @pytest.mark.parametrize("scheme", ["rsa", "ed25519"])
    def test_roundtrip(self, scheme, deterministic_seed):
        pair = generate_keypair(512, seed=deterministic_seed, scheme=scheme)
        raw = pair.public.to_bytes()
        assert raw[0] == 0xA5
        restored = PublicKey.from_bytes(raw)
        assert restored == pair.public
        assert restored.scheme_name == scheme

    def test_untagged_rsa_key_rejected(self, rsa_keypool):
        public = rsa_keypool[0].public
        # the pre-scheme encoding: payload only, no magic/tag prefix
        untagged = get_scheme("rsa").public_to_bytes(public.numbers)
        assert untagged[0] != 0xA5
        with pytest.raises(DecodingError, match="no scheme tag"):
            PublicKey.from_bytes(untagged)

        server = LogServer()
        endpoint = LogServerEndpoint(server)
        client = RemoteLogger(endpoint.address)
        try:
            with pytest.raises(LoggingError, match="key registration rejected"):
                client.register_key("/a", untagged)
            assert client.connected  # an error reply, not a dropped link
            client.register_key("/a", public)
            assert server.public_key("/a") == public
        finally:
            client.close()
            endpoint.close()

    def test_cross_scheme_signatures_do_not_verify(self, deterministic_seed):
        rsa_pair = generate_keypair(512, seed=deterministic_seed, scheme="rsa")
        ed_pair = generate_keypair(seed=deterministic_seed, scheme="ed25519")
        digest = sha256(b"payload")
        rsa_sig = rsa_pair.private.sign_digest(digest)
        ed_sig = ed_pair.private.sign_digest(digest)
        assert not rsa_pair.public.verify_digest(digest, ed_sig)
        assert not ed_pair.public.verify_digest(digest, rsa_sig)

    def test_ed25519_sizes(self, deterministic_seed):
        pair = generate_keypair(seed=deterministic_seed, scheme="ed25519")
        assert pair.public.signature_size == 64
        assert len(pair.public.to_bytes()) == 34  # magic + tag + 32-byte point
        assert len(pair.private.sign(b"m")) == 64

    def test_ed25519_rejects_tiny_bits(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(64, seed=1, scheme="ed25519")

    def test_private_repr_hides_secret(self, deterministic_seed):
        pair = generate_keypair(seed=deterministic_seed, scheme="ed25519")
        assert pair.private.numbers.secret.hex() not in repr(pair.private)

    def test_fingerprints_differ_across_schemes(self, deterministic_seed):
        rsa_fp = generate_keypair(
            512, seed=deterministic_seed, scheme="rsa"
        ).public.fingerprint()
        ed_fp = generate_keypair(
            seed=deterministic_seed, scheme="ed25519"
        ).public.fingerprint()
        assert rsa_fp != ed_fp
