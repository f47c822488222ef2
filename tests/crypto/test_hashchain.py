"""The hash chain: ``HashChain`` is the running head and length; the
records and their digests live in the store, and :func:`verify_chain` is
the tamper check over them."""

from hypothesis import given, strategies as st

from repro.core.log_store import InMemoryLogStore
from repro.crypto.hashchain import GENESIS, HashChain, chain_digest, verify_chain


def chained(payloads):
    """``(payload, digest)`` records as a store keeps them."""
    chain = HashChain()
    return [(payload, chain.append(payload)) for payload in payloads]


class TestHashChain:
    def test_empty_chain_verifies(self):
        chain = HashChain()
        assert verify_chain([]) == (True, None)
        assert chain.head == GENESIS
        assert len(chain) == 0

    def test_append_returns_indexed_entries(self):
        chain = HashChain()
        d0 = chain.append(b"first")
        assert len(chain) == 1
        d1 = chain.append(b"second")
        assert len(chain) == 2
        assert d1 == chain.head == chain_digest(d0, b"second")
        assert verify_chain([(b"first", d0), (b"second", d1)]) == (True, None)

    def test_head_changes_per_append(self):
        chain = HashChain()
        heads = {chain.head}
        for i in range(5):
            chain.append(f"r{i}".encode())
            heads.add(chain.head)
        assert len(heads) == 6

    def test_verify_detects_payload_tamper(self):
        records = chained(f"record {i}".encode() for i in range(5))
        records[2] = (b"tampered", records[2][1])
        assert verify_chain(records) == (False, 2)

    def test_verify_detects_reordering(self):
        records = chained(f"record {i}".encode() for i in range(4))
        records[1], records[2] = records[2], records[1]
        assert verify_chain(records) == (False, 1)

    def test_verify_against_commitment(self):
        """A head noted down earlier commits to a prefix only: the records
        still chain, but their last digest is the current head, not it."""
        chain = HashChain()
        records = [(b"x", chain.append(b"x"))]
        noted = chain.head
        records.append((b"y", chain.append(b"y")))
        assert verify_chain(records) == (True, None)
        assert records[-1][1] == chain.head != noted
        assert records[0][1] == noted

    def test_payloads_in_order(self):
        store = InMemoryLogStore()
        store.append_batch([b"a"])
        store.append_batch([b"b"])
        assert store.records() == [b"a", b"b"]
        store.verify()

    def test_identical_payloads_get_distinct_digests(self):
        chain = HashChain()
        d0 = chain.append(b"same")
        d1 = chain.append(b"same")
        assert d0 != d1


class TestVerifyChain:
    def test_valid_sequence(self):
        digests = []
        prev = GENESIS
        for payload in [b"1", b"2", b"3"]:
            prev = chain_digest(prev, payload)
            digests.append((payload, prev))
        assert verify_chain(digests) == (True, None)

    def test_reports_first_bad_index(self):
        records = []
        prev = GENESIS
        for payload in [b"1", b"2", b"3"]:
            prev = chain_digest(prev, payload)
            records.append([payload, prev])
        records[1][0] = b"evil"
        ok, index = verify_chain([tuple(r) for r in records])
        assert not ok and index == 1

    @given(st.lists(st.binary(max_size=32), max_size=20))
    def test_honest_chains_always_verify(self, payloads):
        chain = HashChain()
        records = [(payload, chain.append(payload)) for payload in payloads]
        assert verify_chain(records) == (True, None)
        assert len(chain) == len(payloads)
