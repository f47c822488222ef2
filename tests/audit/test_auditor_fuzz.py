"""Robustness: the auditor processes adversary-controlled input by
definition, so it must never crash, hang, or mis-account -- whatever the
log contains."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import Auditor, EntryClass, OnlineAuditor, Topology
from repro.core.entries import Direction, LogEntry, Scheme
from repro.crypto.keystore import KeyStore
from repro.util.clock import SimulatedClock


def _keystore(keypool):
    store = KeyStore()
    store.register("/pub", keypool[0].public)
    store.register("/sub", keypool[1].public)
    return store


arbitrary_entries = st.builds(
    LogEntry,
    component_id=st.sampled_from(["/pub", "/sub", "/ghost", ""]),
    topic=st.sampled_from(["/t", "/other", ""]),
    type_name=st.sampled_from(["std/String", "x/Y", ""]),
    direction=st.sampled_from(list(Direction)),
    seq=st.integers(min_value=0, max_value=1 << 32),
    timestamp=st.floats(allow_nan=False, allow_infinity=False, width=32),
    scheme=st.sampled_from(list(Scheme)),
    data=st.binary(max_size=64),
    data_hash=st.binary(max_size=64),  # deliberately wrong sizes too
    own_sig=st.binary(max_size=80),
    peer_id=st.sampled_from(["/pub", "/sub", "/ghost", ""]),
    peer_hash=st.binary(max_size=64),
    peer_sig=st.binary(max_size=80),
    aggregated=st.booleans(),
    ack_peer_ids=st.lists(st.sampled_from(["/sub", "/x"]), max_size=3),
    ack_peer_hashes=st.lists(st.binary(max_size=32), max_size=3),
    ack_peer_sigs=st.lists(st.binary(max_size=64), max_size=3),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(arbitrary_entries, max_size=12))
def test_auditor_never_crashes_and_accounts_every_entry(keypool, entries):
    keystore, topology = _keystore(keypool), Topology(publisher_of={"/t": "/pub"})
    report = Auditor(keystore, topology).audit(entries)
    # partition property: every input entry gets exactly one verdict
    assert len(report.classified) == len(entries)
    assert all(c.verdict in (EntryClass.VALID, EntryClass.INVALID) for c in report.classified)
    # accounting matches
    total = sum(
        v.valid_entries + v.invalid_entries for v in report.components.values()
    )
    assert total == len(entries)
    # online == batch: the same entries streamed in, then drained, give
    # the batch audit's findings and, at the end, its report
    online = OnlineAuditor(keystore, topology, clock=SimulatedClock())
    # grace 0 closes every one-sided transmission at once, so each late
    # counterpart re-opens and re-judges one
    eager = OnlineAuditor(keystore, topology, grace_period=0.0, clock=SimulatedClock())
    for entry in entries:
        online.ingest(entry)
        eager.ingest(entry)
    online.drain()
    assert set(online.findings) == set(OnlineAuditor._findings_from(report))
    assert online.final_audit() == report
    assert eager.final_audit() == report
    # the batch audit given no topology infers one from the whole log;
    # streamed under that topology, the entries give the same report
    inferred = OnlineAuditor(keystore, Topology.from_entries(entries), clock=SimulatedClock())
    for entry in entries:
        inferred.ingest(entry)
    assert inferred.final_audit() == Auditor(keystore).audit(entries)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(arbitrary_entries, max_size=10))
def test_audit_is_deterministic(keypool, entries):
    auditor = Auditor(_keystore(keypool), Topology(publisher_of={"/t": "/pub"}))
    a = auditor.audit(entries)
    b = auditor.audit(entries)
    assert [(c.verdict, c.reasons) for c in a.classified] == [
        (c.verdict, c.reasons) for c in b.classified
    ]
    assert a.hidden == b.hidden


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(arbitrary_entries, max_size=10))
def test_random_entries_never_convict_uninvolved_components(keypool, entries):
    """A flood of garbage must not produce hidden-entry accusations against
    components that no *valid* counterpart evidence implicates."""
    auditor = Auditor(_keystore(keypool), Topology(publisher_of={"/t": "/pub"}))
    report = auditor.audit(entries)
    for hidden in report.hidden:
        # hidden records may only arise from a VALID counterpart entry
        witnesses = [
            c
            for c in report.classified
            if c.verdict is EntryClass.VALID
            and c.transmission == hidden.transmission
        ]
        assert witnesses, hidden
