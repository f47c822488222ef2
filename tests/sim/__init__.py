"""The fault model of the test suite.

- :mod:`tests.sim.faulty` -- :class:`~tests.sim.faulty.FaultyTransport`,
  seeded, deterministic drop/dup/delay/reorder/truncate/disconnect faults
  on the send path of any transport, and :func:`~tests.sim.faulty.relayed`,
  which serves a faulty transport's accepted connections to a
  :class:`~repro.core.remote.LogServerEndpoint` over socket pairs.
- :mod:`tests.sim.matrix` -- the churn x fault x backend scenario matrix
  over that fault model.
"""
