"""The relay that lets a ``LogServerEndpoint`` serve a faulty transport:
faults scripted on the endpoint's replies fire while its event loop
serves the connection."""

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.errors import LoggingError
from repro.util.concurrency import wait_for
from tests.sim.faulty import FaultSchedule, FaultyTransport, RelayedTransport


@pytest.fixture()
def serve():
    opened = []

    def start(schedule):
        faulty = FaultyTransport(schedule=schedule)
        endpoint = LogServerEndpoint(LogServer(), transport=RelayedTransport(faulty))
        client = RemoteLogger(endpoint.address, transport=faulty)
        opened.extend([client, endpoint])
        return faulty, endpoint, client

    yield start
    for thing in opened:
        thing.close()


def accepted(faulty):
    return [c for c in faulty.connections if c.side == "accept"]


def test_dropped_reply_is_lost_and_the_next_one_arrives(serve):
    faulty, _, client = serve(FaultSchedule(seed=1).script("accept", 0, "drop"))
    with pytest.raises(LoggingError):
        client.health(timeout=0.3)
    assert client.health(timeout=5.0).entries == 0
    assert accepted(faulty)[0].applied == [(0, "drop")]


def test_disconnect_on_a_reply_closes_the_served_connection(serve):
    faulty, endpoint, client = serve(
        FaultSchedule(seed=1).script("accept", 0, "disconnect")
    )
    with pytest.raises(LoggingError):
        client.health(timeout=5.0)
    assert accepted(faulty)[0].applied == [(0, "disconnect")]
    # the endpoint sees its end of the relay close, like a client hang-up
    assert wait_for(lambda: not endpoint._connections, timeout=5.0)
    assert client.health(timeout=5.0).entries == 0
    assert len(accepted(faulty)) == 2
