import pytest

from repro.core import Direction, LogServer, NaiveProtocol, Scheme
from repro.middleware import Master, Node
from repro.middleware.msgtypes import StringMsg
from repro.util.concurrency import wait_for


@pytest.fixture()
def naive_world():
    master = Master()
    server = LogServer()
    pub_protocol = NaiveProtocol("/pub", server.submit_batch)
    sub_protocol = NaiveProtocol("/sub", server.submit_batch)
    pub_node = Node("/pub", master, protocol=pub_protocol)
    sub_node = Node("/sub", master, protocol=sub_protocol)
    yield master, server, pub_node, sub_node, pub_protocol, sub_protocol
    pub_node.shutdown()
    sub_node.shutdown()


class TestNaiveProtocol:
    def test_both_sides_log_definition2_entries(self, naive_world):
        _, server, pub_node, sub_node, pub_protocol, sub_protocol = naive_world
        sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
        pub = pub_node.advertise("/t", StringMsg)
        pub.wait_for_subscribers(1)
        for i in range(3):
            pub.publish(StringMsg(data=f"m{i}"))
        sub.wait_for_messages(3)
        pub_protocol.flush()
        sub_protocol.flush()
        outs = server.entries(component_id="/pub", direction=Direction.OUT)
        ins = server.entries(component_id="/sub", direction=Direction.IN)
        assert len(outs) == 3 and len(ins) == 3
        for e in outs + ins:
            assert e.scheme is Scheme.NAIVE
            assert e.data  # stores the data as-is (Table III "Base")
            assert not e.own_sig and not e.peer_sig  # no crypto material

    def test_wire_payload_identical_to_plain(self, naive_world):
        # Naive logging changes what is *logged*, not what crosses the wire.
        _, server, pub_node, sub_node, pub_protocol, sub_protocol = naive_world
        got = []
        sub = sub_node.subscribe("/t", StringMsg, got.append)
        pub = pub_node.advertise("/t", StringMsg)
        pub.wait_for_subscribers(1)
        pub.publish(StringMsg(data="hello"))
        sub.wait_for_messages(1)
        assert got[0].data == "hello"

    def test_publisher_logs_once_per_publication(self, naive_world):
        master, server, pub_node, _, pub_protocol, _ = naive_world
        extra = Node("/sub2", master, protocol=NaiveProtocol("/sub2", server.submit_batch))
        try:
            s1 = pub_node  # placeholder to keep names clear
            subs = [
                n.subscribe("/t", StringMsg, lambda m: None)
                for n in (extra,)
            ]
            pub = pub_node.advertise("/t", StringMsg)
            pub.wait_for_subscribers(1)
            pub.publish(StringMsg(data="x"))
            wait_for(lambda: subs[0].stats.received >= 1)
            pub_protocol.flush()
            outs = server.entries(component_id="/pub", direction=Direction.OUT)
            assert len(outs) == 1  # not per subscriber
        finally:
            extra.shutdown()

    def test_subscriber_entry_records_publisher(self, naive_world):
        _, server, pub_node, sub_node, pub_protocol, sub_protocol = naive_world
        sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
        pub = pub_node.advertise("/t", StringMsg)
        pub.wait_for_subscribers(1)
        pub.publish(StringMsg(data="x"))
        sub.wait_for_messages(1)
        sub_protocol.flush()
        ins = server.entries(component_id="/sub")
        assert ins[0].peer_id == "/pub"
