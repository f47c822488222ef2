import pytest

from repro.errors import TopicTypeError, TransportError
from repro.middleware import handshake
from repro.middleware.transport.inproc import connection_pair


class TestHandshake:
    def test_roundtrip(self):
        a, b = connection_pair()
        handshake.send_header(a, "/sub", "/t", "std/String", "subscriber")
        header = handshake.recv_header(b, timeout=1.0)
        assert header.node_id == "/sub"
        assert header.topic == "/t"
        assert header.type_name == "std/String"
        assert header.role == "subscriber"

    def test_timeout_returns_none(self):
        a, b = connection_pair()
        assert handshake.recv_header(b, timeout=0.05) is None

    def test_malformed_header_raises(self):
        a, b = connection_pair()
        a.send_frame(b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")
        with pytest.raises(TransportError):
            handshake.recv_header(b, timeout=1.0)

    def test_check_accepts_matching(self):
        header = handshake.ConnectionHeader(
            node_id="/sub", topic="/t", type_name="std/String", role="subscriber"
        )
        handshake.check_header(header, "/t", "std/String", "subscriber")

    def test_check_rejects_wrong_topic(self):
        header = handshake.ConnectionHeader(
            node_id="/sub", topic="/other", type_name="std/String", role="subscriber"
        )
        with pytest.raises(TransportError):
            handshake.check_header(header, "/t", "std/String", "subscriber")

    def test_check_rejects_wrong_type(self):
        header = handshake.ConnectionHeader(
            node_id="/sub", topic="/t", type_name="sensors/Image", role="subscriber"
        )
        with pytest.raises(TopicTypeError):
            handshake.check_header(header, "/t", "std/String", "subscriber")

    def test_check_rejects_wrong_role(self):
        header = handshake.ConnectionHeader(
            node_id="/sub", topic="/t", type_name="std/String", role="publisher"
        )
        with pytest.raises(TransportError):
            handshake.check_header(header, "/t", "std/String", "subscriber")
