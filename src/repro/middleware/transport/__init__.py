"""Point-to-point transports for publisher->subscriber links.

ROS delivers topic data over per-subscriber TCP connections ("TCPROS") with
a 4-byte length preamble per frame; ADLP additionally uses the *return*
direction of the same connection for acknowledgement messages.  Both
transports here expose the same bidirectional framed-connection interface
over the same socket code:

- :mod:`repro.middleware.transport.tcp` -- real TCP sockets on localhost.
- :mod:`repro.middleware.transport.inproc` -- a private network of named
  listeners inside one process whose connections are loopback socket
  pairs, used by most tests.
"""

from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Listener,
    Transport,
    TransportProtocol,
    PublisherProtocol,
    SubscriberProtocol,
    PlainProtocol,
)
from repro.middleware.transport.inproc import InprocTransport
from repro.middleware.transport.tcp import TcpTransport

__all__ = [
    "Connection",
    "ConnectionClosed",
    "Listener",
    "Transport",
    "TransportProtocol",
    "PublisherProtocol",
    "SubscriberProtocol",
    "PlainProtocol",
    "InprocTransport",
    "TcpTransport",
]
