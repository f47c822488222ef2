"""ADLP: Accountable Data Logging Protocol for publish-subscribe systems.

A full reproduction of *"ADLP: Accountable Data Logging Protocol for
Publish-Subscribe Communication Systems"* (Yoon & Shao, ICDCS 2019),
including every substrate the paper depends on:

- :mod:`repro.crypto` -- SHA-256 digests, RSA-1024 with PKCS#1 v1.5
  signatures (Ed25519 as the upgrade path), hash chains, Merkle trees;
- :mod:`repro.serialization` -- a protobuf-style wire format;
- :mod:`repro.middleware` -- a ROS-like pub/sub middleware with TCP and
  in-process transports;
- :mod:`repro.core` -- ADLP itself plus the naive baseline and the trusted
  log server;
- :mod:`repro.audit` -- the auditor: classification, disputes, causality,
  collusion analysis;
- :mod:`repro.adversary` -- injectable unfaithful behaviors;
- :mod:`repro.apps.selfdriving` -- the paper's demo application on a
  simulated track.

The measurement harness lives beside the benchmarks that use it
(``benchmarks/harness.py``), and the fault injector and scenario matrix
beside the tests (``tests/sim/``).

Quickstart::

    from repro import (
        Master, Node, LogServer, AdlpProtocol, Auditor, render_report,
    )
    from repro.middleware.msgtypes import StringMsg

    master, server = Master(), LogServer()
    talker = Node("/talker", master, protocol=AdlpProtocol("/talker", server))
    listener = Node("/listener", master, protocol=AdlpProtocol("/listener", server))
    listener.subscribe("/chat", StringMsg, print)
    pub = talker.advertise("/chat", StringMsg)
    pub.publish(StringMsg(data="hello, accountable world"))
    ...
    print(render_report(Auditor.for_server(server).audit_server(server)))
"""

from repro.audit import Auditor, Topology, render_report
from repro.core import (
    AdlpConfig,
    AdlpProtocol,
    Direction,
    LogEntry,
    LogServer,
    NaiveProtocol,
    Scheme,
)
from repro.crypto import generate_keypair
from repro.middleware import Master, Node

__version__ = "1.0.0"

__all__ = [
    "Master",
    "Node",
    "LogServer",
    "LogEntry",
    "Direction",
    "Scheme",
    "AdlpConfig",
    "AdlpProtocol",
    "NaiveProtocol",
    "Auditor",
    "Topology",
    "render_report",
    "generate_keypair",
    "__version__",
]
