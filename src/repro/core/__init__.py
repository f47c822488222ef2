"""ADLP: the Accountable Data Logging Protocol.

The package implements the paper's Section IV protocol and Section V
prototype structure:

- :mod:`repro.core.entries` -- the log-entry record (one structure shared by
  the naive and ADLP schemes, as in the prototype).
- :mod:`repro.core.protocol` -- the wire envelope ``M_x = (seq, D, s_x)``
  and acknowledgement ``M_y = (seq, h(I_y), s_y)``.
- :mod:`repro.core.policy` -- :class:`AdlpConfig`: tunable protocol knobs
  (store ``h(D)`` vs ``D``, withhold-until-ACK, ACK timeout, aggregation).
- :mod:`repro.core.logging_thread` -- the per-node background thread that
  pushes entries to the logger (Section V-B's *Logging Thread*).
- :mod:`repro.core.log_server` / :mod:`repro.core.log_store` -- the trusted
  logger: key registration, hash-chained tamper-evident entry store.
- :mod:`repro.core.naive_protocol` -- Definition 2's naive/base scheme.
- :mod:`repro.core.adlp_protocol` -- the ADLP transport protocol proper.
"""

from repro.core.entries import Direction, Scheme, LogEntry
from repro.core.protocol import AdlpMessage, AdlpAck, message_digest
from repro.core.policy import AdlpConfig, ReplicationConfig
from repro.core.log_server import LogCommitment, LogServer
from repro.core.log_store import InMemoryLogStore
from repro.core.dedup_store import DedupLogStore
from repro.core.logging_thread import LoggingThread
from repro.core.naive_protocol import NaiveProtocol
from repro.core.adlp_protocol import AdlpProtocol
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.storage.durable_store import DurableLogStore

__all__ = [
    "DurableLogStore",
    "LogServerEndpoint",
    "RemoteLogger",
    "Direction",
    "Scheme",
    "LogEntry",
    "AdlpMessage",
    "AdlpAck",
    "message_digest",
    "AdlpConfig",
    "ReplicationConfig",
    "LogServer",
    "LogCommitment",
    "InMemoryLogStore",
    "DedupLogStore",
    "LoggingThread",
    "NaiveProtocol",
    "AdlpProtocol",
]
