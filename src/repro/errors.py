"""Exception hierarchy for the ADLP reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class KeyGenerationError(CryptoError):
    """Raised when RSA key generation fails (e.g. bad parameters)."""


class SignatureError(CryptoError):
    """Raised when signing fails or a signature is structurally unusable.

    Note that a signature that simply does not verify is *not* an error:
    verification functions return ``False`` in that case.  This exception is
    reserved for misuse, e.g. a message too large for the key modulus.
    """


class EncodingError(ReproError):
    """Base class for serialization failures."""


class DecodingError(EncodingError):
    """Raised when a byte stream cannot be decoded into a message."""


class SchemaError(EncodingError):
    """Raised when a message schema is declared or used inconsistently."""


class MiddlewareError(ReproError):
    """Base class for publish-subscribe middleware failures."""


class NameError_(MiddlewareError):
    """Raised for invalid node or topic names.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`NameError`.
    """


class TopicTypeError(MiddlewareError):
    """Raised when publishers/subscribers disagree about a topic's type."""


class DuplicatePublisherError(MiddlewareError):
    """Raised when a second publisher registers for an existing topic.

    The paper's system model (Section II) requires that *no two components
    publish the same data type*; the master enforces this invariant.
    """


class TransportError(MiddlewareError):
    """Raised for transport-level failures (framing, connection loss)."""


class NodeShutdownError(MiddlewareError):
    """Raised when an operation is attempted on a node that was shut down."""


class ProtocolError(ReproError):
    """Base class for ADLP protocol violations."""


class AckTimeoutError(ProtocolError):
    """Raised when a publisher gives up waiting for a subscriber's ACK."""


class StaleSequenceError(ProtocolError):
    """Raised when a message or ACK carries an out-of-window sequence number."""


class LoggingError(ReproError):
    """Base class for failures in log generation or ingestion."""


class LogIntegrityError(LoggingError):
    """Raised when the tamper-evident structure of a log store is violated."""


class DeadlineExceeded(LoggingError):
    """A request's client-stamped deadline budget expired before the
    server performed the expensive work (the entry was NOT ingested)."""


class UnknownComponentError(LoggingError):
    """Raised when a log entry references a component with no registered key."""


class ProofError(LoggingError, IndexError):
    """Raised when a Merkle proof request is malformed or unsatisfiable.

    Covers out-of-range or negative leaf indexes, tree sizes beyond the
    current log, and inverted consistency ranges.  Deliberately *not* a
    :class:`LogIntegrityError`: the log is fine, the request is not, and
    remote servers answer it with a clean typed error rather than a
    traceback.  Also derives from :class:`IndexError` so callers that
    treated proof requests as plain sequence lookups keep working.
    """


class AuditError(ReproError):
    """Base class for auditor failures (not detections -- real errors)."""
