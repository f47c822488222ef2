"""The reference the batched auditor is compared against.

:class:`~repro.audit.auditor.AuditFold` verifies the signatures each
feed will need as one batch per scheme before it classifies.  Skipping
that batch leaves the classification to call ``verify_digest`` once per
distinct check -- one signature at a time, the way the paper's
investigator does it -- which is what "batch equals inline" tests hold
the batch to.
"""

from contextlib import contextmanager

from repro.audit.auditor import AuditFold


@contextmanager
def per_signature_verification():
    """Inside the block every fold (also those built deep inside
    ``audit_replica_set`` or an ``OnlineAuditor``) verifies signature by
    signature."""
    batched = AuditFold._verify_batches
    AuditFold._verify_batches = lambda self, triples: None
    try:
        yield
    finally:
        AuditFold._verify_batches = batched
