"""The reference the batched auditor is compared against.

:class:`~repro.audit.auditor.Auditor` verifies every signature it will
need as one batch per scheme before it classifies.  Skipping that
pre-pass leaves the classification phases to call ``verify_digest`` once
per check -- one signature at a time, the way the paper's investigator
does it -- which is what "batch equals inline" tests hold the batch to.
"""

from contextlib import contextmanager

from repro.audit.auditor import Auditor


@contextmanager
def per_signature_verification():
    """Inside the block every ``Auditor`` (also those built deep inside
    ``audit_sharded`` or ``final_audit``) verifies signature by signature."""
    batched = Auditor._precompute_verifications
    Auditor._precompute_verifications = lambda self, entries, topology: None
    try:
        yield
    finally:
        Auditor._precompute_verifications = batched
