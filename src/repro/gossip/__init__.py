"""Gossiped signed tree heads and split-view detection.

Closes the last trust gap in the reproduction: every robustness layer so
far assumes the trusted logger is *honest*, and a compromised logger can
serve different, internally consistent histories to different observers
(a split view).  This package makes that attack detectable with
cryptographic evidence:

- :mod:`repro.gossip.sth` -- signed tree heads, the logger's signature
  over its own ``(entries, chain_head, merkle_root, timestamp)``.
- :mod:`repro.gossip.monitor` -- a client's verified-head cache with
  append-only (consistency proof) checking.
- :mod:`repro.gossip.relay` -- STH gossip between observers; conflicting
  heads meet and convict the logger.
- :mod:`repro.gossip.evidence` -- the self-contained
  :class:`EquivocationEvidence` pair anyone can re-verify.
"""

from repro.gossip.evidence import (
    KIND_CONSISTENCY,
    KIND_FORK,
    EquivocationEvidence,
    make_evidence,
)
from repro.gossip.monitor import TreeHeadMonitor
from repro.gossip.relay import GossipRelay, gossip_round
from repro.gossip.sth import SignedTreeHead, issue_sth, require_valid

__all__ = [
    "EquivocationEvidence",
    "GossipRelay",
    "KIND_CONSISTENCY",
    "KIND_FORK",
    "SignedTreeHead",
    "TreeHeadMonitor",
    "gossip_round",
    "issue_sth",
    "make_evidence",
    "require_valid",
]
