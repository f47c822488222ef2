"""Investigator tooling.

The paper motivates ADLP with third-party investigators (e.g. the NTSB)
who must examine run-time evidence *independently* of the manufacturer
(Section I).  This package gives them a workflow:

- :mod:`repro.tools.caseio` -- export a log server's evidence as a
  self-contained, tamper-evident **case bundle** (a log-store directory
  plus a MANIFEST) and open any store directory in place.
- :mod:`repro.tools.cli` -- ``python -m repro.tools`` with subcommands
  ``verify`` (integrity), ``inspect`` (list entries), ``audit`` (full
  classification), ``trace`` (provenance lineage of one datum) and
  ``recover`` (what survived a crash).
"""

from repro.tools.caseio import export_case, load_case, CaseBundle

__all__ = ["export_case", "load_case", "CaseBundle"]
