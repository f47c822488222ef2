"""Resilience checks for the logging stack.

- :mod:`repro.resilience.matrix` -- the churn x fault x backend scenario
  matrix (imported explicitly as ``repro.resilience.matrix``; it pulls in
  the whole core stack, so the package ``__init__`` leaves it out).

The package no longer holds overload control.  Endpoint admission with
BUSY verdicts, client shed mode and the retry budget were measured and
deleted (EXPERIMENTS.md, "Overload verdict"): none of them ever fired at
library defaults.  The one mechanism that moved a number, the client's
outstanding-bytes credit window, is a single ``window_bytes`` setting on
:class:`~repro.core.remote.RemoteLogger`, next to its only user.
"""
