"""The full churn x fault grid.

Marked ``overload`` (the marker keeps its name): deselected from the default tier-1 run (like
``soak``), executed by the CI overload job.  Run locally with::

    PYTHONPATH=src pytest tests/resilience/test_overload_soak.py -m overload

Each cell asserts the matrix invariant -- no acknowledged evidence is
ever lost and the audit never produces a false verdict -- and the grid
run records one bench row per cell for trend tracking.
"""

from __future__ import annotations

import pytest

from tests.sim.matrix import FAULT_PROFILES, enumerate_cells, run_matrix

pytestmark = pytest.mark.overload


def test_full_grid_holds_the_invariant(deterministic_seed):
    cells = enumerate_cells(full=True)
    results = run_matrix(cells=cells, seed=deterministic_seed, record=True)
    failed = [r for r in results if not r.ok]
    detail = "; ".join(
        f"{r.cell.name}: {r.failures}" for r in failed[:10]
    )
    assert not failed, f"{len(failed)}/{len(results)} cells failed: {detail}"
    # every non-replicated transport-fault cell faulted an endpoint reply
    # (its scripted one at least), so none passes without testing one
    unfaulted = [
        r.cell.name
        for r in results
        if FAULT_PROFILES[r.cell.fault]
        and r.cell.backend != "replicated"
        and r.accept_faults < 1
    ]
    assert not unfaulted, f"no reply fault injected in {unfaulted}"
