"""Tier-1 smoke slice of the churn x fault x overload scenario matrix.

At least one cell per backend, covering a lossy transport, an
equivocating logger, an admission-control overload, an endpoint restart
and a replica disconnect between them.  The full grid runs under the ``overload`` marker (see
``test_overload_soak.py``); this slice is the always-on regression bar:
every cell must hold the invariant -- no acknowledged evidence lost, no
false audit verdicts.
"""

from __future__ import annotations

import pytest

from repro.resilience.matrix import (
    CELL_TIMEOUT,
    EQUIVOCATION_ROUND_BOUND,
    ScenarioCell,
    enumerate_cells,
    run_cell,
)

SMOKE = enumerate_cells(full=False)


@pytest.mark.parametrize("cell", SMOKE, ids=[c.name for c in SMOKE])
def test_smoke_cell_holds_the_invariant(cell, deterministic_seed):
    result = run_cell(cell, seed=deterministic_seed)
    assert result.ok, (
        f"{cell.name}: {result.failures} "
        f"(submitted={result.submitted} acked={result.acked} "
        f"delivered={result.delivered} busy={result.busy_responses})"
    )
    assert result.delivered > 0
    assert result.invalid == 0
    assert result.hidden == 0
    assert result.elapsed < CELL_TIMEOUT
    if cell.fault == "overload":
        # The overload cell is only meaningful if admission control
        # actually engaged: BUSY verdicts observed, shed entries counted.
        assert result.busy_responses > 0
        assert result.shed_entries > 0
    if cell.fault == "equivocation":
        # The fork must be caught within the bounded gossip rounds and
        # produce self-contained evidence (verified inside run_cell).
        assert result.equivocation_evidence > 0
        assert 0 < result.gossip_rounds <= EQUIVOCATION_ROUND_BOUND
    else:
        # Zero false positives: honest cells never manufacture evidence.
        assert result.equivocation_evidence == 0


class TestScenarioCellValidation:
    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError):
            ScenarioCell("mainframe", "none", "none", "light")
        with pytest.raises(ValueError):
            ScenarioCell("plain", "bitflip", "none", "light")
        with pytest.raises(ValueError):
            ScenarioCell("plain", "none", "rolling", "light")
        with pytest.raises(ValueError):
            ScenarioCell("plain", "none", "none", "crush")

    def test_rejects_unsound_fault_backend_combos(self):
        # dup/reorder are excluded everywhere by design (see matrix.py);
        # the replicated backend cannot prove "no acked loss" under
        # silent fire-and-forget drop/truncate.
        with pytest.raises(ValueError):
            ScenarioCell("replicated", "truncate", "none", "light")

    def test_rejects_overload_with_churn(self):
        with pytest.raises(ValueError):
            ScenarioCell("plain", "overload", "restart", "light")

    def test_rejects_unsound_equivocation_cells(self):
        # The fork adversary only runs on the plain backend, churn-free.
        with pytest.raises(ValueError):
            ScenarioCell("plain", "equivocation", "restart", "light")
        with pytest.raises(ValueError):
            ScenarioCell("sharded", "equivocation", "none", "light")
        with pytest.raises(ValueError):
            ScenarioCell("replicated", "equivocation", "none", "light")

    def test_full_grid_enumerates_only_sound_cells(self):
        cells = enumerate_cells(full=True)
        assert len(cells) == len(set(cells))  # no duplicates
        assert len(cells) == 60
        for cell in cells:
            assert ScenarioCell(
                cell.backend, cell.fault, cell.churn, cell.load
            ) == cell
