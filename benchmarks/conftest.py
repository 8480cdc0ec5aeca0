"""Shared fixtures for the figure-regeneration benchmarks.

Every benchmark regenerates one paper figure (quick scale by default; set
``REPRO_SCALE=full`` for the paper's exact parameters), saves the rendered
figure and its CSV under ``results/`` (or ``REPRO_RESULTS_DIR``, which
``tests/smoke.py`` points at a temporary directory to compare the two),
and asserts the qualitative properties the paper reports for it.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(
    os.environ.get("REPRO_RESULTS_DIR")
    or pathlib.Path(__file__).resolve().parent.parent / "results"
)


@pytest.fixture(scope="session")
def scale() -> str:
    """Figure fidelity: ``quick`` (default) or ``full`` via REPRO_SCALE."""
    value = os.environ.get("REPRO_SCALE", "quick")
    if value not in ("quick", "full"):
        raise ValueError(f"REPRO_SCALE must be quick|full, got {value!r}")
    return value


@pytest.fixture(scope="session")
def save_figure():
    """Persist a FigureResult (text rendering + CSV) under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(fig):
        (RESULTS_DIR / f"{fig.figure_id}.txt").write_text(
            fig.render() + "\n"
        )
        fig.to_csv(str(RESULTS_DIR / f"{fig.figure_id}.csv"))
        return fig

    return _save
