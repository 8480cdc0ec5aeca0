"""Figure/series containers shared by the experiment harness.

Every paper figure regenerated by this repo is expressed as a
:class:`FigureResult`: named series over a common x-axis semantic, with
CSV export and a terminal rendering.  The CLI prints them and writes
them to ``results/`` (:meth:`FigureResult.save`); the paper's claims
assert on the saved series (``tests/test_claims.py``).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.experiments.ascii_plot import render_plot, render_table


@dataclass
class Series:
    """One named line of a figure."""

    name: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: x/y length mismatch "
                f"({len(self.x)} vs {len(self.y)})"
            )

    def at(self, x_value: float, tol: float = 1e-9) -> float:
        """The y value at ``x_value`` (exact match within ``tol``)."""
        for xv, yv in zip(self.x, self.y):
            if abs(xv - x_value) <= tol:
                return yv
        raise KeyError(f"series {self.name!r} has no point at x={x_value}")


@dataclass
class FigureResult:
    """A regenerated paper figure (or one of its subfigures)."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def add(self, name: str, x: Sequence[float], y: Sequence[float]) -> None:
        """Append a series."""
        self.series.append(Series(name=name, x=list(x), y=list(y)))

    def get(self, name: str) -> Series:
        """Fetch a series by name."""
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(
            f"{self.figure_id}: no series {name!r}; "
            f"have {[s.name for s in self.series]}"
        )

    def render(self, width: int = 72, height: int = 18) -> str:
        """Terminal rendering: an ASCII plot followed by the data table."""
        header = f"== {self.figure_id}: {self.title} =="
        parts = [header]
        if self.series:
            parts.append(
                render_plot(
                    [(s.name, s.x, s.y) for s in self.series],
                    xlabel=self.xlabel,
                    ylabel=self.ylabel,
                    width=width,
                    height=height,
                )
            )
            parts.append(
                render_table(
                    self.xlabel, [(s.name, s.x, s.y) for s in self.series]
                )
            )
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def save(self, directory: str) -> None:
        """Write ``<figure_id>.csv`` and its rendering, ``.txt``."""
        stem = os.path.join(directory, self.figure_id)
        self.to_csv(f"{stem}.csv")
        with open(f"{stem}.txt", "w", encoding="utf-8") as f:
            f.write(self.render() + "\n")

    def to_csv(self, path: str) -> None:
        """Write all series in long form (series, x, y)."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["series", self.xlabel, self.ylabel])
            for s in self.series:
                for xv, yv in zip(s.x, s.y):
                    writer.writerow([s.name, xv, yv])
