"""Small builders and readers that only the tests use."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from plapopt.gamma import MeasureSequence
from plapopt.grid import Field, GridSpec
from plapopt.measure import leq


def field_from_function(grid: GridSpec, fn) -> Field:
    """Sample a callable of the coordinates at the interior nodes."""
    coords = grid.node_coords()
    if grid.dim == 1:
        vals = fn(coords[..., 0])
    else:
        vals = fn(coords[..., 0], coords[..., 1])
    return Field(grid, np.asarray(vals, dtype=float))


def custom_sequence(elements, limit) -> MeasureSequence:
    return MeasureSequence("custom", tuple(elements), limit)


def monotone_under_leq(seq: MeasureSequence) -> bool:
    """True when consecutive elements are ordered under leq."""
    return all(leq(a, b) for a, b in zip(seq.elements, seq.elements[1:]))


def read_field_csv(grid: GridSpec, path: Path) -> Field:
    """The field of a CSV dump: the last column of each line."""
    values = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            values.append(float(line.split(",")[-1]))
    return Field(grid, np.asarray(values))
