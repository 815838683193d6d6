"""Uniform grid discretization of a box with Dirichlet boundary.

Nodes live on the lattice of a box split into ``n`` cells per axis; only
interior nodes carry unknowns (the boundary is hard zero).  Gradient and
quadrature are cell quantities: each cell takes forward differences from
its lower-left corner node, and integration is the anchor-value rectangle
rule.  Both conventions keep |grad u|^p and |u|^p convex in the node values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on a box in dimension 1 or 2.

    Attributes:
        dim: spatial dimension, 1 or 2.
        n: number of cells per axis (same on every axis), at least 3.
        lengths: box edge lengths, one positive real per axis.
        p: exponent of the p-Laplacian, 1 < p < infinity.
    """

    dim: int
    n: int
    lengths: tuple[float, ...]
    p: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        lengths = tuple(float(L) for L in self.lengths)
        if len(lengths) != self.dim:
            raise ValueError("lengths must have one entry per axis")
        if any(L <= 0 for L in lengths):
            raise ValueError("lengths must be positive")
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"p must satisfy 1 < p < inf, got {self.p}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / self.n for L in self.lengths)

    @cached_property
    def cell_volume(self) -> float:
        # kept in the instance dict, outside the fields that eq and hash see
        return float(np.prod(self.spacing))

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def cells_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def nodes_shape(self) -> tuple[int, ...]:
        """Shape of the interior-node array."""
        return (self.n - 1,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.n ** self.dim

    @property
    def n_nodes(self) -> int:
        return (self.n - 1) ** self.dim

    def axis_nodes(self, axis: int = 0) -> np.ndarray:
        """Interior node coordinates along one axis."""
        h = self.spacing[axis]
        return h * np.arange(1, self.n)

    def node_coords(self) -> np.ndarray:
        """Coordinates of interior nodes, shape nodes_shape + (dim,)."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_centers(self) -> np.ndarray:
        """Coordinates of cell centers, shape cells_shape + (dim,)."""
        axes = [self.spacing[a] * (np.arange(self.n) + 0.5)
                for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class Field:
    """Real function on interior grid nodes, zero on the boundary."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size != self.grid.n_nodes:
            raise ValueError(
                f"field has {values.size} values, grid has "
                f"{self.grid.n_nodes} interior nodes")
        values = values.reshape(self.grid.nodes_shape).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def norm_p(self) -> float:
        """Discrete L^p norm (anchor quadrature of |u|^p)."""
        p = self.grid.p
        cells = anchor_values(self.grid, self.values)
        return float(integrate(self.grid, np.abs(cells) ** p) ** (1.0 / p))


def pad_with_boundary(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Interior node array extended by the zero Dirichlet boundary."""
    values = np.asarray(values, dtype=float).reshape(grid.nodes_shape)
    return np.pad(values, [(1, 1)] * grid.dim)


def anchor_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Node values sampled at each cell's lower-left corner."""
    padded = pad_with_boundary(grid, values)
    sl = tuple(slice(0, grid.n) for _ in range(grid.dim))
    return padded[sl]


def discrete_gradient(u: Field) -> np.ndarray:
    """Forward-difference gradient, one d-vector per cell.

    Returns an array of shape ``cells_shape + (dim,)``; linear in the
    node values.
    """
    grid = u.grid
    padded = pad_with_boundary(grid, u.values)
    comps = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        lo = [slice(0, grid.n)] * grid.dim
        hi = [slice(0, grid.n)] * grid.dim
        hi[a] = slice(1, grid.n + 1)
        comps.append((padded[tuple(hi)] - padded[tuple(lo)]) / h)
    return np.stack(comps, axis=-1)


def integrate(grid: GridSpec, cell_values: np.ndarray) -> float:
    """Rectangle-rule quadrature: sum of cell values times cell volume."""
    cell_values = np.asarray(cell_values, dtype=float)
    if cell_values.size != grid.n_cells:
        raise ValueError(
            f"expected {grid.n_cells} cell values, got {cell_values.size}")
    return float(grid.cell_volume * cell_values.sum())


def blocked_adjacent_nodes(grid: GridSpec, blocked: np.ndarray) -> np.ndarray:
    """Interior nodes touching at least one blocked cell (boolean mask).

    A node is a corner of up to 2^dim cells; it is blocked-adjacent as soon
    as one of them is blocked, which pins the Dirichlet condition of the
    blocked region on the node lattice.
    """
    blocked = np.asarray(blocked, dtype=bool).reshape(grid.cells_shape)
    if grid.dim == 1:
        return blocked[:-1] | blocked[1:]
    return (blocked[:-1, :-1] | blocked[1:, :-1]
            | blocked[:-1, 1:] | blocked[1:, 1:])


def as_cells(grid: GridSpec, values, name: str = "values") -> np.ndarray:
    """Coerce scalars or arrays to a float per-cell array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.cells_shape, float(arr))
    if arr.size != grid.n_cells:
        raise ValueError(
            f"{name}: expected {grid.n_cells} cell values, got {arr.size}")
    return arr.reshape(grid.cells_shape).copy()
