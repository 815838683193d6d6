"""Grid model of capacitary measures.

A measure decomposes into a blocked part (value +infinity on a set of
cells), a finite density per remaining cell, and finitely many point atoms
at interior nodes.  Atoms are only admissible for p > dim, where a single
point carries positive p-capacity.  Blocked cells are a distinct flag, not
a large float, so ordering and round-trips are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from plapopt.grid import GridSpec, as_cells

Atoms = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PsiSpec:
    """Strictly decreasing budget profile: exp(-beta*s) or s**(-beta)."""

    kind: str = "exp"
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exp", "power"):
            raise ValueError(f"unknown Psi kind {self.kind!r}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def at_zero(self) -> float:
        """Psi(0): 1 for the exponential family, +inf for the power family."""
        return 1.0 if self.kind == "exp" else math.inf

    def value(self, s):
        """Psi(s) elementwise; accepts +inf entries (mapped to 0)."""
        s = np.asarray(s, dtype=float)
        if self.kind == "exp":
            out = np.exp(-self.beta * s)
            return np.where(np.isinf(s), 0.0, out)
        out = np.full(s.shape, math.inf)
        pos = s > 0
        out[pos] = s[pos] ** (-self.beta)
        out[np.isinf(s)] = 0.0
        return out

    def inverse(self, t):
        """Psi^{-1}(t) for t in (0, Psi(0)]; t -> 0+ maps to +inf."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0) or np.any(t > self.at_zero * (1 + 1e-15)):
            raise ValueError("inverse argument outside (0, Psi(0)]")
        if self.kind == "exp":
            return np.maximum(-np.log(np.minimum(t, 1.0)) / self.beta, 0.0)
        return t ** (-1.0 / self.beta)


def _canonical_atoms(grid: GridSpec, atoms) -> Atoms:
    merged: dict[int, float] = {}
    for node, mass in atoms:
        node = int(node)
        mass = float(mass)
        if not 0 <= node < grid.n_nodes:
            raise ValueError(f"atom node {node} outside interior range")
        if mass < 0:
            raise ValueError(f"atom mass must be >= 0, got {mass}")
        merged[node] = merged.get(node, 0.0) + mass
    out = tuple(sorted((n, m) for n, m in merged.items() if m > 0))
    if out and not grid.p > grid.dim:
        raise ValueError(
            f"atoms need p > dim (a point has positive p-capacity only "
            f"then); grid has p={grid.p}, dim={grid.dim}")
    return out


@dataclass(frozen=True)
class CapacitaryMeasure:
    """Blocked cells + finite per-cell density + node atoms.

    The stored form is canonical: density is zeroed on blocked cells and
    atoms are merged, sorted and strictly positive, so equality of the
    fields is equality of the measures.
    """

    grid: GridSpec
    density: np.ndarray
    blocked: np.ndarray
    atoms: Atoms = ()

    def __post_init__(self):
        density = as_cells(self.grid, self.density, "density")
        blocked = np.asarray(self.blocked, dtype=bool)
        if blocked.size != self.grid.n_cells:
            raise ValueError("blocked mask has wrong size")
        blocked = blocked.reshape(self.grid.cells_shape).copy()
        inf_density = np.isinf(density)
        blocked |= inf_density
        density[blocked] = 0.0
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density must be finite and >= 0 off the "
                             "blocked set")
        density.setflags(write=False)
        blocked.setflags(write=False)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "blocked", blocked)
        object.__setattr__(self, "atoms", _canonical_atoms(self.grid, self.atoms))

    @property
    def fully_blocked(self) -> bool:
        return bool(self.blocked.all())

    def __eq__(self, other):
        if not isinstance(other, CapacitaryMeasure):
            return NotImplemented
        return (self.grid == other.grid
                and np.array_equal(self.density, other.density)
                and np.array_equal(self.blocked, other.blocked)
                and self.atoms == other.atoms)


@dataclass(frozen=True)
class WeightPair:
    """Sign-changing right-hand side nu1 - nu2.

    nu1 is a nonnegative density w1 plus optional node atoms (p > dim
    only); nu2 is a nonnegative density w2.  Whether nu1 vanishes entirely
    is checked at problem setup, not here.
    """

    grid: GridSpec
    w1: np.ndarray
    w1_atoms: Atoms = ()
    w2: np.ndarray = 0.0

    def __post_init__(self):
        w1 = as_cells(self.grid, self.w1, "w1")
        w2 = as_cells(self.grid, self.w2, "w2")
        if np.any(w1 < 0) or np.any(w2 < 0):
            raise ValueError("weights must be >= 0")
        w1.setflags(write=False)
        w2.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "w1_atoms",
                           _canonical_atoms(self.grid, self.w1_atoms))

    @property
    def trivial_nu1(self) -> bool:
        return not self.w1.any() and not self.w1_atoms


def lebesgue_weights(grid: GridSpec) -> WeightPair:
    """The plain eigenvalue problem: nu1 = Lebesgue, nu2 = 0."""
    return WeightPair(grid, np.ones(grid.cells_shape))


def zero_measure(grid: GridSpec) -> CapacitaryMeasure:
    return CapacitaryMeasure(grid, np.zeros(grid.cells_shape),
                             np.zeros(grid.cells_shape, dtype=bool))


def from_quasi_open(grid: GridSpec, mask) -> CapacitaryMeasure:
    """Measure +infinity outside the cell set given by a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size != grid.n_cells:
        raise ValueError("mask has wrong size")
    mask = mask.reshape(grid.cells_shape)
    if not mask.any():
        raise ValueError("empty set")
    return CapacitaryMeasure(grid, np.zeros(grid.cells_shape), ~mask)


def from_potential(grid: GridSpec, V) -> CapacitaryMeasure:
    """Absolutely continuous measure V * Lebesgue; +inf entries block."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 0:
        V = np.full(grid.cells_shape, float(V))
    if np.any(V < 0):
        raise ValueError("potential must be >= 0")
    V = V.reshape(grid.cells_shape)
    return CapacitaryMeasure(grid, np.where(np.isinf(V), 0.0, V), np.isinf(V))


def add(m1: CapacitaryMeasure, m2: CapacitaryMeasure) -> CapacitaryMeasure:
    """Sum of measures: densities add, blocked sets union, atoms merge."""
    if m1.grid != m2.grid:
        raise ValueError("grid mismatch")
    return CapacitaryMeasure(m1.grid, m1.density + m2.density,
                             m1.blocked | m2.blocked,
                             m1.atoms + m2.atoms)


def leq(m1: CapacitaryMeasure, m2: CapacitaryMeasure) -> bool:
    """Cellwise order with blocked = +infinity, atoms compared nodewise."""
    if m1.grid != m2.grid:
        raise ValueError("grid mismatch")
    dens_ok = np.all(m2.blocked | (~m1.blocked & (m1.density <= m2.density)))
    if not dens_ok:
        return False
    a2 = dict(m2.atoms)
    return all(mass <= a2.get(node, 0.0) for node, mass in m1.atoms)


def sigma_finite_set(m: CapacitaryMeasure) -> np.ndarray:
    """Boolean cell mask of the non-blocked region."""
    return ~m.blocked


def psi_volume(m: CapacitaryMeasure, psi: PsiSpec) -> float:
    """Integral of Psi over the density, with Psi(+inf) = 0 on blocked cells.

    For the power family Psi(0) = +inf, so a zero-density cell off the
    blocked set makes the value +inf.
    """
    vals = psi.value(m.density)
    vals = np.where(m.blocked, 0.0, vals)
    if np.any(np.isinf(vals)):
        return math.inf
    return float(m.grid.cell_volume * vals.sum())
