"""Sparse operators tying node vectors to cell quantities.

This is the only module that knows the discretization.  Everything acts
on flat interior-node vectors (C order).  Cell arrays are flat in the
same order.  The per-axis factorization uses Kronecker products of the 1D
forward-difference matrix and the 1D anchor selection.

The operators are built once per grid (and atom set) and cached; every
caller shares them, so their arrays are marked read-only.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from plapopt.grid import GridSpec, Field, blocked_adjacent_nodes
from plapopt.measure import Atoms, CapacitaryMeasure, WeightPair

_CACHE_SIZE = 32


def _diff_1d(n: int, h: float) -> sp.csr_matrix:
    """Forward difference, n cells from n-1 interior nodes (zero boundary)."""
    rows, cols, vals = [], [], []
    for i in range(n):
        if i <= n - 2:
            rows.append(i); cols.append(i); vals.append(1.0 / h)
        if i >= 1:
            rows.append(i); cols.append(i - 1); vals.append(-1.0 / h)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 1))


def _anchor_1d(n: int) -> sp.csr_matrix:
    """Lower-corner node value per cell (cell 0 anchors on the boundary)."""
    rows = np.arange(1, n)
    cols = np.arange(0, n - 1)
    vals = np.ones(n - 1)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 1))


def _read_only(M: sp.csr_matrix) -> sp.csr_matrix:
    M.sum_duplicates()
    for arr in (M.data, M.indices, M.indptr):
        arr.setflags(write=False)
    return M


@functools.lru_cache(maxsize=_CACHE_SIZE)
def gradient_ops(grid: GridSpec) -> tuple[sp.csr_matrix, ...]:
    """One (n_cells x n_nodes) matrix per axis mapping u to grad_a u."""
    if grid.dim == 1:
        return (_read_only(_diff_1d(grid.n, grid.spacing[0])),)
    Dx = _diff_1d(grid.n, grid.spacing[0])
    Dy = _diff_1d(grid.n, grid.spacing[1])
    Ax = _anchor_1d(grid.n)
    Ay = _anchor_1d(grid.n)
    return (_read_only(sp.kron(Dx, Ay, format="csr")),
            _read_only(sp.kron(Ax, Dy, format="csr")))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def anchor_op(grid: GridSpec) -> sp.csr_matrix:
    """(n_cells x n_nodes) selection of each cell's anchor node value."""
    if grid.dim == 1:
        return _read_only(_anchor_1d(grid.n))
    return _read_only(sp.kron(_anchor_1d(grid.n), _anchor_1d(grid.n),
                              format="csr"))


def atom_op(grid: GridSpec, atoms: Atoms) -> sp.csr_matrix:
    """(n_atoms x n_nodes) selection of the node value under each atom."""
    nodes = [node for node, _ in atoms]
    return _read_only(sp.csr_matrix(
        (np.ones(len(nodes)), (np.arange(len(nodes)), nodes)),
        shape=(len(nodes), grid.n_nodes)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def energy_map(grid: GridSpec, mu_atoms: Atoms,
               w1_atoms: Atoms) -> sp.csr_matrix:
    """Stacked map from node values to everything the energies integrate.

    Row blocks, in order: the cell gradient along each axis, the cell
    anchor values, the values under the atoms of mu, the values under the
    atoms of nu1.
    """
    return _read_only(sp.vstack(
        [*gradient_ops(grid), anchor_op(grid), atom_op(grid, mu_atoms),
         atom_op(grid, w1_atoms)], format="csr"))


def free_node_mask(grid: GridSpec, mu: CapacitaryMeasure) -> np.ndarray:
    """Flat boolean mask of unconstrained interior nodes."""
    return ~blocked_adjacent_nodes(grid, mu.blocked).reshape(-1)


def kept_cells(mu: CapacitaryMeasure) -> np.ndarray:
    """Flat boolean mask of the cells outside the blocked region."""
    return ~mu.blocked.reshape(-1)


def _embed(grid: GridSpec, idx: np.ndarray, x: np.ndarray) -> Field:
    """Field with values x on the nodes idx and zero elsewhere."""
    values = np.zeros(grid.n_nodes)
    values[idx] = x
    return Field(grid, values)


def p2_matrices(grid: GridSpec, mu: CapacitaryMeasure, weights: WeightPair,
                free: np.ndarray | None = None):
    """Stiffness/weight pencil of the quadratic (p=2) energies.

    Returns sparse symmetric ``(A, B)`` restricted to free nodes, with
    u^T A u = 2 f_mu(u) and u^T B u = 2 (g1 - g2)(u) for p = 2.
    """
    if free is None:
        free = free_node_mask(grid, mu)
    idx = np.flatnonzero(free)
    vol = grid.cell_volume
    keep = kept_cells(mu)

    A = sp.csr_matrix((idx.size, idx.size))
    for G in gradient_ops(grid):
        Gf = G[:, idx]
        Gf = sp.diags(keep.astype(float)) @ Gf
        A = A + vol * (Gf.T @ Gf)

    anchor = anchor_op(grid)[:, idx]
    dens = mu.density.reshape(-1)
    A = A + vol * (anchor.T @ sp.diags(dens) @ anchor)
    A = A + _node_diag(grid, mu.atom_masses(), idx)

    w1 = weights.w1.reshape(-1)
    w2 = weights.w2.reshape(-1)
    B = vol * (anchor.T @ sp.diags(w1 - w2) @ anchor)
    B = B + _node_diag(grid, weights.w1_atom_masses(), idx)
    return A.tocsc(), B.tocsc(), idx


def _node_diag(grid: GridSpec, node_masses: np.ndarray, idx: np.ndarray):
    return sp.diags(node_masses[idx], format="csc")
