"""Sparse operators tying node vectors to cell quantities.

This is the only module that knows the discretization.  Everything acts
on flat interior-node vectors (C order).  Cell arrays are flat in the
same order.  The per-axis factorization uses Kronecker products of the 1D
forward-difference matrix and the 1D anchor selection.

The operators are built once per grid (and atom set) and cached; every
caller shares them, so their arrays are marked read-only.  The stacked
energy map K fixes the row layout that the energies integrate over; the
weights of f, g1 and g2 on its rows, the diagonal of their Hessian
weights and the term lists that every K_F^T W K_F is read from live here
with it (sandwich, the sparse product, is the tests' reference).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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


class Rows(NamedTuple):
    """A problem's measure data in the row layout of its energy map K.

    y = K x stacks n_grad per-axis cell gradients, then the measure rows:
    the cell anchor values and the values under the atoms of mu and of
    nu1.  Each of f, g1 and g2 integrates |y|^p / p over the measure rows
    with the weights below; f adds the p-Dirichlet term over kept cells.
    """

    n_grad: int
    vol: float
    keep: np.ndarray
    f: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def energy_rows(grid: GridSpec, mu: CapacitaryMeasure,
                weights: WeightPair) -> Rows:
    """The weights of f, g1 and g2 on the rows of energy_map."""
    vol = grid.cell_volume
    n_mu, n_w1 = len(mu.atoms), len(weights.w1_atoms)
    masses = lambda atoms: [mass for _, mass in atoms]
    rows = Rows(
        grid.dim * grid.n_cells, vol, kept_cells(mu).astype(float),
        np.concatenate([vol * mu.density.reshape(-1), masses(mu.atoms),
                        np.zeros(n_w1)]),
        np.concatenate([vol * weights.w1.reshape(-1), np.zeros(n_mu),
                        masses(weights.w1_atoms)]),
        np.concatenate([vol * weights.w2.reshape(-1),
                        np.zeros(n_mu + n_w1)]))
    for arr in rows[2:]:
        arr.setflags(write=False)
    return rows


def hessian_diagonal(dim: int, hcell, c, hmeas, p: float) -> np.ndarray:
    """Diagonal of the Hessian weights over K's rows; a stack row by row.

    The gradient rows of every axis get hcell, the identity part of the
    cell blocks hcell I + hout g g^T (hcell None leaves them out: the
    measure rows only).  A measure row of sum c |y|^p / p gets its second
    derivative (p - 1) c |y|^(p-2), from hmeas = |y|^(p-2).
    """
    meas = c * ((p - 1.0) * hmeas)
    if hcell is None:
        return meas
    return np.concatenate([np.tile(hcell, dim), meas], axis=-1)


def sandwich(KF: sp.csr_matrix, W: sp.spmatrix) -> sp.csr_matrix:
    """K_F^T W K_F: the second derivative in the free-node values x of an
    energy of y = K_F x whose Hessian in y is W."""
    return KF.T @ (W @ KF)


class Terms(NamedTuple):
    """K_F^T W K_F for W's values on a pattern, as a list of terms.

    Term t adds ki[t] * (weights[w[t]] * kj[t]), a product K_F[r, i]
    W[r, s] K_F[s, j], to stored entry e[t] of the csr pattern (indptr,
    indices); a diagonal W gives K_F^T (W K_F) bit for bit.  The terms
    with i <= j come first and add to slot[t] of the LAPACK upper band
    (row bw + i - j, column j of (bw + 1, n)); each row of K touches one
    cell's nodes, so bw is below the cells per axis.
    """

    indptr: np.ndarray
    indices: np.ndarray
    e: np.ndarray
    w: np.ndarray
    ki: np.ndarray
    kj: np.ndarray
    slot: np.ndarray
    bw: int

    def _products(self, weights: np.ndarray, t=slice(None)) -> np.ndarray:
        return self.ki[t] * (weights[self.w[t]] * self.kj[t])

    def csr(self, weights: np.ndarray) -> sp.csr_matrix:
        """K_F^T W K_F on its pattern, for W's values on the list's."""
        n = self.indptr.size - 1
        data = np.bincount(self.e, self._products(weights), self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def band(self, weights: np.ndarray) -> np.ndarray:
        """The upper band of K_F^T W K_F, for W's values on the list's."""
        n, bw = self.indptr.size - 1, self.bw
        x = self._products(weights, slice(self.slot.size))
        return np.bincount(self.slot, x, (bw + 1) * n).reshape(bw + 1, n)


def term_list(KF: sp.csr_matrix, r: np.ndarray, s: np.ndarray) -> Terms:
    """The terms of K_F^T W K_F for W with the pattern (r, s): every pair
    of stored entries K_F[r, i], K_F[s, j], pattern entry by entry."""
    nnz = np.diff(KF.indptr)
    cr, cs = nnz[r], nnz[s]
    per = cr * cs
    w = np.repeat(np.arange(r.size), per)
    # term t of pattern entry w pairs the rows' stored entries t // cs, t % cs
    t = np.arange(w.size) - np.repeat(np.cumsum(per) - per, per)
    a, b = KF.indptr[r[w]] + t // cs[w], KF.indptr[s[w]] + t % cs[w]
    # the terms with i <= j first; each entry keeps its terms' order
    first = np.argsort(KF.indices[b] < KF.indices[a], kind="stable")
    w, a, b = w[first], a[first], b[first]
    n, i, j = KF.shape[1], KF.indices[a], KF.indices[b]
    bw = int(np.abs(j - i).max(initial=0))
    m = 2 * bw + 1
    # an entry's place in a dense (n, m) band orders the entries as csr does
    place = i * np.int64(m) + (j - i + bw)
    ids = np.zeros(n * m, dtype=np.int32)
    ids[place] = 1
    keys = np.flatnonzero(ids)
    ids[keys] = np.arange(keys.size)
    terms = Terms(np.searchsorted(keys, np.arange(n + 1) * m).astype(np.int32),
                  (keys % m + keys // m - bw).astype(np.int32),
                  ids[place].astype(np.intp), w, KF.data[a], KF.data[b],
                  ((bw + i - j) * n + j)[:np.count_nonzero(i <= j)], bw)
    for arr in terms[:-1]:
        arr.setflags(write=False)
    return terms


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _p2_terms(grid: GridSpec, mu_atoms: Atoms, w1_atoms: Atoms) -> Terms:
    """The terms of K^T diag(w) K on all interior nodes."""
    K = energy_map(grid, mu_atoms, w1_atoms)
    diag = np.arange(K.shape[0])
    return term_list(K, diag, diag)


def p2_matrices(grid: GridSpec, mu: CapacitaryMeasure, weights: WeightPair,
                free: np.ndarray | None = None):
    """Stiffness/weight pencil of the quadratic (p=2) energies.

    Returns sparse symmetric ``(A, B)`` restricted to free nodes, with
    u^T A u = 2 f_mu(u) and u^T B u = 2 (g1 - g2)(u) for p = 2: the
    Hessians of f and of g1 - g2, whose p = 2 weights do not depend on u.
    """
    idx = np.flatnonzero(free_node_mask(grid, mu) if free is None else free)
    rows = energy_rows(grid, mu, weights)
    terms = _p2_terms(grid, mu.atoms, weights.w1_atoms)

    def assemble(w):
        M = terms.csr(w)
        # a copy either way, so that eliminate_zeros spares the cache
        M = M[idx][:, idx] if idx.size < grid.n_nodes else M.copy()
        M.eliminate_zeros()
        return M.tocsc()

    diag = lambda hcell, c: hessian_diagonal(grid.dim, hcell, c, 1.0, 2.0)
    return (assemble(diag(rows.vol * rows.keep, rows.f)),
            assemble(diag(0.0 * rows.keep, rows.g1 - rows.g2)), idx)
