"""Sparse Hessians of the energy functionals on the free-node subspace.

Used by the Newton refinements: the p-Dirichlet term contributes
G^T D G with a per-cell d x d block |g|^(p-2) I + (p-2)|g|^(p-4) g g^T,
positive semidefinite for every p > 1; density and atom terms contribute
diagonals (p-1) w |u|^(p-2).  Negative powers of |u| are clamped so the
Newton model stays bounded near zeros of the field.  Each Hessian is
K^T M K for the restricted energy map K and a weight matrix M laid out
like its rows, with the weights of the energy kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from plapopt.energy import EnergyContext, _energy_map, _kernel, abs_pow
from plapopt.grid import Field


def _sandwich(K, idx: np.ndarray, entries) -> sp.spmatrix:
    """K[:, idx]^T M K[:, idx], M given by (rows, cols, values) triples."""
    rows, cols, vals = (np.concatenate(z) for z in zip(*entries))
    M = sp.csr_matrix((vals, (rows, cols)), shape=(K.shape[0],) * 2)
    Kf = K[:, idx]
    return Kf.T @ (M @ Kf)


def _measure_diagonal(ctx: EnergyContext, hmeas: np.ndarray,
                      coef: np.ndarray):
    """Second derivative of sum coef |y|^p / p over the measure rows."""
    r = np.arange(ctx._rows.n_grad, ctx._rows.n_grad + hmeas.size)
    return r, r, (ctx.p - 1.0) * coef * hmeas


def hessian_f(ctx: EnergyContext, u: Field, idx: np.ndarray) -> sp.spmatrix:
    """Hessian of the measure energy f at u, restricted to free nodes."""
    grid = ctx.grid
    rows = ctx._rows
    K = _energy_map(ctx)
    y = K @ u.flat
    _, curv = _kernel(ctx, y, ctx.eps_reg, hess=True)
    nc = grid.n_cells
    grads = y[:rows.n_grad].reshape(grid.dim, nc)
    entries = [_measure_diagonal(ctx, curv.hmeas, rows.f)]
    cells = np.arange(nc)
    for a in range(grid.dim):
        for b in range(grid.dim):
            block = curv.hout * grads[a] * grads[b]
            if a == b:
                block += curv.hcell
            elif ctx.p == 2.0:
                continue
            entries.append((a * nc + cells, b * nc + cells, block))
    return _sandwich(K, idx, entries)


def hessian_g_diff(ctx: EnergyContext, u: Field,
                   idx: np.ndarray) -> sp.spmatrix:
    """Hessian of g1 - g2 at u, restricted to free nodes."""
    K = _energy_map(ctx)
    rows = ctx._rows
    hmeas = abs_pow((K @ u.flat)[rows.n_grad:], ctx.p - 2.0)
    return _sandwich(K, idx, [_measure_diagonal(ctx, hmeas,
                                                rows.g1 - rows.g2)])
