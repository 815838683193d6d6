"""Sparse Hessians of the energy functionals on the free-node subspace.

Used by the Newton refinements: the p-Dirichlet term contributes
G^T D G with a per-cell d x d block |g|^(p-2) I + (p-2)|g|^(p-4) g g^T,
positive semidefinite for every p > 1; density and atom terms contribute
diagonals (p-1) w |u|^(p-2).  Negative powers of |u| are clamped so the
Newton model stays bounded near zeros of the field.  Each Hessian is
K^T M K for the restricted energy map K and a weight matrix M laid out
like its rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from plapopt.energy import EnergyContext, _energy_map, _grad_weights
from plapopt.grid import Field

POWER_CLAMP = 1e14


def abs_pow(x, q):
    """|x|^q with the q < 0 branch clamped at POWER_CLAMP."""
    x = np.abs(np.asarray(x, dtype=float))
    if q == 0.0:
        return np.ones_like(x)
    if q < 0:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] ** q
        return np.minimum(out, POWER_CLAMP)
    return x ** q


def _sandwich(K, idx: np.ndarray, entries) -> sp.spmatrix:
    """K[:, idx]^T M K[:, idx], M given by (rows, cols, values) triples."""
    rows, cols, vals = (np.concatenate(z) for z in zip(*entries))
    M = sp.csr_matrix((vals, (rows, cols)), shape=(K.shape[0],) * 2)
    Kf = K[:, idx]
    return Kf.T @ (M @ Kf)


def _measure_diagonal(ctx: EnergyContext, y: np.ndarray, coef: np.ndarray):
    """Second derivative of sum coef |y|^p / p over the measure rows."""
    n_grad = ctx._rows.n_grad
    r = np.arange(n_grad, y.size)
    return r, r, (ctx.p - 1.0) * coef * abs_pow(y[n_grad:], ctx.p - 2.0)


def hessian_f(ctx: EnergyContext, u: Field, idx: np.ndarray) -> sp.spmatrix:
    """Hessian of the measure energy f at u, restricted to free nodes."""
    grid = ctx.grid
    p = ctx.p
    rows = ctx._rows
    K = _energy_map(ctx)
    y = K @ u.flat
    nc = grid.n_cells
    grads = y[:rows.n_grad].reshape(grid.dim, nc)
    t, w = _grad_weights(p, (grads * grads).sum(axis=0), ctx.eps_reg,
                         rows.keep)
    entries = [_measure_diagonal(ctx, y, rows.f)]
    cells = np.arange(nc)
    w_outer = (p - 2.0) * np.divide(w, t, out=np.zeros_like(w), where=t > 0)
    for a in range(grid.dim):
        for b in range(grid.dim):
            block = rows.vol * w_outer * grads[a] * grads[b]
            if a == b:
                block += rows.vol * w
            elif p == 2.0:
                continue
            entries.append((a * nc + cells, b * nc + cells, block))
    return _sandwich(K, idx, entries)


def hessian_g_diff(ctx: EnergyContext, u: Field,
                   idx: np.ndarray) -> sp.spmatrix:
    """Hessian of g1 - g2 at u, restricted to free nodes."""
    K = _energy_map(ctx)
    rows = ctx._rows
    return _sandwich(K, idx, [_measure_diagonal(ctx, K @ u.flat,
                                                rows.g1 - rows.g2)])
