"""Sparse Hessians of the energy functionals on the free-node subspace.

Every Hessian here is K_F^T W K_F (operators.sandwich): K_F is the energy
map restricted to the free nodes, and W is one sparse matrix over K's
rows built from the Hessian weights of a single energy-kernel pass.  A
kept cell with gradient g contributes the d x d block
|g|^(p-2) I + (p-2)|g|^(p-4) g g^T on its gradient rows, positive
semidefinite for every p > 1; a measure row of sum c |y|^p / p
contributes the diagonal (p-1) c |y|^(p-2).  Negative powers of |y| are
clamped as by abs_pow, so the Newton model stays bounded near zeros of
the field.  The Newton refinements of torsion and prox use the Hessian of
f, the eigenpair polish that of f - lambda (g1 - g2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from plapopt import operators
from plapopt.energy import EnergyContext, _energy_map, _kernel
from plapopt.grid import Field


def assemble(ctx: EnergyContext, KF, y: np.ndarray, c: np.ndarray,
             dirichlet: bool = True):
    """Kernel parts at y = K x and K_F^T W K_F from the same pass.

    W holds the Hessian weights of the p-Dirichlet term (without it when
    dirichlet is False) plus sum c |y|^p / p over the measure rows: c is
    rows.f for f, rows.g1 - rows.g2 for g1 - g2, and any combination of
    the two for the matching combination of energies.
    """
    parts, curv = _kernel(ctx, y, ctx.eps_reg, hess=True)
    rows, grid = ctx._rows, ctx.grid
    diag = operators.hessian_diagonal(
        grid.dim, curv.hcell if dirichlet else None, c, curv.hmeas, ctx.p)
    r = np.arange(y.size - diag.size, y.size)    # all rows or the measure rows
    entries = [(r, r, diag)]
    if dirichlet and ctx.p != 2.0:
        # the g g^T part of the cell blocks; it vanishes at p = 2
        nc = grid.n_cells
        cells = np.arange(nc)
        grads = y[:rows.n_grad].reshape(grid.dim, nc)
        entries += [(a * nc + cells, b * nc + cells,
                     curv.hout * grads[a] * grads[b])
                    for a in range(grid.dim) for b in range(grid.dim)]
    r, s, w = (np.concatenate(z) for z in zip(*entries))
    W = sp.csr_matrix((w, (r, s)), shape=(y.size,) * 2)
    return parts, operators.sandwich(KF, W)


def hessian_f(ctx: EnergyContext, u: Field, idx: np.ndarray) -> sp.spmatrix:
    """Hessian of the measure energy f at u, restricted to free nodes."""
    K = _energy_map(ctx)
    return assemble(ctx, K[:, idx], K @ u.flat, ctx._rows.f)[1]


def hessian_g_diff(ctx: EnergyContext, u: Field,
                   idx: np.ndarray) -> sp.spmatrix:
    """Hessian of g1 - g2 at u, restricted to free nodes."""
    K = _energy_map(ctx)
    rows = ctx._rows
    return assemble(ctx, K[:, idx], K @ u.flat, rows.g1 - rows.g2,
                    dirichlet=False)[1]
