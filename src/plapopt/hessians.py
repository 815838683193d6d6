"""Hessians of the energy functionals on the free-node subspace.

Every Hessian here is K_F^T W K_F: K_F is the energy map restricted to
the free nodes, and W holds, on the pattern that operators.pattern lays
out, the Hessian weights of a single energy-kernel pass.  A kept cell
with gradient g contributes the d x d block |g|^(p-2) I +
(p-2)|g|^(p-4) g g^T on its gradient rows, positive semidefinite for
every p > 1; a measure row of sum c |y|^p / p contributes the diagonal
(p-1) c |y|^(p-2).  Negative powers of |y| are clamped as by abs_pow,
so the Newton model stays bounded near zeros of the field.

weights() reads them from the kernel pass that gave the caller's value
and gradient; the Newton steps sum them through the term list of the
free-node view (operators.FreeNodes): torsion and prox into band
storage, the eigenpair polish f - lambda (g1 - g2) into its bordered csc.
Every such W carries the Dirichlet term.  The reference Hessians that
the tests check everything else against multiply W out
(operators.sandwich): hessian_f the csr W that assemble builds on that
pattern, hessian_g_diff the diagonal of its measure rows, the only rows
where g1 - g2 lives.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from plapopt import operators
from plapopt.energy import EnergyContext, _energy_map, _kernel
from plapopt.grid import Field


def weights(ctx: EnergyContext, y: np.ndarray, curv, c: np.ndarray):
    """W's values on its pattern from curv of _kernel(ctx, y, hess=True).

    W holds the Hessian weights of the p-Dirichlet term plus
    sum c |y|^p / p over the measure rows: c is rows.f for f, and
    rows.f - lambda (rows.g1 - rows.g2) for f - lambda (g1 - g2).  The
    pattern is operators.pattern(ctx.grid, y.size).  g1 - g2 alone has no
    Dirichlet term; hessian_g_diff builds its measure-row diagonal directly.
    """
    rows, grid = ctx._rows, ctx.grid
    w = [operators.hessian_diagonal(grid.dim, curv.hcell, c, curv.hmeas,
                                    ctx.p)]
    if ctx.p != 2.0:
        # the g g^T part of the cell blocks; it vanishes at p = 2
        grads = y[:rows.n_grad].reshape(grid.dim, grid.n_cells)
        w += [curv.hout * grads[a] * grads[b]
              for a in range(grid.dim) for b in range(grid.dim)]
    return np.concatenate(w)


def assemble(ctx: EnergyContext, KF, y: np.ndarray, c: np.ndarray):
    """Kernel parts at y = K x and K_F^T W K_F from the same pass."""
    parts, curv = _kernel(ctx, y, hess=True)
    W = sp.csr_matrix((weights(ctx, y, curv, c),
                       operators.pattern(ctx.grid, y.size)),
                      shape=(y.size,) * 2)
    return parts, operators.sandwich(KF, W)


def hessian_f(ctx: EnergyContext, u: Field, idx: np.ndarray) -> sp.spmatrix:
    """Hessian of the measure energy f at u, restricted to free nodes."""
    K = _energy_map(ctx)
    return assemble(ctx, K[:, idx], K @ u.flat, ctx._rows.f)[1]


def hessian_g_diff(ctx: EnergyContext, u: Field,
                   idx: np.ndarray) -> sp.spmatrix:
    """Hessian of g1 - g2 at u, restricted to free nodes: only the measure
    rows carry it, each with the diagonal weight (p-1) c |y|^(p-2)."""
    K = _energy_map(ctx)
    rows = ctx._rows
    _, curv = _kernel(ctx, K @ u.flat, hess=True)
    diag = operators.hessian_diagonal(ctx.grid.dim, None, rows.g1 - rows.g2,
                                      curv.hmeas, ctx.p)
    return operators.sandwich(K[rows.n_grad:, idx], sp.diags(diag))
