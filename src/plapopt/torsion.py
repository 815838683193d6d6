"""Torsion functions, the induced distance between measures, and the
proximal map of the measure energy.

The torsion function of a measure minimizes

    (1/p) int |grad v|^p + (1/p) int |v|^p dmu - int v,

a strictly convex coercive problem on the nodes left free by the blocked
region.  Weak and strong topologies agree on the fixed grid, so
convergence of measures is metrized by the L^p distance of their torsion
functions.

Away from p = 2 both solves run damped Newton (from the p = 2 profile or
from z), for p < 2 through a ladder of smoothed energies (_newton_ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field, anchor_values, integrate
from plapopt.measure import CapacitaryMeasure, lebesgue_weights
from plapopt.energy import (
    EnergyContext,
    _energy_map,
    _kernel,
    _odd,
    abs_pow,
    dual_norm,
)
from plapopt import operators
from plapopt.operators import _embed
from plapopt import hessians
from plapopt.solvers import newton_refine

DEFAULT_TOL_DECREMENT = 1e-10
DEFAULT_TOL_GRAD = 1e-8
# Last delta of the p < 2 ladder: (v^2 + delta)^(p/2) is |v|^p wherever
# |v| >> 1e-15, and the curvature of a measure row stays below
# c delta^(p/2 - 1) where the exact one grows without bound as v -> 0.
MEASURE_DELTA_FLOOR = 1e-30


@dataclass(frozen=True)
class SolveReport:
    """What a solve did: its Newton steps over all stages, the
    relative decrease of the objective on its last step, and whether its
    last stage passed its stop test.  The decrement is never negative: a
    Newton step below the round-off of the objective may raise it within
    solvers.VALUE_RESOLUTION, which counts as no decrease."""
    iterations: int
    final_decrement: float
    converged: bool


def _torsion_context(mu: CapacitaryMeasure) -> EnergyContext:
    # weights are irrelevant to the torsion objective; Lebesgue keeps the
    # context constructible
    return EnergyContext(mu.grid, mu, lebesgue_weights(mu.grid))


def _load_vector(grid: GridSpec, free_idx: np.ndarray) -> np.ndarray:
    """Right-hand side of int v: cell volume at each free anchor node."""
    ones = np.ones(grid.n_cells)
    anchor = operators.anchor_op(grid)[:, free_idx]
    return grid.cell_volume * (anchor.T @ ones)


def torsion(mu: CapacitaryMeasure) -> tuple[Field, SolveReport]:
    """Torsion function of a measure with its solve report.

    p = 2 solves the sparse linear system directly; general p starts
    Newton from the p = 2 profile, through a smoothing continuation of the
    Dirichlet and measure terms for p < 2 (_newton_ladder).
    """
    grid = mu.grid
    ctx = _torsion_context(mu)
    free = operators.free_node_mask(grid, mu)
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return Field(grid, np.zeros(grid.n_nodes)), SolveReport(0, 0.0, True)

    b = _load_vector(grid, idx)
    A, _, _ = operators.p2_matrices(grid, mu, lebesgue_weights(grid), free)
    quad = spla.spsolve(A.tocsc(), b)
    if grid.p == 2.0:
        return _embed(grid, idx, quad), SolveReport(1, 0.0, True)

    x, report = _newton_ladder(ctx, idx, quad,
                               lambda x: (-float(np.dot(b, x)), -b),
                               grad_scale=dual_norm(ctx, b))
    return _embed(grid, idx, x), report


def _newton_ladder(ctx, idx, x0, extra, anchor_hessian=None, *,
                   grad_scale):
    """Minimize f_mu plus an extra term over the free-node values x;
    returns x and the solve's report.

    ``extra(x)`` returns the value and gradient of the extra term,
    ``anchor_hessian(x)`` its Hessian as weights on the cell anchor values
    (None: the term is linear).  Newton runs from x0; for p >= 2 in one
    exact stage, for p < 2 through a smoothing continuation: |grad|^2 + eps
    inside the (p-2)/2 power, and c ((v^2 + delta)^(p/2) - delta^(p/2)) / p
    for the term c |v|^p / p of each measure row v, consistently in value,
    gradient and Hessian, so each stage is a smooth convex problem that
    Newton finishes quadratically.  The first stages take eps = delta =
    1e-2, 1e-5, 1e-8 h^2; the next keep the context's eps_reg and lower
    delta by 1e-3 a stage down to MEASURE_DELTA_FLOOR, after the relaxed
    weights of Diening, Fornasier, Tomasi & Wank (Numer. Math. 2020).  The
    last stage stops at the solve's tolerances.  Every Newton step sums
    its Hessian into band storage through the solve's one term list
    (operators.term_list).
    """
    grid, rows, p = ctx.grid, ctx._rows, ctx.p
    K = _energy_map(ctx)[:, idx]
    # built once: K.T would build a new csc transpose on every evaluation
    KT = K.T
    terms = operators.term_list(K, *hessians.pattern(ctx, K.shape[0]))
    meas = slice(rows.n_grad, K.shape[0])
    # K's anchor rows are anchor_op's: the extra term's weights go there
    anchors = slice(rows.n_grad, rows.n_grad + grid.n_cells)

    def make_stage(eps, delta):
        ctx_e = replace(ctx, eps_reg=eps)

        def rows_at(x):
            # where delta smooths the measure rows v, zeroing them in y
            # drops the kernel's exact terms there
            y = K @ x
            v = y[meas].copy()
            if delta is not None:
                y[meas] = 0.0
            return y, v

        def value_and_grad(x):
            y, v = rows_at(x)
            parts = _kernel(ctx_e, y, eps, smooth_f=True)
            value, grad = extra(x)
            f, df = parts.f + value, parts.df
            if delta is not None:
                t = v * v + delta
                f += float(rows.f @ (t ** (p / 2) - delta ** (p / 2))) / p
                df[meas] = rows.f * v * t ** (p / 2 - 1)
            return f, KT @ df + grad

        def hess(x):
            y, v = rows_at(x)
            _, w = hessians.weights(ctx_e, y, rows.f)
            if delta is not None:
                t = v * v + delta
                w[meas] = rows.f * t ** (p / 2 - 2) * ((p - 1) * v * v + delta)
            if anchor_hessian is not None:
                w[anchors] += anchor_hessian(x)
            return terms.band(w)

        return value_and_grad, hess

    stages = [(ctx.eps_reg, None)]      # (eps, delta); None: exact rows
    if p < 2.0:
        h2 = min(grid.spacing) ** 2
        stages = [(eps, eps) for eps in (1e-2 * h2, 1e-5 * h2, 1e-8 * h2)]
        while stages[-1][1] > MEASURE_DELTA_FLOOR:
            stages.append((ctx.eps_reg,
                           max(1e-3 * stages[-1][1], MEASURE_DELTA_FLOOR)))
    x, total = x0, 0
    for i, stage in enumerate(stages):
        tols = (dict(max_iter=200, tol_decrement=DEFAULT_TOL_DECREMENT,
                     tol_grad=DEFAULT_TOL_GRAD) if i == len(stages) - 1
                else dict(tol_decrement=1e-12, tol_grad=1e-10))
        x, info = newton_refine(x, *make_stage(*stage),
                                grad_norm=lambda g: dual_norm(ctx, g),
                                grad_scale=grad_scale, **tols)
        total += info["iterations"]
    return x, SolveReport(total, info["final_decrement"], info["converged"])


def field_distance_p(a: Field, b: Field) -> float:
    """Discrete L^p distance of two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    grid = a.grid
    diff = anchor_values(grid, a.values - b.values)
    return float(integrate(grid, np.abs(diff) ** grid.p) ** (1.0 / grid.p))


def gamma_distance(mu1: CapacitaryMeasure, mu2: CapacitaryMeasure) -> float:
    """L^p distance of the torsion functions of two measures."""
    if mu1.grid != mu2.grid:
        raise ValueError("grid mismatch")
    w1, r1 = torsion(mu1)
    w2, r2 = torsion(mu2)
    if not (r1.converged and r2.converged):
        raise RuntimeError("torsion solver did not converge")
    return field_distance_p(w1, w2)


def prox(z: Field, k: float, mu: CapacitaryMeasure,
         b=None) -> tuple[Field, SolveReport]:
    """Moreau-Yosida proximal point of the measure energy at z.

    Minimizes (k/p) int |z - v|^p b + f_mu(v).  Whenever f_mu(z) is
    finite the minimizer obeys the descent bound

        (k/p) int |z - prox|^p b + f_mu(prox) <= f_mu(z).
    """
    if k <= 0:
        raise ValueError("k must be > 0")
    grid = z.grid
    if mu.grid != grid:
        raise ValueError("grid mismatch")
    bcells = np.ones(grid.cells_shape) if b is None else \
        np.asarray(b, dtype=float).reshape(grid.cells_shape)
    if np.any(bcells <= 0):
        raise ValueError("b must be > 0 cellwise")
    ctx = _torsion_context(mu)
    free = operators.free_node_mask(grid, mu)
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return Field(grid, np.zeros(grid.n_nodes)), SolveReport(0, 0.0, True)

    p = grid.p
    vol = grid.cell_volume
    anchor = operators.anchor_op(grid)[:, idx]
    anchor_t = anchor.T
    bflat = bcells.reshape(-1)
    zfree = z.flat[idx]

    if p == 2.0:
        A, _, _ = operators.p2_matrices(grid, mu, lebesgue_weights(grid), free)
        # each node anchors at most one cell: anchor^T diag(d) anchor
        M = sp.diags(anchor_t @ (vol * bflat))
        x = spla.spsolve((A + k * M).tocsc(), k * (M @ zfree))
        return _embed(grid, idx, x), SolveReport(1, 0.0, True)

    # z may be nonzero off the free nodes: its anchors there stay fixed
    z_anchor = operators.anchor_op(grid) @ z.flat

    def fidelity(x):
        diff = anchor @ x - z_anchor
        return ((k / p) * vol * float(bflat @ np.abs(diff) ** p),
                k * vol * (anchor_t @ (bflat * _odd(diff, p))))

    def fidelity_hessian(x):
        hmeas = abs_pow(anchor @ x - z_anchor, p - 2.0)
        return operators.hessian_diagonal(grid.dim, None, k * vol * bflat,
                                          hmeas, p)

    x, report = _newton_ladder(
        ctx, idx, zfree, fidelity, fidelity_hessian,
        grad_scale=max(k * z.norm_p() ** (p - 1.0), 1.0))
    return _embed(grid, idx, x), report
