"""Torsion functions, the induced distance between measures, and the
proximal map of the measure energy.

The torsion function of a measure minimizes

    (1/p) int |grad v|^p + (1/p) int |v|^p dmu - int v,

a strictly convex coercive problem on the nodes left free by the blocked
region.  Weak and strong topologies agree on the fixed grid, so
convergence of measures is metrized by the L^p distance of their torsion
functions.

Both solves are one convex solve (_convex_solve): f_mu plus a term of
each cell's anchor value, the load -v of torsion or the fidelity of
prox.  At p = 2 it is one exact Newton step; elsewhere damped Newton runs
from the p = 2 profile (torsion) or from z (prox), for p < 2 through a
ladder of smoothed energies.  Every step factors the same banded Hessian.

For p < 2 the prox fidelity c |v - z|^p / p is singular where v = z, and
Newton's curvature (p - 1) c |v - z|^(p-2) of a row whose minimizer lies
near z flips v - z about it instead of closing in (1D, p = 1.5, k = 1000
from z: 241 steps).  The prox steps therefore take a secant curvature on
each fidelity row, between Newton's and the majorizer c |v - z|^(p-2)
(_secant_curvature), and measure each node from z or 0, whichever is
nearer, so that a minimizer within round-off of either stays resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from plapopt.grid import Field
from plapopt.measure import CapacitaryMeasure, lebesgue_weights
from plapopt.energy import (
    EnergyContext,
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


def torsion(mu: CapacitaryMeasure) -> tuple[Field, SolveReport]:
    """Torsion function of a measure with its solve report.

    p = 2 takes one exact Newton step; general p starts Newton from the
    p = 2 profile, through a smoothing continuation of the Dirichlet and
    measure terms for p < 2 (_convex_solve).
    """
    vol = mu.grid.cell_volume
    # the load -int v: -vol on each anchor row
    load = lambda v0, u: (-vol * float((v0 + u).sum()), np.full(u.size, -vol),
                          lambda rest: np.zeros(u.size))
    return _convex_solve(_torsion_context(mu), load)


def _convex_solve(ctx, term, z=None, grad_scale=None):
    """Minimize f_mu(v) plus the term over the values v on the free nodes
    of ctx.mu; returns the minimizer as a Field, zero off the free nodes
    (everywhere when no node is free), and the solve's report.

    ``term(v0, u)`` returns the term's value, its first derivative on
    each anchor row at the cell anchor values v = v0 + u, and a function
    curvature(rest) of its second derivative there, called only for a
    Hessian: both derivatives add to the kernel's weights on K's anchor
    rows, before the one K_F^T product.  rest() gives the force of the
    rest of the objective on each anchor row's node, for a term that
    shapes its curvature by it (prox at p < 2); the p = 2 profile passes
    None.  One K product, kernel pass and term call give a Newton point's
    value, gradient and Hessian (solvers.newton_refine's evaluate).

    The p = 2 profile is one exact Newton step from 0 of the p = 2 energy
    plus the term's quadratic model at v = 0; at p = 2 it is the
    minimizer.  Otherwise Newton starts from the field z cut to the
    free nodes (None: from the profile); for p > 2 in one exact stage,
    for p < 2 through a smoothing continuation: |grad|^2 + eps inside the
    (p-2)/2 power, and c ((v^2 + delta)^(p/2) - delta^(p/2)) / p for the
    term c |v|^p / p of each measure row v, consistently in value,
    gradient and Hessian, so each stage is a smooth convex problem that
    Newton finishes quadratically.  The first stages take eps = delta =
    1e-2, 1e-5, 1e-8 h^2, led by 1e1 h^2 from z, which lies further from
    the minimizer than the profile; the next keep the context's eps_reg
    and lower delta by 1e-3 a stage down to MEASURE_DELTA_FLOOR, after
    the relaxed weights of Diening, Fornasier, Tomasi & Wank (Numer.
    Math. 2020).  From z, Newton moves e = v - r, r the nearer of 0 and z
    on each node, chosen afresh before each stage (v0 holds r's anchor
    values): |v|^p and |v - z|^p are singular at those points, and a
    minimizer within round-off of one of them keeps its resolution in e.
    The last stage stops at the solve's tolerances, relative to
    grad_scale.  Torsion passes only its load: it starts from the
    profile, and its scale is the dual norm of its gradient at 0, the
    load.  Every Hessian, the p = 2 one included, is summed into band
    storage through the term list of ctx's free-node view, built once.
    """
    grid, rows, p, free = ctx.grid, ctx._rows, ctx.p, ctx._free
    idx, K, KT = free.idx, free.K, free.KT
    if idx.size == 0:
        return Field(grid, np.zeros(grid.n_nodes)), SolveReport(0, 0.0, True)
    terms = free.terms
    meas = slice(rows.n_grad, K.shape[0])
    # K's anchor rows are anchor_op's: the term's weights go there
    anchors = slice(rows.n_grad, rows.n_grad + grid.n_cells)
    K_anchor = K[anchors]

    if z is None or p == 2.0:
        zero = np.zeros(grid.n_cells)
        _, d1, curvature = term(zero, zero)
        df = np.zeros(K.shape[0])
        df[anchors] = d1
        g0 = KT @ df
        # the p = 2 weights, zero on the g g^T cell blocks
        w = np.zeros(free.pattern[0].size)
        w[:K.shape[0]] = operators.hessian_diagonal(
            grid.dim, rows.vol * rows.keep, rows.f, 1.0, 2.0)
        w[anchors] += curvature(None)
        factor = sla.cholesky_banded(terms.band(w), check_finite=False)
        x0 = sla.cho_solve_banded((factor, False), -g0, check_finite=False)
        if p == 2.0:
            return _embed(grid, idx, x0), SolveReport(1, 0.0, True)
        if grad_scale is None:
            grad_scale = dual_norm(ctx, g0)

    def make_stage(eps, delta, r):
        ctx_e = replace(ctx, eps_reg=eps)
        y_r = K @ r
        # K's anchor rows select one node each: these are r's values
        v0 = y_r[anchors]

        def evaluate(e):
            # where delta smooths the measure rows v, zeroing them in y
            # drops the kernel's exact terms there
            ke = K @ e
            y = y_r + ke
            v = y[meas].copy()
            if delta is not None:
                y[meas] = 0.0
            parts, curv = _kernel(ctx_e, y, smooth_f=True, hess=True)
            value, d1, curvature = term(v0, ke[anchors])
            f, df = parts.f + value, parts.df
            if delta is not None:
                t = v * v + delta
                f += float(rows.f @ (t ** (p / 2) - delta ** (p / 2))) / p
                df[meas] = rows.f * v * t ** (p / 2 - 1)
            # f's weights alone: rest() maps them to their force on a node
            rest = df.copy()
            df[anchors] += d1

            def hessian():
                w = hessians.weights(ctx_e, y, curv, rows.f)
                if delta is not None:
                    w[meas] = rows.f * t ** (p / 2 - 2) * (
                        (p - 1) * v * v + delta)
                # only a term that reads the force pays for its products
                w[anchors] += curvature(lambda: K_anchor @ (KT @ rest))
                return terms.band(w)

            return f, KT @ df, hessian

        return evaluate

    stages = [(ctx.eps_reg, None)]      # (eps, delta); None: exact rows
    if p < 2.0:
        h2 = min(grid.spacing) ** 2
        firsts = (1e1, 1e-2, 1e-5, 1e-8) if z is not None else (
            1e-2, 1e-5, 1e-8)
        stages = [(eps * h2, eps * h2) for eps in firsts]
        while stages[-1][1] > MEASURE_DELTA_FLOOR:
            stages.append((ctx.eps_reg,
                           max(1e-3 * stages[-1][1], MEASURE_DELTA_FLOOR)))
    r = np.zeros(idx.size)
    e, total = (x0 if z is None else z.flat[idx]), 0
    for i, stage in enumerate(stages):
        if z is not None and p < 2.0:
            x, z_free = r + e, z.flat[idx]
            r_new = np.where(np.abs(x) <= np.abs(x - z_free), 0.0, z_free)
            # e stays exact on the nodes that keep their r
            e = np.where(r_new == r, e, x - r_new)
            r = r_new
        tols = (dict(max_iter=200, tol_decrement=DEFAULT_TOL_DECREMENT,
                     tol_grad=DEFAULT_TOL_GRAD) if i == len(stages) - 1
                else dict(tol_decrement=1e-12, tol_grad=1e-10))
        e, info = newton_refine(e, make_stage(*stage, r),
                                grad_norm=lambda g: dual_norm(ctx, g),
                                grad_scale=grad_scale, **tols)
        total += info["iterations"]
    return _embed(grid, idx, r + e), SolveReport(
        total, info["final_decrement"], info["converged"])


def _secant_curvature(c, p, d, d1, rest):
    """Curvature of c |d|^p / p, p < 2, on each row for a Newton step.

    With the force rest of the other terms on the row held fixed, the
    row's minimizer is d* = -sign(rest) (|rest| / c)^(1/(p-1)), and the
    secant (d1 + rest) / (d - d*) is the curvature of the step that lands
    on it.  Newton's (p - 1) c |d|^(p-2) overshoots d* from above and
    flips d about it from afar; the majorizer c |d|^(p-2) lands on 0.  The
    secant is kept between the two, so it is Newton's at d* (the
    quadratic end game) and the majorizer's when d must shrink past zero.
    At d = 0 abs_pow makes both 0, the clamp of the Newton model.
    """
    d_star = -np.sign(rest) * (np.abs(rest) / c) ** (1.0 / (p - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = np.nan_to_num((d1 + rest) / (d - d_star), nan=0.0)
    major = c * abs_pow(d, p - 2.0)
    return np.clip(secant, (p - 1.0) * major, major)


def field_distance_p(a: Field, b: Field) -> float:
    """Discrete L^p distance of two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    return Field(a.grid, a.values - b.values).norm_p()


def gamma_distance(mu1: CapacitaryMeasure, mu2: CapacitaryMeasure) -> float:
    """L^p distance of the torsion functions of two measures."""
    if mu1.grid != mu2.grid:
        raise ValueError("grid mismatch")
    w1, r1 = torsion(mu1)
    w2, r2 = torsion(mu2)
    if not (r1.converged and r2.converged):
        raise RuntimeError("torsion solver did not converge")
    return field_distance_p(w1, w2)


def prox(z: Field, k: float,
         mu: CapacitaryMeasure) -> tuple[Field, SolveReport]:
    """Moreau-Yosida proximal point of the measure energy at z.

    Minimizes (k/p) int |z - v|^p + f_mu(v).  Whenever f_mu(z) is finite
    the minimizer obeys the descent bound

        (k/p) int |z - prox|^p + f_mu(prox) <= f_mu(z).
    """
    if k <= 0:
        raise ValueError("k must be > 0")
    grid = z.grid
    if mu.grid != grid:
        raise ValueError("grid mismatch")
    p = grid.p
    c = np.full(grid.n_cells, k * grid.cell_volume)
    # z may be nonzero off the free nodes: its anchors there stay fixed
    z_anchor = operators.anchor_op(grid) @ z.flat

    def fidelity(v0, u):
        # exact on the nodes measured from z, where v0 is z's value
        d = (v0 - z_anchor) + u
        d1 = c * _odd(d, p)

        def curvature(rest):
            if p < 2.0:  # Hessians from z: rest is given
                return _secant_curvature(c, p, d, d1, rest())
            return operators.hessian_diagonal(grid.dim, None, c,
                                              abs_pow(d, p - 2.0), p)

        return float(c @ np.abs(d) ** p) / p, d1, curvature

    return _convex_solve(_torsion_context(mu), fidelity, z,
                         grad_scale=max(k * z.norm_p() ** (p - 1.0), 1.0))
