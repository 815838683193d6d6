"""Torsion functions, the induced distance between measures, and the
proximal map of the measure energy.

The torsion function of a measure minimizes

    (1/p) int |grad v|^p + (1/p) int |v|^p dmu - int v,

a strictly convex coercive problem on the nodes left free by the blocked
region.  Weak and strong topologies agree on the fixed grid, so
convergence of measures is metrized by the L^p distance of their torsion
functions.
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
from plapopt.solvers import bb_minimize, newton_refine

DEFAULT_TOL_DECREMENT = 1e-10
DEFAULT_TOL_GRAD = 1e-8
BB_STAGE_ITER = 1500


@dataclass(frozen=True)
class SolveReport:
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
    from the p = 2 profile and descends the convex objective (BB stage,
    then Newton through a smoothing continuation for p < 2).
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

    x, info = _bb_then_newton(ctx, idx, quad,
                              lambda x: (-float(np.dot(b, x)), -b),
                              grad_scale=dual_norm(ctx, b))
    return _embed(grid, idx, x), SolveReport(
        info["iterations"], info["final_decrement"], info["converged"])


def _bb_then_newton(ctx, idx, x0, extra, extra_hessian=None, *,
                    grad_scale):
    """Minimize f_mu plus an extra term over the free-node values x.

    ``extra(x)`` returns the value and gradient of the extra term,
    ``extra_hessian(x)`` its Hessian (None: the term is linear).  The
    descent runs a BB stage, then Newton through a smoothing
    continuation: |grad|^2 + eps inside the (p-2)/2 power, consistently in
    value, gradient and Hessian, so each stage is a smooth convex problem
    that Newton finishes quadratically.  eps = None is the target: the
    exact value of f_mu, with the context's eps_reg in its gradient and
    Hessian.  For p >= 2 the gradient is already C^1 and the continuation
    is skipped.
    """
    grid = ctx.grid
    K = _energy_map(ctx)[:, idx]

    def make_stage(eps):
        ctx_e = ctx if eps is None else replace(ctx, eps_reg=eps)

        def value_and_grad(x):
            parts = _kernel(ctx_e, K @ x, ctx_e.eps_reg,
                            smooth_f=eps is not None)
            value, grad = extra(x)
            return parts.f + value, K.T @ parts.df + grad

        def hess(x):
            H = hessians.hessian_f(ctx_e, _embed(grid, idx, x), idx)
            return H if extra_hessian is None else H + extra_hessian(x)

        return value_and_grad, hess

    gnorm = lambda g: dual_norm(ctx, g)
    total = 0
    value_and_grad, _ = make_stage(None)
    x, info = bb_minimize(
        x0, value_and_grad, max_iter=BB_STAGE_ITER,
        tol_decrement=DEFAULT_TOL_DECREMENT, tol_grad=1e-4,
        grad_norm=gnorm, grad_scale=grad_scale)
    total += info["iterations"]
    if ctx.p < 2.0:
        h2 = min(grid.spacing) ** 2
        for eps in (1e-2 * h2, 1e-5 * h2, 1e-8 * h2):
            if eps <= ctx.eps_reg:
                break
            vg, hs = make_stage(eps)
            x, sinfo = newton_refine(
                x, vg, hs, tol_decrement=1e-12, tol_grad=1e-10,
                grad_norm=gnorm, grad_scale=grad_scale)
            total += sinfo["iterations"]
    vg, hs = make_stage(None)
    x, ninfo = newton_refine(
        x, vg, hs, max_iter=200,
        tol_decrement=DEFAULT_TOL_DECREMENT, tol_grad=DEFAULT_TOL_GRAD,
        grad_norm=gnorm, grad_scale=grad_scale)
    ninfo["iterations"] += total
    return x, ninfo


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
    bflat = bcells.reshape(-1)
    zfree = z.flat[idx]

    if p == 2.0:
        A, _, _ = operators.p2_matrices(grid, mu, lebesgue_weights(grid), free)
        M = operators.sandwich(anchor, sp.diags(vol * bflat))
        x = spla.spsolve((A + k * M).tocsc(), k * (M @ zfree))
        return _embed(grid, idx, x), SolveReport(1, 0.0, True)

    # z may be nonzero off the free nodes: its anchors there stay fixed
    z_anchor = operators.anchor_op(grid) @ z.flat

    def fidelity(x):
        diff = anchor @ x - z_anchor
        return ((k / p) * vol * float(bflat @ np.abs(diff) ** p),
                k * vol * (anchor.T @ (bflat * _odd(diff, p))))

    def fidelity_hessian(x):
        hmeas = abs_pow(anchor @ x - z_anchor, p - 2.0)
        return operators.sandwich(anchor, sp.diags(operators.hessian_diagonal(
            grid.dim, None, k * vol * bflat, hmeas, p)))

    x, info = _bb_then_newton(
        ctx, idx, zfree, fidelity, fidelity_hessian,
        grad_scale=max(k * z.norm_p() ** (p - 1.0), 1.0))
    return _embed(grid, idx, x), SolveReport(
        info["iterations"], info["final_decrement"], info["converged"])
