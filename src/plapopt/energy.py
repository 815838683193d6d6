"""Energy functionals of the eigenvalue problem and their gradients.

The constrained Rayleigh value of a field u is

    f(u) / (g1(u) - g2(u)),

with f the p-Dirichlet energy plus the measure term and g1, g2 the weight
energies.  All three are p-homogeneous, so the ratio is invariant under
scaling and its critical points solve the discrete eigen-equation
f'(u) = lambda (g1'(u) - g2'(u)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from plapopt import operators
from plapopt.grid import GridSpec, Field, blocked_adjacent_nodes
from plapopt.measure import CapacitaryMeasure, WeightPair


class ConstraintViolation(Exception):
    """The field sits outside the cone g1 - g2 > 0."""


@dataclass(frozen=True)
class EnergyContext:
    """Grid, measure and weights of one eigenvalue problem.

    eps_reg smooths |grad u|^(p-2) near vanishing gradients for p < 2; it
    perturbs gradients only, never reported energies.  None picks the
    default 1e-12 * h^2 for p < 2 and exact arithmetic otherwise.
    """

    grid: GridSpec
    mu: CapacitaryMeasure
    weights: WeightPair
    eps_reg: float | None = None

    def __post_init__(self):
        if self.mu.grid != self.grid or self.weights.grid != self.grid:
            raise ValueError("measure/weights grid mismatch")
        if self.weights.trivial_nu1:
            raise ValueError("nu1 vanishes: no field can satisfy g1 > g2")
        if self.eps_reg is None:
            eps = 1e-12 * min(self.grid.spacing) ** 2 if self.grid.p < 2 else 0.0
            object.__setattr__(self, "eps_reg", eps)
        elif self.eps_reg < 0:
            raise ValueError("eps_reg must be >= 0")

    @property
    def p(self) -> float:
        return self.grid.p

    def blocked_adjacent(self) -> np.ndarray:
        return blocked_adjacent_nodes(self.grid, self.mu.blocked)

    def violates_dirichlet(self, u: Field) -> bool:
        return bool(np.any(u.values[self.blocked_adjacent()] != 0.0))

    def project_dirichlet(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float).reshape(self.grid.nodes_shape)
        out[self.blocked_adjacent()] = 0.0
        return out

    def feasibility_tol(self, g1_value):
        return 1e-12 * np.maximum(np.abs(g1_value), 1e-300)

    @functools.cached_property
    def _rows(self) -> _Rows:
        return _rows_of(self)


def _check_grid(ctx: EnergyContext, u: Field):
    if u.grid != ctx.grid:
        raise ValueError("field grid mismatch")


def _check_which(which: int):
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")


class _Rows(NamedTuple):
    """A context's measure data in the row layout of its energy map K.

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


def _rows_of(ctx: EnergyContext) -> _Rows:
    grid, mu, weights = ctx.grid, ctx.mu, ctx.weights
    vol = grid.cell_volume
    n_mu, n_w1 = len(mu.atoms), len(weights.w1_atoms)
    masses = lambda atoms: [mass for _, mass in atoms]
    rows = _Rows(
        grid.dim * grid.n_cells, vol,
        operators.kept_cells(mu).astype(float),
        np.concatenate([vol * mu.density.reshape(-1), masses(mu.atoms),
                        np.zeros(n_w1)]),
        np.concatenate([vol * weights.w1.reshape(-1), np.zeros(n_mu),
                        masses(weights.w1_atoms)]),
        np.concatenate([vol * weights.w2.reshape(-1),
                        np.zeros(n_mu + n_w1)]))
    for arr in rows[2:]:
        arr.setflags(write=False)
    return rows


class _Parts(NamedTuple):
    """f, g1 and g2 at y = K x with the weights of their gradients.

    The gradient of f in the unknowns x is K^T df.  g1 and g2 only see
    the measure rows, so their gradients are K[n_grad:]^T dg1 and dg2.
    A stack of S rows y gives S values and S rows of weights.
    """

    f: float
    g1: float
    g2: float
    df: np.ndarray
    dg1: np.ndarray
    dg2: np.ndarray


def _energy_map(ctx: EnergyContext):
    return operators.energy_map(ctx.grid, ctx.mu.atoms, ctx.weights.w1_atoms)


def _odd(x, p: float):
    """sign(x) |x|^(p-1), the derivative of |x|^p / p."""
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def _grad_weights(p: float, s: np.ndarray, eps: float, keep: np.ndarray):
    """Smoothed |grad|^2 and |grad|^(p-2) per cell from s = |grad|^2.

    For p < 2, t = s + eps stands in for s; elsewhere t = s.  keep is 1.0
    on kept cells and 0.0 on blocked ones; blocked cells and cells with
    t = 0 get weight 0.  The Hessian block of a cell is
    w I + (p - 2) (w / t) g g^T.
    """
    t = s + eps if p < 2.0 else s
    if p == 2.0:
        return t, keep
    if p > 2.0:
        return t, keep * t ** ((p - 2.0) / 2.0)
    w = np.zeros_like(t)
    pos = t > 0
    w[pos] = t[pos] ** ((p - 2.0) / 2.0)
    return t, keep * w


def _kernel(ctx: EnergyContext, y: np.ndarray, eps: float,
            smooth_f: bool = False) -> _Parts:
    """f, g1, g2 and their gradient weights from y = K x in one pass.

    y may be a stack (S, rows); each row gets the operations, and so the
    bits, of a call on it alone.  For p < 2, eps smooths |grad|^2 in the
    gradient weights (see _grad_weights); the value of f stays exact
    unless smooth_f asks for the smoothed energy that those weights
    differentiate.
    """
    rows = ctx._rows
    p = ctx.grid.p
    stack = y.shape[:-1]
    grads = y[..., :rows.n_grad].reshape(*stack, ctx.grid.dim, -1)
    meas = y[..., rows.n_grad:]
    s = (grads * grads).sum(axis=-2)
    t, w = _grad_weights(p, s, eps, rows.keep)
    if smooth_f or t is s:
        dirichlet = np.vecdot(w, t)         # t^(p/2) = t^((p-2)/2) t
    else:
        dirichlet = np.vecdot(rows.keep, s ** (p / 2.0))
    odd = _odd(meas, p)
    dmeas = rows.f * odd
    dg1 = rows.g1 * odd
    dg2 = rows.g2 * odd
    # |y|^p = y sign(y) |y|^(p-1): each measure term is <meas, weights>
    f = rows.vol * dirichlet + np.vecdot(dmeas, meas)
    g1, g2 = np.vecdot(dg1, meas), np.vecdot(dg2, meas)
    if not stack:
        f, g1, g2 = float(f), float(g1), float(g2)
    df = np.concatenate(((rows.vol * w[..., None, :] * grads)
                         .reshape(*stack, -1), dmeas), axis=-1)
    return _Parts(f / p, g1 / p, g2 / p, df, dg1, dg2)


def _field_parts(ctx: EnergyContext, u: Field) -> _Parts:
    _check_grid(ctx, u)
    return _kernel(ctx, _energy_map(ctx) @ u.flat, ctx.eps_reg)


def _node_gradient(ctx: EnergyContext, weights: np.ndarray) -> Field:
    """K^T weights as a field, projected onto the Dirichlet subspace."""
    return Field(ctx.grid,
                 ctx.project_dirichlet(_energy_map(ctx).T @ weights))


def _on_all_rows(ctx: EnergyContext, dg: np.ndarray) -> np.ndarray:
    """Weights given on the measure rows, padded with zero gradient rows."""
    return np.concatenate((np.zeros(ctx._rows.n_grad), dg))


def f_energy(ctx: EnergyContext, u: Field) -> float:
    """(1/p) integral |grad u|^p + (1/p) integral |u|^p dmu, or +inf.

    The value is +inf as soon as u is nonzero on a node adjacent to a
    blocked cell (the Dirichlet condition of the infinite part).
    """
    _check_grid(ctx, u)
    if ctx.violates_dirichlet(u):
        return math.inf
    return _field_parts(ctx, u).f


def g_energy(ctx: EnergyContext, u: Field, which: int) -> float:
    """(1/p) integral |u|^p dnu_j for j = 1 or 2."""
    _check_which(which)
    parts = _field_parts(ctx, u)
    return parts.g1 if which == 1 else parts.g2


def rayleigh(ctx: EnergyContext, u: Field) -> float:
    """f(u) / (g1(u) - g2(u)) on the feasible cone; 0-homogeneous."""
    parts = _field_parts(ctx, u)
    denom = parts.g1 - parts.g2
    if denom <= ctx.feasibility_tol(parts.g1):
        raise ConstraintViolation(
            f"constraint violated: g1 - g2 = {denom:.3e} <= tolerance")
    if ctx.violates_dirichlet(u):
        return math.inf
    return parts.f / denom


def energy_gradient(ctx: EnergyContext, u: Field) -> Field:
    """Gradient of f at u, projected onto the Dirichlet-feasible subspace.

    Satisfies the Euler identity <grad, u> = p f(u) exactly when
    eps_reg = 0.
    """
    return _node_gradient(ctx, _field_parts(ctx, u).df)


def g_gradient(ctx: EnergyContext, u: Field, which: int) -> Field:
    """Gradient of g_j at u, projected like the energy gradient."""
    _check_which(which)
    parts = _field_parts(ctx, u)
    dg = parts.dg1 if which == 1 else parts.dg2
    return _node_gradient(ctx, _on_all_rows(ctx, dg))


def dual_norm(ctx: EnergyContext, r: np.ndarray) -> float:
    """Discrete L^p' norm of a node functional r (entries include h^d)."""
    p = ctx.p
    q = p / (p - 1.0)
    vol = ctx.grid.cell_volume
    r = np.asarray(r, dtype=float).reshape(-1)
    return float((vol * np.sum(np.abs(r / vol) ** q)) ** (1.0 / q))


def residual(ctx: EnergyContext, u: Field, lam: float) -> float:
    """Dual norm of f'(u) - lambda (g1'(u) - g2'(u)).

    Zero exactly when (u, lambda) solves the discrete eigen-equation on
    the feasible cone.
    """
    parts = _field_parts(ctx, u)
    if parts.g1 - parts.g2 <= ctx.feasibility_tol(parts.g1):
        raise ConstraintViolation("residual needs a feasible field")
    r = _node_gradient(
        ctx, parts.df - lam * _on_all_rows(ctx, parts.dg1 - parts.dg2))
    return dual_norm(ctx, r.values)
