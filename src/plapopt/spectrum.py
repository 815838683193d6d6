"""Variational eigenvalues through the finite-dimensional minimax reduction.

The m-th value is the infimum, over m-dimensional subspaces whose unit
sphere stays inside the feasible cone g1 - g2 > 0, of the supremum of the
Rayleigh ratio on that sphere.  Such a sphere has index exactly m, so each
value is an upper bound for the m-th inf-sup eigenvalue; for p = 2 the
reduction is exact and computed from the matrix pencil.  For general p the
inner supremum runs multistart projected ascent and the outer infimum
descends on the basis vectors; reported eigenpairs are polished by a
damped Newton iteration on the eigen-equation and certified through their
residual.

All randomness derives from a caller seed, so repeated runs coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field
from plapopt.measure import CapacitaryMeasure, WeightPair
from plapopt.energy import (
    EnergyContext,
    ConstraintViolation,
    _energy_map,
    _field_parts,
    _kernel,
    _node_gradient,
    _on_all_rows,
    rayleigh,
    residual,
    dual_norm,
)
from plapopt import operators
from plapopt import hessians
from plapopt.operators import _embed
from plapopt.solvers import bb_minimize

M_MAX_LIMIT = 6
DENSE_DOF_LIMIT = 1400
CERT_TOL = 1e-6

FINITE = "finite"
INFEASIBLE = "infeasible"
UNRESOLVED = "unresolved"


class InfeasibleSubspace(Exception):
    """The candidate's sphere meets the cone boundary g1 - g2 <= 0."""


@dataclass(frozen=True)
class SubspaceCandidate:
    """Basis of an m-dimensional trial subspace.

    The basis must be numerically independent: smallest singular value of
    the stacked values at least 1e-8 times the largest.
    """

    basis: tuple[Field, ...]

    def __post_init__(self):
        basis = tuple(self.basis)
        if not 1 <= len(basis) <= M_MAX_LIMIT:
            raise ValueError(f"need 1..{M_MAX_LIMIT} basis fields")
        grid = basis[0].grid
        if any(b.grid != grid for b in basis):
            raise ValueError("basis fields on different grids")
        mat = np.stack([b.flat for b in basis])
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] < 1e-8 * svals[0]:
            raise ValueError("basis is numerically dependent")
        object.__setattr__(self, "basis", basis)

    @property
    def m(self) -> int:
        return len(self.basis)

    @property
    def grid(self) -> GridSpec:
        return self.basis[0].grid

    def matrix(self) -> np.ndarray:
        """Stacked basis values, shape (m, n_nodes)."""
        return np.stack([b.flat for b in self.basis])

    def combine(self, xi: np.ndarray) -> Field:
        return Field(self.grid, xi @ self.matrix())


@dataclass
class SpectralResult:
    """Nondecreasing eigenvalue list with fields, residuals and statuses."""

    lambdas: list[float]
    eigenfields: list[Field | None]
    residuals: list[float | None]
    statuses: list[str]
    subspace_bounds: list[float] = field(default_factory=list)

    def __post_init__(self):
        finite = [x for x in self.lambdas if math.isfinite(x)]
        if any(b > a + 1e-9 * max(abs(a), 1.0)
               for a, b in zip(finite[1:], finite[:-1])):
            raise ValueError("lambdas must be nondecreasing")

    def status_of(self, m: int) -> str:
        return self.statuses[m - 1]

    def value(self, m: int) -> float:
        return self.lambdas[m - 1]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the general-p machinery (p = 2 ignores most of them)."""

    n_starts: int = 32
    max_ascent_iter: int = 120
    max_outer_iter: int = 25
    max_restarts: int = 3
    descent_max_iter: int = 4000
    newton_max_iter: int = 60
    cert_tol: float = CERT_TOL


# ----------------------------------------------------------------------
# exact p = 2 path

def _pencil_positive_eigs(ctx: EnergyContext, m_max: int):
    """Positive pencil directions: lambda_m = 1 / beta_m with beta the
    m-th largest positive eigenvalue of B u = beta A u on free nodes."""
    grid = ctx.grid
    A, B, idx = operators.p2_matrices(grid, ctx.mu, ctx.weights)
    n = idx.size
    if n == 0:
        return [], [], idx
    dense = n <= DENSE_DOF_LIMIT
    if not dense and _is_diag_pd(B):
        lams, vecs = _sparse_smallest(A, B, m_max)
        return lams, [_embed(grid, idx, v) for v in vecs.T], idx
    Ad = A.toarray()
    Bd = B.toarray()
    beta, U = sla.eigh(Bd, Ad)       # beta ascending, U^T A U = I
    order = np.argsort(-beta)
    lams, vecs = [], []
    for j in order[:max(m_max, 0)]:
        if beta[j] <= 1e-13 * max(abs(beta[order[0]]), 1e-300):
            break
        lams.append(1.0 / beta[j])
        vecs.append(_embed(grid, idx, U[:, j]))
    return lams, vecs, idx


def _is_diag_pd(B) -> bool:
    off = B - sp.diags(B.diagonal())
    return off.nnz == 0 and np.all(B.diagonal() > 0)


def _sparse_smallest(A, B, k: int):
    n = A.shape[0]
    k = min(k, n - 2)
    # fixed start vector keeps repeated runs bit-identical
    v0 = np.full(n, 1.0 / math.sqrt(n))
    vals, vecs = spla.eigsh(A.tocsc(), k=k, M=B.tocsc(), sigma=0,
                            which="LM", v0=v0)
    order = np.argsort(vals)
    return list(vals[order]), vecs[:, order]


def _normalize(ctx: EnergyContext, u: Field) -> Field:
    """Scale so that g1(u) - g2(u) = 1."""
    parts = _field_parts(ctx, u)
    denom = parts.g1 - parts.g2
    if denom <= 0:
        raise ConstraintViolation("cannot normalize an infeasible field")
    return Field(ctx.grid, u.values / denom ** (1.0 / ctx.p))


# ----------------------------------------------------------------------
# inner supremum on a subspace sphere

def _sphere_project(xi: np.ndarray) -> np.ndarray:
    """xi scaled to unit length; a stack (S, m) row by row."""
    return xi / np.sqrt(np.vecdot(xi, xi))[..., None]


def _starts(m: int, n_starts: int, rng: np.random.Generator) -> np.ndarray:
    """Rows e_1, -e_1, ..., e_m, -e_m, then random unit vectors."""
    signed = np.stack([np.eye(m), -np.eye(m)], axis=1).reshape(2 * m, m)
    extra = rng.standard_normal((max(n_starts - 2 * m, 0), m))
    return np.concatenate([signed, _sphere_project(extra)])


def _push(M, x):
    """M x, row by row for a stack x: the BLAS call of one vector."""
    return M @ x if x.ndim == 1 else np.matmul(M, x[:, :, None])[:, :, 0]


def _pull(v, M):
    """v M, row by row for a stack v."""
    return v @ M if v.ndim == 1 else np.matmul(v[:, None, :], M)[:, 0, :]


class _SubspaceEval:
    """f, g1, g2 and the Rayleigh ratio as functions of coordinates x.

    The field is u = M x for a fixed linear map M: the transposed basis
    of a subspace candidate (x are its coefficients) or the embedding of
    the free nodes.  The energy kernel runs on (K M) x and the gradients
    map back through (K M)^T, so every evaluation is one small matrix
    product each way.  x may be one vector or a stack (S, m), one per row.
    """

    def __init__(self, ctx: EnergyContext, KM, violates: bool = False):
        self.ctx = ctx
        self.KM = KM
        self.KM_meas = KM[ctx._rows.n_grad:]
        self.m = KM.shape[1]
        self.violates = violates

    @classmethod
    def of_candidate(cls, ctx: EnergyContext, cand: SubspaceCandidate):
        V = cand.matrix()                      # (m, n_nodes)
        badj = ctx.blocked_adjacent().reshape(-1)
        return cls(ctx, _energy_map(ctx) @ V.T,
                   bool(np.any(V[:, badj] != 0.0)))

    def parts(self, x):
        return _kernel(self.ctx, _push(self.KM, x), self.ctx.eps_reg)

    def denom_grad(self, x):
        parts = self.parts(x)
        return parts.g1 - parts.g2, _pull(parts.dg1 - parts.dg2, self.KM_meas)

    def _ratio_gradient(self, parts, val, denom):
        return (_pull(parts.df, self.KM)
                - val * _pull(parts.dg1 - parts.dg2, self.KM_meas)) / denom

    def ratio_grad(self, x):
        """(value, gradient) of f/(g1-g2); (inf, None) off the cone."""
        if self.violates:
            return math.inf, None
        parts = self.parts(x)
        denom = parts.g1 - parts.g2
        if denom <= self.ctx.feasibility_tol(parts.g1):
            return math.inf, None
        val = parts.f / denom
        return val, self._ratio_gradient(parts, val, denom)

    def ratio_stack(self, X):
        """Values (S,) and gradients (S, m) of the ratio at the rows of X;
        off the cone the value is inf and the gradient meaningless."""
        parts = self.parts(X)
        denom = parts.g1 - parts.g2
        on = denom > self.ctx.feasibility_tol(parts.g1)
        denom = np.where(on, denom, 1.0)
        val = parts.f / denom
        return (np.where(on, val, np.inf),
                self._ratio_gradient(parts, val[:, None], denom[:, None]))


def _sphere_descent(fun, X: np.ndarray, max_iter: int, tol: float,
                    floor: float = -math.inf):
    """Projected descent on the unit sphere from every row of X at once.

    fun maps a stack (S, m) to values (S,), +inf off its domain, and
    gradients.  Each row steps along its normalized tangential gradient,
    the step growing by 1.7 after a decrease and halving otherwise; it
    stops after max_iter iterations, at tangential gradient <= tol *
    max(1, |value|) or at step <= 1e-14.  All stop once a value is below
    floor.  A round evaluates fun once on the moving rows with the
    arithmetic of a single start.  Returns the final values and points.
    """
    X = _sphere_project(X)
    val, G = fun(X)
    step = np.full(len(val), 0.5)
    iters = np.zeros(len(val), dtype=int)
    moving = np.isfinite(val)
    fresh = moving.copy()              # rows that begin an iteration
    while not (val < floor).any():
        # a row that kept its point recomputes the same direction
        tang = G - np.vecdot(G, X)[:, None] * X
        tn = np.sqrt(np.vecdot(tang, tang))
        moving &= ~fresh | ((iters < max_iter)
                            & (tn > tol * np.maximum(1.0, np.abs(val))))
        iters += fresh
        a = moving.nonzero()[0]
        if a.size == 0:
            break
        X_new = _sphere_project(
            X[a] - step[a, None] * tang[a] / tn[a, None])
        val_new, G_new = fun(X_new)
        down = val_new < val[a]
        acc = a[down]
        X[acc], val[acc], G[acc] = X_new[down], val_new[down], G_new[down]
        step[a] *= np.where(down, 1.7, 0.5)
        moving[a] = step[a] > 1e-14
        fresh[:] = False
        fresh[acc] = True
    return val, X


def _sphere_min_denominator(ev: _SubspaceEval, starts) -> float:
    """Approximate min of g1 - g2 over the unit coefficient sphere."""
    val, _ = _sphere_descent(ev.denom_grad, starts, 80, 1e-14, floor=0.0)
    return float(val.min())


def _sphere_g1_floor(ev: _SubspaceEval) -> float:
    """A proven lower bound of g1 - g2 on the unit sphere if nu2 = 0, else 0.

    Then g1 - g2 = g1 = |A xi|_p^p / p, A = C^(1/p) K_meas V^T on the r
    rows of positive weight c, and |A xi|_p^p >= r^min(0, 1 - p/2)
    sigma_min(A)^p on the unit sphere.
    """
    rows, p = ev.ctx._rows, ev.ctx.p
    pos = rows.g1 > 0
    if rows.g2.any() or np.count_nonzero(pos) < ev.m:
        return 0.0
    A = rows.g1[pos, None] ** (1.0 / p) * ev.KM_meas[pos]
    sv = np.linalg.svd(A, compute_uv=False)
    # the computed singular values are exact up to eps times the largest
    smin = max(sv[-1] - 1e-12 * sv[0], 0.0)
    return A.shape[0] ** min(0.0, 1.0 - p / 2.0) * smin ** p / p


def _sup_general(ev: _SubspaceEval, starts, opts: SolverOptions):
    def neg_ratio(X):
        val, grad = ev.ratio_stack(X)
        return np.where(np.isfinite(val), -val, np.inf), -grad

    val, X = _sphere_descent(neg_ratio, starts, opts.max_ascent_iter, 1e-11)
    best = int(np.argmin(val))
    if not math.isfinite(val[best]):
        raise InfeasibleSubspace("no feasible start on the sphere")
    return float(-val[best]), X[best]


def sup_on_sphere(ctx: EnergyContext, candidate: SubspaceCandidate, *,
                  seed: int = 0,
                  options: SolverOptions | None = None,
                  _warm_xi: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray]:
    """Supremum of the Rayleigh ratio over the candidate's unit sphere.

    Returns (value, argmax coefficients).  Raises InfeasibleSubspace when
    the sphere is not strictly inside the cone g1 - g2 > 0; for p = 2 the
    value is the largest eigenvalue of the restricted m x m pencil.

    For general p and m >= 2, projected ascent runs from all starts (+-e_j
    and random unit vectors) as one stack through the energy kernel, each
    with its own step and stop.  Feasibility needs min(g1 - g2) above
    1e-10 of the g-scale: with nu2 = 0 a singular-value bound of g1 may
    prove it, else the same stacked search descends g1 - g2.
    """
    opts = options or SolverOptions()
    m = candidate.m
    if m > M_MAX_LIMIT:
        raise ValueError(f"m must be <= {M_MAX_LIMIT}")
    if candidate.grid != ctx.grid:
        raise ValueError("candidate grid mismatch")
    rng = np.random.default_rng(seed)
    ev = _SubspaceEval.of_candidate(ctx, candidate)

    if ev.violates:
        # the ratio is +inf wherever a blocked-adjacent node is hit; the
        # sphere still gives a (useless) upper bound
        e1 = np.zeros(m)
        e1[0] = 1.0
        return math.inf, e1

    if ctx.p == 2.0:
        return _sup_on_sphere_p2(ev)

    if m == 1:
        val, _ = ev.ratio_grad(np.array([1.0]))
        if not math.isfinite(val):
            raise InfeasibleSubspace("single ray outside the feasible cone")
        return val, np.array([1.0])

    starts = _starts(m, opts.n_starts, rng)
    threshold = 1e-10 * _sphere_denominator_scale(ev)
    if _sphere_g1_floor(ev) <= threshold:
        feas_starts = starts if _warm_xi is None else starts[:2 * m + 4]
        min_denom = _sphere_min_denominator(ev, feas_starts)
        if min_denom <= threshold:
            raise InfeasibleSubspace(
                f"sphere reaches g1 - g2 = {min_denom:.3e}")
    if _warm_xi is not None:
        starts = np.vstack([_warm_xi, starts[:max(2 * m, 4)]])
    return _sup_general(ev, starts, opts)


def _sphere_denominator_scale(ev: _SubspaceEval) -> float:
    parts = ev.parts(np.eye(ev.m))
    return max(float(np.max(np.abs(parts.g1) + np.abs(parts.g2))), 1e-300)


def _sup_on_sphere_p2(ev: _SubspaceEval):
    # the quadratic forms on the subspace: row j is the coefficient-space
    # gradient at the j-th basis vector
    parts = ev.parts(np.eye(ev.m))
    Ar = _pull(parts.df, ev.KM)
    Br = _pull(parts.dg1 - parts.dg2, ev.KM_meas)
    Ar, Br = 0.5 * (Ar + Ar.T), 0.5 * (Br + Br.T)
    bmin = sla.eigh(Br, eigvals_only=True)[0]
    scale = max(np.abs(Br).max(), 1e-300)
    if bmin <= 1e-12 * scale:
        raise InfeasibleSubspace(
            f"restricted weight form not positive definite "
            f"(min eig {bmin:.3e})")
    vals, vecs = sla.eigh(Ar, Br)
    xi = vecs[:, -1]
    return float(vals[-1]), xi / np.linalg.norm(xi)


# ----------------------------------------------------------------------
# eigenpair polishing / certification

def certify(ctx: EnergyContext, u: Field, lam: float,
            tol: float = CERT_TOL) -> bool:
    """True iff the residual is below tol * lambda * ||u||^(p-1)."""
    try:
        res = residual(ctx, u, lam)
    except ConstraintViolation:
        return False
    return res <= tol * abs(lam) * u.norm_p() ** (ctx.p - 1.0)


def polish_eigenpair(ctx: EnergyContext, u: Field, *,
                     options: SolverOptions | None = None
                     ) -> tuple[float, Field, float]:
    """Damped Newton on (f'(u) - lambda (g1'-g2')(u), g1-g2-1) = 0.

    Returns (lambda, field, residual); the input only needs to be a
    feasible approximation.
    """
    opts = options or SolverOptions()
    grid = ctx.grid
    idx = np.flatnonzero(operators.free_node_mask(grid, ctx.mu))
    ev = _SubspaceEval(ctx, _energy_map(ctx)[:, idx])
    u = _normalize(ctx, u)
    lam = rayleigh(ctx, u)

    def system(x, lam: float):
        """Eigen-equation residual on the free nodes, g1 - g2, g1 and
        the gradient of g1 - g2 at the free-node values x."""
        parts = ev.parts(x)
        gdiff = (parts.dg1 - parts.dg2) @ ev.KM_meas
        return (parts.df @ ev.KM - lam * gdiff, parts.g1 - parts.g2,
                parts.g1, gdiff)

    x = u.flat[idx]
    best = (lam, u, residual(ctx, u, lam))
    for _ in range(opts.newton_max_iter):
        field = _embed(grid, idx, x)
        r, denom, _, gdiff = system(x, lam)
        Hf = hessians.hessian_f(ctx, field, idx)
        Hg = hessians.hessian_g_diff(ctx, field, idx)
        J = sp.bmat([[Hf - lam * Hg, -sp.csc_matrix(gdiff).T],
                     [sp.csc_matrix(gdiff), None]], format="csc")
        rhs = -np.concatenate([r, [denom - 1.0]])
        try:
            delta = spla.spsolve(J, rhs)
        except Exception:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        res0 = np.linalg.norm(rhs)
        accepted = False
        for _ in range(30):
            x_new = x + step * delta[:-1]
            lam_new = lam + step * delta[-1]
            r_new, denom, g1, _ = system(x_new, lam_new)
            if denom > ctx.feasibility_tol(g1):
                rn = np.concatenate([r_new, [denom - 1.0]])
                if np.linalg.norm(rn) < res0 * (1.0 - 1e-4 * step):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        x, lam = x_new, lam_new
        resn = dual_norm(ctx, r_new)
        if resn < best[2]:
            best = (lam, _embed(grid, idx, x), resn)
        if resn <= 1e-14 * max(abs(lam), 1.0):
            break
    _, field, _ = best
    field = _normalize(ctx, field)
    lam = rayleigh(ctx, field)
    resn = residual(ctx, field, lam)
    return float(lam), field, float(resn)


# ----------------------------------------------------------------------
# first eigenvalue and the full minimax sweep

def _probe_fields(ctx: EnergyContext, rng: np.random.Generator,
                  count: int = 12) -> list[Field]:
    """Heuristic feasibility probes: weight-supported bumps and noise."""
    grid = ctx.grid
    free = operators.free_node_mask(grid, ctx.mu)
    probes = []
    base = np.zeros(grid.n_nodes)
    support = operators.anchor_op(grid).T @ ctx.weights.w1.reshape(-1)
    base[free] = support[free]
    if base.any():
        probes.append(Field(grid, base))
    for node, _ in ctx.weights.w1_atoms:
        v = np.zeros(grid.n_nodes)
        if free[node]:
            v[node] = 1.0
            probes.append(Field(grid, v))
    for _ in range(count):
        v = np.zeros(grid.n_nodes)
        v[free] = rng.standard_normal(int(free.sum()))
        if v.any():
            probes.append(Field(grid, v))
    return probes


def _feasible(ctx: EnergyContext, u: Field) -> bool:
    parts = _field_parts(ctx, u)
    return parts.g1 - parts.g2 > ctx.feasibility_tol(parts.g1)


def eigen_first(ctx: EnergyContext, *, seed: int = 0,
                options: SolverOptions | None = None
                ) -> tuple[float, Field, float]:
    """Smallest eigenvalue by ratio descent plus Newton polishing.

    Returns (lambda1, eigenfield, residual); the field is normalized to
    g1 - g2 = 1.  Raises InfeasibleSubspace when no feasible field is
    found (the case of an everywhere-degenerate right-hand side).
    """
    opts = options or SolverOptions()
    rng = np.random.default_rng(seed)
    p = ctx.p

    if p == 2.0:
        lams, vecs, _ = _pencil_positive_eigs(ctx, 1)
        if not lams:
            raise InfeasibleSubspace("no positive pencil direction")
        u = _normalize(ctx, vecs[0])
        lam = rayleigh(ctx, u)
        return lam, u, residual(ctx, u, lam)

    u0 = None
    try:
        lams, vecs, _ = _pencil_positive_eigs(_p2_context(ctx), 1)
        if lams:
            u0 = Field(ctx.grid, vecs[0].values)
    except Exception:
        u0 = None
    if u0 is None or not _feasible(ctx, u0):
        for probe in _probe_fields(ctx, rng):
            if _feasible(ctx, probe):
                u0 = probe
                break
    if u0 is None or not _feasible(ctx, u0):
        raise InfeasibleSubspace("no feasible probe field")

    # the ratio is 0-homogeneous: descend from a unit vector, where its
    # gradient has the scale of the ratio itself
    idx = np.flatnonzero(operators.free_node_mask(ctx.grid, ctx.mu))
    ev = _SubspaceEval(ctx, _energy_map(ctx)[:, idx])
    x0 = _sphere_project(u0.flat[idx])
    x, _ = bb_minimize(x0, ev.ratio_grad, max_iter=opts.descent_max_iter,
                       tol_decrement=1e-14, tol_grad=1e-9,
                       grad_scale=max(abs(ev.ratio_grad(x0)[0]), 1.0))
    lam, u, res = polish_eigenpair(ctx, _embed(ctx.grid, idx, x),
                                   options=opts)
    return lam, u, res


def _p2_context(ctx: EnergyContext) -> EnergyContext:
    grid2 = GridSpec(ctx.grid.dim, ctx.grid.n, ctx.grid.lengths, 2.0)
    mu2 = CapacitaryMeasure(grid2, ctx.mu.density, ctx.mu.blocked,
                            ctx.mu.atoms if grid2.p > grid2.dim else ())
    w2 = WeightPair(grid2, ctx.weights.w1,
                    ctx.weights.w1_atoms if grid2.p > grid2.dim else (),
                    ctx.weights.w2)
    return EnergyContext(grid2, mu2, w2)


def eigen_minimax(ctx: EnergyContext, m_max: int, *, seed: int = 0,
                  options: SolverOptions | None = None) -> SpectralResult:
    """Nondecreasing eigenvalues for m = 1..m_max with certification.

    p = 2 values come straight from the pencil and are exact at linear
    algebra accuracy.  For general p each level reports the best subspace
    upper bound found, with the eigenfield polished out of the inner
    argmax; levels are flagged infeasible when no subspace sphere fits in
    the feasible cone and unresolved when certification fails.
    """
    if not 1 <= m_max <= M_MAX_LIMIT:
        raise ValueError(f"m_max must be in 1..{M_MAX_LIMIT}")
    opts = options or SolverOptions()
    if ctx.p == 2.0:
        return _eigen_minimax_p2(ctx, m_max, opts)
    return _eigen_minimax_general(ctx, m_max, seed, opts)


def _eigen_minimax_p2(ctx: EnergyContext, m_max: int,
                      opts: SolverOptions) -> SpectralResult:
    lams, vecs, _ = _pencil_positive_eigs(ctx, m_max)
    out = SpectralResult([], [], [], [], [])
    for m in range(1, m_max + 1):
        if m <= len(lams):
            u = _normalize(ctx, vecs[m - 1])
            lam = float(lams[m - 1])
            res = residual(ctx, u, lam)
            ok = res <= opts.cert_tol * abs(lam) * u.norm_p() ** (ctx.p - 1)
            out.lambdas.append(lam)
            out.eigenfields.append(u)
            out.residuals.append(res)
            out.statuses.append(FINITE if ok else UNRESOLVED)
            out.subspace_bounds.append(lam)
        else:
            out.lambdas.append(math.inf)
            out.eigenfields.append(None)
            out.residuals.append(None)
            out.statuses.append(INFEASIBLE)
            out.subspace_bounds.append(math.inf)
    return out


def _orthonormal_rows(mat: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(mat.T)
    return q.T[:mat.shape[0]]


def _eigen_minimax_general(ctx: EnergyContext, m_max: int, seed: int,
                           opts: SolverOptions) -> SpectralResult:
    grid = ctx.grid
    rng = np.random.default_rng(seed)
    free = operators.free_node_mask(grid, ctx.mu)
    idx = np.flatnonzero(free)

    init_fields: list[Field] = []
    try:
        lams2, vecs2, _ = _pencil_positive_eigs(_p2_context(ctx), m_max)
        init_fields = [Field(grid, v.values) for v in vecs2]
    except Exception:
        init_fields = []
    if not init_fields:
        init_fields = [f for f in _probe_fields(ctx, rng)
                       if _feasible(ctx, f)][:m_max]

    out = SpectralResult([], [], [], [], [])
    infeasible_from = None
    for m in range(1, m_max + 1):
        if infeasible_from is not None:
            out.lambdas.append(math.inf)
            out.eigenfields.append(None)
            out.residuals.append(None)
            out.statuses.append(INFEASIBLE)
            out.subspace_bounds.append(math.inf)
            continue
        level = _minimax_level(ctx, m, idx, init_fields, rng, opts, seed)
        if level is None:
            infeasible_from = m
            out.lambdas.append(math.inf)
            out.eigenfields.append(None)
            out.residuals.append(None)
            out.statuses.append(INFEASIBLE)
            out.subspace_bounds.append(math.inf)
            continue
        bound, lam, u, res = level
        prev = out.lambdas[m - 2] if m >= 2 else -math.inf
        floor = prev - 1e-9 * max(abs(prev), 1.0)
        status = FINITE
        if res > opts.cert_tol * abs(lam) * u.norm_p() ** (ctx.p - 1):
            status = UNRESOLVED
        if lam < floor:
            # the polished pair slid below the previous level; keep the
            # ordering by reporting the subspace bound, uncertified
            lam = max(bound, prev)
            status = UNRESOLVED
        out.lambdas.append(float(max(lam, prev)))
        out.eigenfields.append(u)
        out.residuals.append(float(res))
        out.statuses.append(status)
        out.subspace_bounds.append(float(bound))
    return out


def _minimax_level(ctx, m, idx, init_fields, rng, opts, seed):
    """One m-level of the outer minimization; None when infeasible."""
    grid = ctx.grid

    def build_candidate(mat) -> SubspaceCandidate | None:
        mat = _orthonormal_rows(mat)
        try:
            return SubspaceCandidate(
                tuple(_embed(grid, idx, row[idx]) for row in mat))
        except ValueError:
            return None

    def initial_matrices():
        if len(init_fields) >= m:
            yield np.stack([f.flat for f in init_fields[:m]])
        base = [f.flat for f in init_fields[:m]]
        for _ in range(opts.max_restarts):
            rows = list(base)
            while len(rows) < m:
                v = np.zeros(grid.n_nodes)
                v[idx] = rng.standard_normal(idx.size)
                rows.append(v)
            if len(rows) > m:
                rows = rows[:m]
            yield np.stack(rows)
            base = []  # later restarts are fully random

    feasible_found = False
    best = None  # (value, candidate, xi)
    for mat in initial_matrices():
        cand = build_candidate(mat)
        if cand is None:
            continue
        try:
            val, xi = sup_on_sphere(ctx, cand, seed=seed + 101 * m,
                                    options=opts)
        except InfeasibleSubspace:
            continue
        feasible_found = True
        if best is None or val < best[0]:
            best = (val, cand, xi)
        break
    if not feasible_found:
        return None

    val, cand, xi = best
    for _ in range(opts.max_outer_iter):
        parts = _field_parts(ctx, cand.combine(xi))
        gradR = _node_gradient(ctx, parts.df - val * _on_all_rows(
            ctx, parts.dg1 - parts.dg2)).flat / (parts.g1 - parts.g2)
        mat = cand.matrix()
        scale = np.linalg.norm(gradR)
        if scale <= 1e-14:
            break
        step = 1.0 / scale
        improved = False
        for _ in range(6):
            new_mat = mat - step * np.outer(xi, gradR)
            cand_new = build_candidate(new_mat)
            if cand_new is not None:
                try:
                    val_new, xi_new = sup_on_sphere(
                        ctx, cand_new, seed=seed + 101 * m, options=opts,
                        _warm_xi=xi)
                except InfeasibleSubspace:
                    val_new = math.inf
                if val_new < val * (1.0 - 1e-12):
                    val, cand, xi = val_new, cand_new, xi_new
                    improved = True
                    break
            step *= 0.25
        if not improved:
            break
        if (best[0] - val) <= 1e-7 * max(abs(val), 1.0):
            best = (val, cand, xi)
            break
        if val < best[0]:
            best = (val, cand, xi)

    val, cand, xi = min(best, (val, cand, xi), key=lambda t: t[0])
    u_star = cand.combine(xi)
    lam, u, res = polish_eigenpair(ctx, u_star, options=opts)
    return val, lam, u, res
