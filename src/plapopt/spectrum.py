"""Variational eigenvalues through the finite-dimensional minimax reduction.

The m-th value is the infimum, over m-dimensional subspaces whose unit
sphere stays inside the feasible cone g1 - g2 > 0, of the supremum of the
Rayleigh ratio on that sphere.  Such a sphere has index exactly m, so each
value is an upper bound for the m-th inf-sup eigenvalue; for p = 2 the
reduction is exact and computed from the matrix pencil.  For general p the
inner supremum runs a multistart Riemannian trust-region ascent on the
unit coefficient sphere, all starts as one stack through the energy kernel
with exact m x m Hessians; the outer infimum descends on m orthonormal
rows of free-node values, each iteration starting from twice the last
accepted step.  With N free nodes no sphere of dimension m > N exists, so
those levels are infeasible at every p.
Reported eigenpairs are polished by a damped Newton iteration on the
eigen-equation and certified through their residual.  A general-p level
polishes its argmax after the first accepted outer step and ends there
when the pair certifies without leaving the level's bounds or falling
back onto a lower level's eigenfield; otherwise it descends on and is
polished again at the end.  Its reported subspace bound is the smaller
of the descent's and the supremum over the span of the polished fields
of levels 1..m.

All randomness derives from a caller seed, so repeated runs coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field
from plapopt.measure import CapacitaryMeasure, WeightPair
from plapopt.energy import (
    EnergyContext,
    ConstraintViolation,
    _field_parts,
    _kernel,
    _rayleigh,
    _residual,
    residual,
    dual_norm,
)
from plapopt import operators
from plapopt import hessians
from plapopt.operators import _embed

M_MAX_LIMIT = 6
DENSE_DOF_LIMIT = 1400
CERT_TOL = 1e-6
NEWTON_MAX_ITER = 60     # Newton steps of one eigenpair polish
MAX_RESTARTS = 3         # initial subspaces of a level, the seed included

FINITE = "finite"
INFEASIBLE = "infeasible"
UNRESOLVED = "unresolved"


class InfeasibleSubspace(Exception):
    """The candidate's sphere meets the cone boundary g1 - g2 <= 0."""


@dataclass(frozen=True)
class SubspaceCandidate:
    """Basis of an m-dimensional trial subspace; sup_on_sphere reads it
    on the free nodes.  The basis must be numerically independent.
    """

    basis: tuple[Field, ...]

    def __post_init__(self):
        basis = tuple(self.basis)
        if not 1 <= len(basis) <= M_MAX_LIMIT:
            raise ValueError(f"need 1..{M_MAX_LIMIT} basis fields")
        grid = basis[0].grid
        if any(b.grid != grid for b in basis):
            raise ValueError("basis fields on different grids")
        if not _independent(np.stack([b.flat for b in basis])):
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
    """Knobs of the general-p machinery (p = 2 ignores them).

    n_starts sets the cold starts of the inner supremum: e_1, ..., e_m
    and n_starts - 2m random unit vectors.  max_ascent_iter caps the
    trust-region trials of each start, accepted or not, so it bounds the
    kernel rounds of one inner search.  max_outer_iter caps the outer
    basis-descent iterations of a level; each makes up to 6 warm inner
    searches, from twice the last accepted step down by factors of 4.  It
    is a cap, not a count: a level whose argmax, polished after the first
    accepted step, certifies ends there.
    """

    n_starts: int = 32
    max_ascent_iter: int = 120
    max_outer_iter: int = 25


# ----------------------------------------------------------------------
# exact p = 2 path

def _pencil_positive_eigs(ctx: EnergyContext, m_max: int,
                          dense_limit: int = 0):
    """Positive pencil directions: lambda_m = 1 / beta_m with beta the
    m-th largest positive eigenvalue of B u = beta A u on free nodes.
    A and B come from the cached p = 2 pattern.  One Lanczos call solves
    the pencil on a banded Cholesky factor of A; dense eigh takes it only
    with at most max(m_max, dense_limit) free nodes, where ARPACK cannot
    return m_max pairs or where the caller needs LAPACK's basis.
    Returns (lambdas, rows, idx, complete): rows[j] holds the values of
    the j-th direction on the free nodes idx, scaled to u^T A u = 1, and
    complete is False when the Lanczos iteration left requested pairs
    unconverged (the converged ones are kept), so missing levels are
    unknown rather than absent."""
    grid = ctx.grid
    n = np.count_nonzero(operators.free_node_mask(grid, ctx.mu))
    dense = n <= max(m_max, dense_limit)
    if dense:
        A, B, idx = operators.p2_matrices(grid, ctx.mu, ctx.weights)
        b = B.diagonal()
    else:
        band, b, idx = operators.p2_band(grid, ctx.mu, ctx.weights)
    # B is diagonal (anchor quadrature), so without a positive entry it is
    # negative semidefinite and the pencil has no positive direction
    if n == 0 or not np.any(b > 0):
        return [], [], idx, True
    complete = True
    if dense:
        beta, U = sla.eigh(B.toarray(), A.toarray())    # U^T A U = I
    else:
        beta, U, complete = _banded_pencil(band, b, min(m_max, n - 1))
    order = np.argsort(-beta)
    lams, rows = [], []
    for j in order[:max(m_max, 0)]:
        if beta[j] <= 1e-13 * max(abs(beta[order[0]]), 1e-300):
            break
        lams.append(1.0 / beta[j])
        rows.append(U[:, j])
    return lams, rows, idx, complete


def _banded_pencil(band: np.ndarray, b: np.ndarray, k: int):
    """The k largest beta of diag(b) u = beta A u, A SPD given by its upper
    band: with A = R^T R they are the eigenvalues of the symmetric
    R^-T diag(b) R^-1, for every sign of b, so one standard-mode Lanczos
    call finds them, each step two banded triangular solves.  Returns
    (beta, U, complete) with U = R^-1 Y, so U^T A U = I; complete is False
    when ARPACK stopped early and only its converged pairs are returned.
    The factor overwrites band.  The fixed v0 keeps reruns identical."""
    R = sla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    tbtrs = sla.lapack.dtbtrs
    n = b.size
    C = spla.LinearOperator(
        (n, n), dtype=float,
        matvec=lambda y: tbtrs(R, b * tbtrs(R, np.ravel(y))[0],
                               trans="T")[0])
    try:
        beta, Y = spla.eigsh(C, k=k, which="LA", tol=0,
                             v0=np.full(n, 1.0 / math.sqrt(n)))
        complete = True
    except spla.ArpackNoConvergence as err:
        beta, Y, complete = err.eigenvalues, err.eigenvectors, False
    # LAPACK's tbtrs takes no empty right-hand side
    return beta, (tbtrs(R, Y)[0] if beta.size else Y), complete


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
    """Rows e_1, ..., e_m, then n_starts - 2m random unit vectors.

    The search from -e_j would mirror the one from e_j bit for bit (f, g1
    and g2 are even), so the mirrors are left out; the random rows are
    the ones drawn when they were counted.
    """
    extra = rng.standard_normal((max(n_starts - 2 * m, 0), m))
    return np.concatenate([np.eye(m), _sphere_project(extra)])


def _push(M, x):
    """M x, row by row for a stack x: the BLAS call of one vector."""
    return M @ x if x.ndim == 1 else np.matmul(M, x[:, :, None])[:, :, 0]


def _pull(v, M):
    """v M, row by row for a stack v."""
    return v @ M if v.ndim == 1 else np.matmul(v[:, None, :], M)[:, 0, :]


class _SubspaceEval:
    """f, g1, g2 and the Rayleigh ratio as functions of coordinates x.

    The free-node values are M x for a fixed linear map M: the transpose
    of m rows of free-node values (x are coefficients) or the identity,
    given as KM = K_F M.  The energy kernel runs on (K M) x and the
    gradients map back through (K M)^T, so every evaluation is one small
    matrix product each way.  x may be one vector or a stack (S, m).
    """

    def __init__(self, ctx: EnergyContext, KM):
        self.ctx = ctx
        self.KM = KM
        self.KM_meas = KM[ctx._rows.n_grad:]
        self.m = KM.shape[1]

    def parts(self, x):
        return _kernel(self.ctx, _push(self.KM, x))

    def _denom_hessian(self, curv):
        """Coefficient Hessians (S, m, m) of g1 - g2 from a pass's curv."""
        rows, dim = self.ctx._rows, self.ctx.grid.dim
        diag = operators.hessian_diagonal(dim, None, rows.g1 - rows.g2,
                                          curv.hmeas, self.ctx.p)
        return np.matmul(self.KM_meas.T * diag[:, None, :], self.KM_meas)

    def _second_order(self, X):
        """Kernel parts at the rows of X with the coefficient Hessians
        (KM)^T W (KM) of f and of g1 - g2, shape (S, m, m) each, built
        from the Hessian weights of the same kernel pass."""
        ctx, KM = self.ctx, self.KM
        rows, dim, p = ctx._rows, ctx.grid.dim, ctx.p
        y = _push(KM, X)
        parts, curv = _kernel(ctx, y, hess=True)
        diag = operators.hessian_diagonal(dim, curv.hcell, rows.f,
                                          curv.hmeas, p)
        Hf = np.matmul(KM.T * diag[:, None, :], KM)
        # the g g^T part of the cell blocks: Z = sum over axes a of g_a K_a M
        grads = y[:, :rows.n_grad].reshape(len(X), dim, -1, 1)
        Z = (grads * KM[:rows.n_grad].reshape(dim, -1, self.m)).sum(axis=1)
        Hf += np.matmul(Z.transpose(0, 2, 1) * curv.hout[:, None, :], Z)
        return parts, Hf, self._denom_hessian(curv)

    def denom_stack(self, X):
        """Values (S,), gradients (S, m) and Hessians (S, m, m) of g1 - g2
        at the rows of X."""
        parts, curv = _kernel(self.ctx, _push(self.KM, X), hess=True)
        grad = _pull(parts.dg1 - parts.dg2, self.KM_meas)
        return parts.g1 - parts.g2, grad, self._denom_hessian(curv)

    def _ratio_gradient(self, parts, val, denom):
        return (_pull(parts.df, self.KM)
                - val * _pull(parts.dg1 - parts.dg2, self.KM_meas)) / denom

    def ratio_stack(self, X):
        """Values (S,), gradients (S, m) and Hessians (S, m, m) of the
        ratio at the rows of X; off the cone the value is inf and the
        derivatives meaningless."""
        parts, Hf, Hd = self._second_order(X)
        denom = parts.g1 - parts.g2
        on = denom > self.ctx.feasibility_tol(parts.g1)
        denom = np.where(on, denom, 1.0)
        val = parts.f / denom
        grad = self._ratio_gradient(parts, val[:, None], denom[:, None])
        # (f/D)'' = (f'' - R D'' - D' R'^T - R' D'^T) / D
        cross = (_pull(parts.dg1 - parts.dg2, self.KM_meas)[:, :, None]
                 * grad[:, None, :])
        H = (Hf - val[:, None, None] * Hd - cross - cross.transpose(0, 2, 1))
        return np.where(on, val, np.inf), grad, H / denom[:, None, None]

    def neg_ratio_stack(self, X):
        """Minus the ratio, +inf off the cone, with its gradients and
        Hessians: the function whose descent is the inner ascent."""
        val, grad, hess = self.ratio_stack(X)
        return np.where(np.isfinite(val), -val, np.inf), -grad, -hess


def _trust_step(X, G, H, tang, radius):
    """Exact trust-region steps on the unit sphere, one per row.

    The model of a row x is g.s + s.B s / 2 on the tangent space, with g
    the tangential gradient and B = P H P - (x.G) P the Riemannian
    Hessian of the projective retraction (P = I - x x^T).  Its exact
    minimizer on |s| <= radius comes from eigh of B + alpha x x^T, which
    keeps the normal direction out of the way (alpha exceeds |B|): the
    Newton step when B is positive definite and the step fits, else the
    boundary step (B + sigma I) s = -g with sigma found by Newton on the
    secular equation 1/|s(sigma)| = 1/radius, plus a negative-curvature
    part in the hard case.  Returns the steps and the model decreases.
    """
    xx = X[:, :, None] * X[:, None, :]
    P = np.eye(X.shape[1]) - xx
    B = P @ H @ P - np.vecdot(G, X)[:, None, None] * P
    alpha = 1.0 + np.sqrt((B * B).sum(axis=(1, 2)))
    lam, V = np.linalg.eigh(B + alpha[:, None, None] * xx)
    gam = np.matmul(tang[:, None, :], V)[:, 0, :]     # g in the eigenbasis
    low = lam[:, 0]
    sigma = np.maximum(-low, 0.0) + 1e-12 * alpha
    c = -gam / (lam + sigma[:, None])
    norm = np.sqrt(np.vecdot(c, c))
    newton = (low > 0.0) & (norm <= radius)
    # hard case: the shifted step falls short of the radius
    hard = ~newton & (norm < radius)
    # boundary rows: Newton on 1/|s| from the left of the root
    todo = ~newton & ~hard
    for _ in range(30):
        if not todo.any():
            break
        d = lam[todo] + sigma[todo, None]
        ct = c[todo]
        sigma[todo] += ((norm[todo] / radius[todo] - 1.0) * norm[todo] ** 2
                        / np.vecdot(ct, ct / d))
        c[todo] = -gam[todo] / (lam[todo] + sigma[todo, None])
        norm[todo] = np.sqrt(np.vecdot(c[todo], c[todo]))
        todo &= norm > 1.05 * radius
    # in the hard case, fill the radius along the lowest-curvature
    # direction, downhill by the sign of its slope
    if hard.any():
        c[hard, 0] = 0.0
        rest = np.sqrt(np.maximum(
            radius[hard] ** 2 - np.vecdot(c[hard], c[hard]), 0.0))
        c[hard, 0] = np.copysign(rest, -gam[hard, 0])
    decrease = -(np.vecdot(gam, c) + 0.5 * np.vecdot(lam * c, c))
    return np.matmul(V, c[:, :, None])[:, :, 0], decrease


def _sphere_descent(fun, X: np.ndarray, max_iter: int, tol: float,
                    floor: float = -math.inf):
    """Riemannian trust-region descent on the unit sphere from every row
    of X at once.

    fun maps a stack (S, m) to values (S,), +inf off its domain,
    gradients (S, m) and Hessians (S, m, m).  Each row takes the exact
    trust-region step of _trust_step from radius 0.5 on and keeps it when
    the decrease is at least a tenth of the model's (up to rounding of
    the value); the radius quarters when the model fits badly and
    doubles, up to 1, when it fits well at the boundary.  After a
    rejected step, or where the model is not finite, a row takes the
    first-order step instead: the normalized tangential gradient scaled
    to the radius.  A row stops after max_iter trials, at tangential
    gradient <= tol * max(1, |value|) or at radius <= 1e-14; all stop
    once a value is below floor.  A round evaluates fun once on the
    moving rows with the arithmetic of a single start.  Returns the final
    values and points.
    """
    X = _sphere_project(X)
    val, G, H = fun(X)
    radius = np.full(len(val), 0.5)
    iters = np.zeros(len(val), dtype=int)
    moving = np.isfinite(val)
    rejected = np.zeros(len(val), dtype=bool)
    while not (val < floor).any():
        tang = G - np.vecdot(G, X)[:, None] * X
        tn = np.sqrt(np.vecdot(tang, tang))
        moving &= ((iters < max_iter) & (radius > 1e-14)
                   & (tn > tol * np.maximum(1.0, np.abs(val))))
        a = moving.nonzero()[0]
        if a.size == 0:
            break
        iters[a] += 1
        Ha = H[a]
        model = np.isfinite(Ha).all(axis=(1, 2))
        Ha[~model] = 0.0
        step, decrease = _trust_step(X[a], G[a], Ha, tang[a], radius[a])
        first = rejected[a] | ~model | ~(decrease > 0.0)
        step[first] = -(radius[a, None] * tang[a] / tn[a, None])[first]
        decrease[first] = (radius[a] * tn[a])[first]
        X_new = _sphere_project(X[a] + step)
        val_new, G_new, H_new = fun(X_new)
        slack = 1e3 * np.finfo(float).eps * np.maximum(1.0, np.abs(val[a]))
        rho = (val[a] - val_new + slack) / (decrease + slack)
        length = np.sqrt(np.vecdot(step, step))
        good = np.isfinite(val_new) & (rho > 0.75) & (length > 0.99 * radius[a])
        radius[a] = np.where(rho < 0.25, 0.25 * length,
                             np.where(good, np.minimum(2.0 * radius[a], 1.0),
                                      radius[a]))
        keep = np.isfinite(val_new) & (rho > 0.1)
        rejected[a] = ~keep
        acc = a[keep]
        X[acc], val[acc] = X_new[keep], val_new[keep]
        G[acc], H[acc] = G_new[keep], H_new[keep]
    return val, X


def _sphere_min_denominator(ev: _SubspaceEval, starts) -> float:
    """Approximate min of g1 - g2 over the unit coefficient sphere."""
    val, _ = _sphere_descent(ev.denom_stack, starts, 80, 1e-14, floor=0.0)
    return float(val.min())


def _sphere_g1_floor(ev: _SubspaceEval) -> float:
    """A proven lower bound of g1 - g2 on the unit sphere if nu2 = 0, else 0.

    Then g1 - g2 = g1 = |A xi|_p^p / p, A = C^(1/p) (K M)_meas on the r
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
    val, X = _sphere_descent(ev.neg_ratio_stack, starts,
                             opts.max_ascent_iter, 1e-11)
    best = int(np.argmin(val))
    if not math.isfinite(val[best]):
        raise InfeasibleSubspace("no feasible start on the sphere")
    return float(-val[best]), X[best]


def sup_on_sphere(ctx: EnergyContext,
                  candidate: SubspaceCandidate | np.ndarray, *, seed: int = 0,
                  options: SolverOptions | None = None,
                  _warm_xi: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray]:
    """Supremum of the Rayleigh ratio over the candidate's unit sphere.

    The candidate may also be m rows of values on the N free nodes of
    ctx, an (m, N) array; a SubspaceCandidate nonzero off them gives
    (inf, e_1), the ratio being +inf there.  Returns (value, argmax
    coefficients).  Raises InfeasibleSubspace when the sphere is not
    strictly inside the cone g1 - g2 > 0; for p = 2 the value is the
    largest eigenvalue of the restricted m x m pencil.

    For general p and m >= 2, a trust-region ascent runs from all starts
    (e_j and random unit vectors; a warm call uses the given point and the
    e_j) as one stack through the energy kernel, each with its own radius
    and stop.  Feasibility needs min(g1 - g2) above 1e-10 of the g-scale:
    with nu2 = 0 a singular-value bound of g1 may prove it, else the same
    stacked search descends g1 - g2.
    """
    opts = options or SolverOptions()
    rows = candidate
    if isinstance(candidate, SubspaceCandidate):
        if candidate.grid != ctx.grid:
            raise ValueError("candidate grid mismatch")
        V = candidate.matrix()
        rows = V[:, ctx._free.idx]
        if np.count_nonzero(rows) < np.count_nonzero(V):
            return math.inf, np.eye(len(V))[0]
    m = len(rows)
    ev = _SubspaceEval(ctx, ctx._free.K @ rows.T)

    if ctx.p == 2.0:
        return _sup_on_sphere_p2(ev)

    if m == 1:
        val = ev.ratio_stack(np.ones((1, 1)))[0][0]
        if not math.isfinite(val):
            raise InfeasibleSubspace("single ray outside the feasible cone")
        return val, np.array([1.0])

    starts = _starts(m, opts.n_starts, np.random.default_rng(seed))
    threshold = 1e-10 * _sphere_denominator_scale(ev)
    if _sphere_g1_floor(ev) <= threshold:
        feas_starts = starts if _warm_xi is None else starts[:m + 4]
        min_denom = _sphere_min_denominator(ev, feas_starts)
        if min_denom <= threshold:
            raise InfeasibleSubspace(
                f"sphere reaches g1 - g2 = {min_denom:.3e}")
    if _warm_xi is not None:
        starts = np.vstack([_warm_xi, starts[:m]])
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

def _certified(ctx: EnergyContext, u: Field, lam: float, res: float) -> bool:
    """The certification rule: res <= CERT_TOL * |lambda| * ||u||^(p-1).
    A NaN residual fails it."""
    return res <= CERT_TOL * abs(lam) * u.norm_p() ** (ctx.p - 1.0)


def certify(ctx: EnergyContext, u: Field, lam: float) -> bool:
    """True iff the residual of (lam, u) passes the certification rule."""
    try:
        res = residual(ctx, u, lam)
    except ConstraintViolation:
        return False
    return _certified(ctx, u, lam, res)


def polish_eigenpair(ctx: EnergyContext, x: np.ndarray
                     ) -> tuple[float, Field, float]:
    """Damped Newton on (f'(u) - lambda (g1'-g2')(u), g1-g2-1) = 0 over the
    values x of u on the N free nodes of ctx, a vector (N,), from x scaled
    to g1 - g2 = 1 and lambda the ratio there.  A step reads residual and
    Hessian from the kernel pass that accepted its point, through ctx's
    free-node term list.  Returns (lambda, field, residual) by rayleigh and
    residual from one pass; the input only needs to be feasible.
    """
    rows, free = ctx._rows, ctx._free

    def at(x, lam=None):
        """Eigen-equation residual on the free nodes, lambda (None: the
        ratio at x), g1 - g2, g1, grad (g1 - g2) and W() from one pass."""
        y = free.K @ x
        parts, curv = _kernel(ctx, y, hess=True)
        denom = parts.g1 - parts.g2
        lam = parts.f / denom if lam is None else lam
        gdiff = free.KT_meas @ (parts.dg1 - parts.dg2)
        return (free.KT @ parts.df - lam * gdiff, lam, denom, parts.g1,
                gdiff, lambda: hessians.weights(
                    ctx, y, curv, rows.f - lam * (rows.g1 - rows.g2)))

    parts = _kernel(ctx, free.K @ x)
    if parts.g1 - parts.g2 <= 0:
        raise ConstraintViolation("cannot normalize an infeasible field")
    x = x / (parts.g1 - parts.g2) ** (1.0 / ctx.p)
    point = at(x)
    best = (x, dual_norm(ctx, point[0]), point[2])
    for _ in range(NEWTON_MAX_ITER):
        r, lam, denom, _, gdiff, weights = point
        J = free.terms.bordered(weights(), gdiff, free.csc_order)
        rhs = -np.concatenate([r, [denom - 1.0]])
        # an exactly singular J gives NaN (and a MatrixRankWarning)
        delta = spla.spsolve(J, rhs)
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        res0 = np.linalg.norm(rhs)
        accepted = False
        for _ in range(30):
            x_new = x + step * delta[:-1]
            trial = at(x_new, lam + step * delta[-1])
            r_new, lam_new, denom, g1, _, _ = trial
            if denom > ctx.feasibility_tol(g1):
                rn = np.concatenate([r_new, [denom - 1.0]])
                if np.linalg.norm(rn) < res0 * (1.0 - 1e-4 * step):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        x, point = x_new, trial
        resn = dual_norm(ctx, r_new)
        if resn < best[1]:
            best = (x, resn, denom)
        if resn <= 1e-14 * max(abs(lam_new), 1.0):
            break
    x, _, denom = best
    field = _embed(ctx.grid, free.idx, x / denom ** (1.0 / ctx.p))
    parts = _field_parts(ctx, field)
    lam = _rayleigh(ctx, field, parts)
    return float(lam), field, float(_residual(ctx, parts, lam))


# ----------------------------------------------------------------------
# the minimax sweep; the first eigenvalue is its level 1

def _probe_rows(ev: _SubspaceEval, idx: np.ndarray,
                rng: np.random.Generator) -> list[np.ndarray]:
    """Heuristic feasibility probes on the free nodes idx, those inside
    the cone: the support of nu1's density, its atoms and 12 noise rows."""
    ctx = ev.ctx
    support = operators.anchor_op(ctx.grid).T @ ctx.weights.w1.reshape(-1)
    P = np.vstack([support[idx],
                   *[idx == node for node, _ in ctx.weights.w1_atoms],
                   rng.standard_normal((12, idx.size))])
    parts = _kernel(ctx, (ev.KM @ P.T).T)
    return list(P[parts.g1 - parts.g2 > ctx.feasibility_tol(parts.g1)])


def _p2_context(ctx: EnergyContext) -> EnergyContext | None:
    """The same problem at p = 2, or None when its nu1 vanishes: atoms need
    p > dim, so a 2D nu1 made only of atoms has no p = 2 counterpart."""
    grid2 = GridSpec(ctx.grid.dim, ctx.grid.n, ctx.grid.lengths, 2.0)
    w2 = WeightPair(grid2, ctx.weights.w1,
                    ctx.weights.w1_atoms if grid2.p > grid2.dim else (),
                    ctx.weights.w2)
    if w2.trivial_nu1:
        return None
    mu2 = CapacitaryMeasure(grid2, ctx.mu.density, ctx.mu.blocked,
                            ctx.mu.atoms if grid2.p > grid2.dim else ())
    return EnergyContext(grid2, mu2, w2)


def eigen_minimax(ctx: EnergyContext, m_max: int, *, seed: int = 0,
                  options: SolverOptions | None = None) -> SpectralResult:
    """Nondecreasing eigenvalues for m = 1..m_max with certification.

    p = 2 values come straight from the pencil and are exact at linear
    algebra accuracy; levels the pencil's Lanczos iteration left
    unconverged are unresolved.  For general p each level reports the best
    subspace upper bound found (the smaller of the outer descent's and the
    supremum over the span of the polished fields u_1..u_m), with the
    eigenfield polished out of the inner argmax; levels are flagged
    infeasible when no subspace sphere fits in the feasible cone and
    unresolved when certification fails.
    """
    if not 1 <= m_max <= M_MAX_LIMIT:
        raise ValueError(f"m_max must be in 1..{M_MAX_LIMIT}")
    if ctx.p == 2.0:
        return _eigen_minimax_p2(ctx, m_max)
    return _eigen_minimax_general(ctx, m_max, seed,
                                  options or SolverOptions())


def eigen_first(ctx: EnergyContext, *, seed: int = 0,
                options: SolverOptions | None = None
                ) -> tuple[float, Field, float]:
    """Smallest eigenvalue: level 1 of eigen_minimax, same seed and options.

    Returns (lambda1, eigenfield, residual); the field is normalized to
    g1 - g2 = 1.  Raises InfeasibleSubspace when no feasible field is
    found (the case of an everywhere-degenerate right-hand side), and
    RuntimeError when the p = 2 pencil's Lanczos iteration left the
    level unconverged.
    """
    result = eigen_minimax(ctx, 1, seed=seed, options=options)
    if result.eigenfields[0] is None:
        if result.statuses[0] == INFEASIBLE:
            raise InfeasibleSubspace("no feasible field")
        raise RuntimeError("pencil not converged")
    return result.lambdas[0], result.eigenfields[0], result.residuals[0]


def _spectral_result(levels: list[tuple], m_max: int,
                     missing: str) -> SpectralResult:
    """The result of (lambda, field, residual, status, bound) level
    records, filled up to m_max with levels of value inf and status
    missing."""
    levels = levels + [(math.inf, None, None, missing, math.inf)] * (
        m_max - len(levels))
    return SpectralResult(*(list(column) for column in zip(*levels)))


def _positive_peak(u: Field) -> Field:
    """u or -u, whichever has its first entry of largest magnitude
    positive: the eigensolver's sign is arbitrary.  0.0 - x, not -x,
    so that the nodes where u vanishes keep +0.0."""
    flat = u.flat
    if flat[np.argmax(np.abs(flat))] > 0:
        return u
    return Field(u.grid, 0.0 - u.values)


def _eigen_minimax_p2(ctx: EnergyContext, m_max: int) -> SpectralResult:
    lams, rows, idx, complete = _pencil_positive_eigs(ctx, m_max)
    levels = []
    for lam, row in zip(lams, rows):
        # f, g1 and g2 are even, so the flip moves no lambda or residual
        u = _positive_peak(_normalize(ctx, _embed(ctx.grid, idx, row)))
        lam = float(lam)
        res = residual(ctx, u, lam)
        status = FINITE if _certified(ctx, u, lam, res) else UNRESOLVED
        levels.append((lam, u, res, status, lam))
    return _spectral_result(levels, m_max,
                            INFEASIBLE if complete else UNRESOLVED)


def _eigen_minimax_general(ctx: EnergyContext, m_max: int, seed: int,
                           opts: SolverOptions) -> SpectralResult:
    """Levels m = 1..min(m_max, N) of the outer minimization, N the number
    of free nodes.  Every level works on rows of free-node values, seeded
    by the eigenvectors of the p = 2 pencil or, without a p = 2
    counterpart, by the probes.  With N free nodes no m-dimensional
    subspace exists for m > N, so those levels are infeasible, like every
    level above an infeasible one."""
    rng = np.random.default_rng(seed)
    idx = ctx._free.idx
    ev = _SubspaceEval(ctx, ctx._free.K)

    ctx2 = _p2_context(ctx)
    # ctx2 blocks the same cells, so its free nodes are idx too
    # LAPACK, not ARPACK, below DENSE_DOF_LIMIT: the two return different
    # bases of a degenerate cluster (lambda2 = lambda3 on the square), and
    # the levels seeded from that basis move with it
    seeds = [] if ctx2 is None else _pencil_positive_eigs(
        ctx2, m_max, dense_limit=DENSE_DOF_LIMIT)[1]
    if not seeds:
        seeds = _probe_rows(ev, idx, rng)

    levels = []
    for m in range(1, min(m_max, idx.size) + 1):
        prev = levels[-1][0] if levels else -math.inf
        lower = [lev[1].flat[idx] for lev in levels]
        level = _minimax_level(ev, idx, m, seeds, rng, opts, seed, prev,
                               lower)
        if level is None:
            break
        bound, lam, u, res = level
        # the span holds u, so its supremum is at least lam = R(u); the max
        # drops the round-off between the two ways of evaluating R
        span = _span_bound(ctx, np.array([*lower, u.flat[idx]]),
                           seed + 101 * m, opts)
        bound = min(bound, max(span, lam))
        status = FINITE if _certified(ctx, u, lam, res) else UNRESOLVED
        if _slides_below(lam, prev):
            # the polished pair slid below the previous level; keep the
            # ordering by reporting the subspace bound, uncertified
            lam, status = max(bound, prev), UNRESOLVED
        # f, g1 and g2 are even, so the flip moves no lambda or residual
        levels.append((float(max(lam, prev)), _positive_peak(u), float(res),
                       status, float(bound)))
    return _spectral_result(levels, m_max, INFEASIBLE)


def _slides_below(lam: float, prev: float) -> bool:
    """True when lam lies below the previous level prev beyond round-off."""
    return lam < prev - 1e-9 * max(abs(prev), 1.0)


def _independent(rows: np.ndarray) -> bool:
    """True when the smallest singular value of rows is at least 1e-8
    times the largest."""
    svals = np.linalg.svd(rows, compute_uv=False)
    return not svals[-1] < 1e-8 * svals[0]


def _span_bound(ctx: EnergyContext, rows: np.ndarray, seed: int,
                opts: SolverOptions) -> float:
    """Supremum of the ratio over the span of the free-node rows of the
    polished fields u_1..u_m, an upper bound of level m; inf when that
    span is numerically dependent or leaves the cone.  The search is cold:
    a warm start from u_m stops at the critical value of u_m, below it."""
    if not _independent(rows):
        return math.inf
    try:
        return sup_on_sphere(ctx, rows, seed=seed, options=opts)[0]
    except InfeasibleSubspace:
        return math.inf


def _minimax_level(ev: _SubspaceEval, idx: np.ndarray, m: int, seeds,
                   rng: np.random.Generator, opts: SolverOptions, seed: int,
                   prev: float, lower: list[np.ndarray]):
    """Level m <= idx.size of the outer minimization; None when infeasible.

    The trial subspace is V, m orthonormal rows of values on the free
    nodes idx.  The first of MAX_RESTARTS initial ones whose sphere fits
    in the cone starts the descent: the seed rows filled up with random
    rows, then fully random rows.  Each outer step moves V along the
    gradient of the ratio at the argmax xi V.  After the first accepted
    step the argmax is polished, and the level ends there when the pair
    certifies, lies at or below the descent bound, does not slide below
    the previous level prev and is independent of the free-node rows
    lower of the polished fields of levels 1..m-1 (a polish that falls
    back onto a lower level's eigenfield does not end the level).
    Otherwise the descent runs to max_outer_iter or a stall, and the last
    V is polished once more, so a level makes at most two polishes.
    Returns (descent bound, lambda, field, residual).
    """
    ctx = ev.ctx

    def orthonormal(mat):
        return np.linalg.qr(mat.T)[0].T

    def sup(V, warm_xi=None):
        return sup_on_sphere(ctx, V, seed=seed + 101 * m, options=opts,
                             _warm_xi=warm_xi)

    def initial_subspaces():
        base = seeds[:m]
        for _ in range(MAX_RESTARTS):
            yield orthonormal(np.vstack(
                [*base, rng.standard_normal((m - len(base), idx.size))]))
            base = []

    for V in initial_subspaces():
        try:
            val, xi = sup(V)
        except InfeasibleSubspace:
            continue
        break
    else:
        return None

    accepted_step = None
    polished = None     # the pair polished at the current V, if any
    for _ in range(opts.max_outer_iter):
        parts = ev.parts(xi @ V)
        gradR = ev._ratio_gradient(parts, val, parts.g1 - parts.g2)
        scale = np.linalg.norm(gradR)
        if scale <= 1e-14:
            break
        # the first trial doubles the last accepted step, so it is usually
        # the one kept
        step = 1.0 / scale if accepted_step is None else 2.0 * accepted_step
        for _ in range(6):
            V_new = orthonormal(V - step * np.outer(xi, gradR))
            try:
                val_new, xi_new = sup(V_new, xi)
            except InfeasibleSubspace:
                val_new = math.inf
            if val_new < val * (1.0 - 1e-12):
                break
            step *= 0.25
        else:
            break           # no trial lowered the supremum
        last, val, V, xi = val, val_new, V_new, xi_new
        polished = None
        if accepted_step is None:       # the first accepted step
            polished = lam, u, res = polish_eigenpair(ctx, xi @ V)
            if (_certified(ctx, u, lam, res) and lam <= val
                    and not _slides_below(lam, prev)
                    and _independent(np.array([*lower, u.flat[idx]]))):
                return val, lam, u, res
        accepted_step = step
        if last - val <= 1e-7 * max(abs(val), 1.0):
            break

    lam, u, res = polished or polish_eigenpair(ctx, xi @ V)
    return val, lam, u, res
