"""Outer optimizers: potentials under a Psi-budget, sets under a volume
constraint.

Both steer by one eigenfield density (_density), the objective's
weighted sum of |u_m|^p over its active eigenfields.  Potentials run
projected descent: the derivative of an eigenvalue with respect to the
cell density is the eigenfield mass |u|^p / p there, the step is
re-projected exactly onto the budget surface by a scalar shift, and worse
candidates are rejected so the accepted objective never increases.  Sets
run iterative thresholding on the density with a soft-wall continuation
before the final hard-blocked solves; the cell count of the set is pinned
exactly throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from plapopt.grid import GridSpec, anchor_values
from plapopt.measure import (
    WeightPair,
    PsiSpec,
    from_potential,
    psi_volume,
)
from plapopt.energy import EnergyContext
from plapopt.spectrum import (
    SpectralResult,
    SolverOptions,
    eigen_minimax,
    FINITE,
    M_MAX_LIMIT,
)

MAX_OUTER_ITER = 200
# optimize_set's defaults, read by the CLI too
N_STARTS = 3
SOFT_WALLS = (1e2, 1e4)
MAX_THRESH_ITER = 30
MAX_NON_IMPROVING = 10


class InfeasibleConstraint(Exception):
    """Constraint parameters admit no candidate."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """F(lambda_1..lambda_k): one eigenvalue, a weighted sum, or a max.

    Weights are nonnegative, which keeps F nondecreasing in each variable.
    """

    kind: str
    k: int = 1
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("single", "weighted_sum", "max_of"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "weighted_sum":
            w = tuple(float(x) for x in self.weights)
            if not w:
                raise ValueError("weighted_sum needs weights")
            if any(x < 0 for x in w):
                raise ValueError("weights must be >= 0")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "k", len(w))
        if not 1 <= self.k <= M_MAX_LIMIT:
            raise ValueError(f"objective index k must be in 1..{M_MAX_LIMIT}")

    def active_indices(self, lambdas) -> list[int]:
        """1-based eigenvalue indices steering the descent direction."""
        if self.kind == "single":
            return [self.k]
        if self.kind == "weighted_sum":
            return [m for m, w in enumerate(self.weights, start=1) if w > 0]
        vals = lambdas[:self.k]
        top = max(vals)
        for m, v in enumerate(vals, start=1):  # ties go to the lowest index
            if v >= top - 1e-12 * max(abs(top), 1.0):
                return [m]
        return [self.k]


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str
    c: float
    psi: PsiSpec | None = None

    def __post_init__(self):
        if self.kind not in ("volume", "psi_budget"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not self.c > 0:
            raise ValueError("constraint level c must be > 0")
        if self.kind == "psi_budget" and self.psi is None:
            raise ValueError("psi_budget needs a PsiSpec")

    def validate_for(self, grid: GridSpec):
        if self.kind == "volume":
            if self.c > grid.box_volume * (1 + 1e-12):
                raise InfeasibleConstraint("volume c exceeds the box")
        else:
            cap = self.psi.at_zero * grid.box_volume
            if self.c > cap * (1 + 1e-12):
                raise InfeasibleConstraint(
                    "budget c exceeds Psi(0) * |box|")


def objective_eval(objective: ObjectiveSpec, lambdas) -> float:
    """Evaluate F on a lambda list; any needed +inf entry gives +inf."""
    lambdas = list(lambdas)
    if len(lambdas) < objective.k:
        raise ValueError("not enough eigenvalues for the objective")
    if objective.kind == "single":
        return float(lambdas[objective.k - 1])
    vals = lambdas[:objective.k]
    if any(math.isinf(v) for v in vals):
        return math.inf
    if objective.kind == "weighted_sum":
        return float(sum(w * v for w, v in zip(objective.weights, vals)))
    return float(max(vals))


@dataclass
class HistoryRow:
    iteration: int
    objective: float
    constraint: float
    accepted: bool


@dataclass
class OptimizeResult:
    potential: np.ndarray | None
    mask: np.ndarray | None
    spectrum: SpectralResult
    history: list[HistoryRow]
    objective: float
    constraint_value: float
    converged: bool
    saturation_shift: float = 0.0


def project_psi_budget(V, c: float, psi: PsiSpec,
                       grid: GridSpec) -> np.ndarray:
    """Rescale a potential onto the budget surface int Psi(V) = c.

    Applies Psi^{-1}(clip(Psi(V) + t)) with the scalar t that solves
    budget(t) = c exactly: the budget is continuous, nondecreasing and
    linear between its kinks 1e-300 - Psi(V_i) and Psi(0) - Psi(V_i), so
    a binary search over the sorted kinks brackets c and t interpolates
    linearly between the two.
    """
    V = np.asarray(V, dtype=float)
    if np.any(V < 0):
        raise ValueError("potential must be >= 0")
    vol = grid.cell_volume
    psi_vals = psi.value(V)
    lo_val = psi.at_zero

    def budget(t: float) -> float:
        shifted = np.clip(psi_vals + t, 1e-300, lo_val)
        return vol * float(shifted.sum())

    # past every kink the budget is flat (exp) or reaches c by t = c / vol
    # (power, Psi(0) = inf: no upper kinks, and every cell adds vol * t)
    flat = psi_vals.ravel()
    kinks = [1e-300 - flat, [c / vol]]
    if math.isfinite(lo_val):
        kinks.append(lo_val - flat)
    points = np.sort(np.concatenate(kinks))
    points = points[np.isfinite(points)]
    j = bisect.bisect_left(points, c, key=budget)
    if j == 0:  # c at or below the floor, or a power-family cell at V = 0
        raise InfeasibleConstraint("budget level not attainable")
    if j == len(points):
        # c above vol * n * Psi(0) (exp family), which can round below the
        # cap |box| Psi(0) that validate_for admits; V = 0 meets that cap
        ConstraintSpec("psi_budget", c, psi).validate_for(grid)
        return np.zeros_like(V)
    t0, t1 = points[j - 1], points[j]
    b0 = budget(t0)
    t = t0 + (t1 - t0) * (c - b0) / (budget(t1) - b0)
    shifted = np.clip(psi_vals + t, 1e-300, lo_val)
    return np.asarray(psi.inverse(shifted), dtype=float)


def _solve_spectrum(grid, mu, weights, k, seed, options) -> SpectralResult:
    ctx = EnergyContext(grid, mu, weights)
    return eigen_minimax(ctx, k, seed=seed, options=options)


def _density(grid: GridSpec, objective: ObjectiveSpec,
             spectrum: SpectralResult) -> np.ndarray:
    """Eigenfield density per cell: sum of w_m |u_m(anchor)|^p over the
    active indices, w_m the objective's weight (1 unless weighted_sum).

    For a normalized eigenfield (g1 - g2 = 1) the derivative of its
    eigenvalue with respect to the potential on a cell is
    cell_volume * |u(anchor)|^p / p, so cell_volume * density / p is the
    objective's derivative.
    """
    out = np.zeros(grid.cells_shape)
    weighted = objective.kind == "weighted_sum"
    for m in objective.active_indices(spectrum.lambdas):
        u = spectrum.eigenfields[m - 1]
        if u is None:
            continue
        w = objective.weights[m - 1] if weighted else 1.0
        out += w * np.abs(anchor_values(grid, u.values)) ** grid.p
    return out


def optimize_potential(grid: GridSpec, weights: WeightPair,
                       objective: ObjectiveSpec, constraint: ConstraintSpec,
                       *, seed: int = 0,
                       options: SolverOptions | None = None,
                       max_iter: int = MAX_OUTER_ITER) -> OptimizeResult:
    """Minimize the objective over potentials saturating the Psi-budget.

    Starts from the uniform feasible potential Psi^{-1}(c / |box|),
    descends along the eigenfield density and re-projects every step, so
    every accepted iterate is saturated and the accepted objective is
    nonincreasing.
    """
    if constraint.kind != "psi_budget":
        raise ValueError("optimize_potential needs a psi_budget constraint")
    constraint.validate_for(grid)
    psi, c = constraint.psi, constraint.c
    opts = options or SolverOptions()
    k = objective.k

    uniform = psi.inverse(min(c / grid.box_volume, psi.at_zero))
    V = project_psi_budget(np.full(grid.cells_shape, float(uniform)),
                           c, psi, grid)
    spectrum = _solve_spectrum(grid, from_potential(grid, V), weights, k,
                               seed, opts)
    if any(s != FINITE for s in spectrum.statuses[:k]):
        raise InfeasibleConstraint(
            "baseline problem has no finite spectrum up to k")
    best_obj = objective_eval(objective, spectrum.lambdas)
    history = [HistoryRow(0, best_obj, psi_volume_of(grid, V, psi), True)]

    step = 1.0
    non_improving = 0
    it = 0
    for it in range(1, max_iter + 1):
        grad = grid.cell_volume * _density(grid, objective, spectrum) / grid.p
        gmax = grad.max()
        if gmax <= 0:
            break
        scale = max(V.max(), 1.0) / gmax
        accepted = False
        for _ in range(12):
            V_try = np.maximum(V - step * scale * grad, 0.0)
            try:
                V_try = project_psi_budget(V_try, c, psi, grid)
            except InfeasibleConstraint:
                step *= 0.5
                continue
            spec_try = _solve_spectrum(grid, from_potential(grid, V_try),
                                       weights, k, seed, opts)
            obj_try = objective_eval(objective, spec_try.lambdas)
            if obj_try < best_obj * (1.0 - 1e-12):
                V, spectrum, best_obj = V_try, spec_try, obj_try
                accepted = True
                step = min(step * 1.6, 1e6)
                break
            step *= 0.5
        history.append(HistoryRow(it, best_obj,
                                  psi_volume_of(grid, V, psi), accepted))
        if accepted:
            non_improving = 0
        else:
            non_improving += 1
            step = max(step, 1e-8)
            if non_improving >= MAX_NON_IMPROVING:
                break
    converged = non_improving >= MAX_NON_IMPROVING or it < max_iter
    cval = psi_volume_of(grid, V, psi)
    return OptimizeResult(potential=V, mask=None, spectrum=spectrum,
                          history=history, objective=best_obj,
                          constraint_value=cval,
                          converged=bool(converged),
                          saturation_shift=abs(cval - c))


def psi_volume_of(grid: GridSpec, V: np.ndarray, psi: PsiSpec) -> float:
    return psi_volume(from_potential(grid, V), psi)


def _threshold_mask(grid: GridSpec, density: np.ndarray,
                    n_keep: int) -> np.ndarray:
    """Keep the n_keep largest-density cells; ties go to the lower index."""
    order = np.argsort(-density.reshape(-1), kind="stable")
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[order[:n_keep]] = True
    return mask.reshape(grid.cells_shape)


def optimize_set(grid: GridSpec, weights: WeightPair,
                 objective: ObjectiveSpec, constraint: ConstraintSpec,
                 *, seed: int = 0, n_starts: int = N_STARTS,
                 options: SolverOptions | None = None,
                 soft_walls: tuple[float, ...] = SOFT_WALLS,
                 max_thresh_iter: int = MAX_THRESH_ITER) -> OptimizeResult:
    """Minimize the objective over cell sets of exactly c / h^d cells.

    Iterative thresholding on the eigenfield density (Oudet, ESAIM COCV
    2004), from several seeded initial blobs: each stage solves with the
    potential 0 on the set and the wall s on its complement, keeps the
    n_keep cells of largest density, and moves to the next wall once the
    set repeats or after max_thresh_iter solves.  The walls are
    soft_walls, then +inf, the hard-blocked complement; only hard solves
    are candidates, accepted when they improve the best objective.  The
    full box is one start of one hard solve.
    """
    if constraint.kind != "volume":
        raise ValueError("optimize_set needs a volume constraint")
    constraint.validate_for(grid)
    opts = options or SolverOptions()
    k = objective.k
    n_keep = int(round(constraint.c / grid.cell_volume))
    if n_keep < 1:
        raise InfeasibleConstraint("volume smaller than one cell")
    n_keep = min(n_keep, grid.n_cells)

    if n_keep == grid.n_cells:  # the full box: one hard solve
        n_starts, soft_walls = 1, ()

    best = None  # (objective, mask, spectrum)
    history: list[HistoryRow] = []
    for start in range(n_starts):
        rng = np.random.default_rng(seed * 1009 + start)
        mask = _initial_blob(grid, n_keep, rng)
        for s in (*soft_walls, math.inf):
            for _ in range(max_thresh_iter):
                # a wall of +inf blocks the complement: from_quasi_open(mask)
                mu = from_potential(grid, np.where(mask, 0.0, s))
                spec = _solve_spectrum(grid, mu, weights, k, seed, opts)
                if s == math.inf:
                    obj = objective_eval(objective, spec.lambdas)
                    accepted = best is None or obj < best[0] * (1.0 - 1e-12)
                    if accepted:
                        best = (obj, mask.copy(), spec)
                    history.append(HistoryRow(
                        len(history), best[0], n_keep * grid.cell_volume,
                        accepted))
                new_mask = _threshold_mask(
                    grid, _density(grid, objective, spec), n_keep)
                if np.array_equal(new_mask, mask):
                    break
                mask = new_mask

    obj, mask, spec = best
    return OptimizeResult(potential=None, mask=mask, spectrum=spec,
                          history=history, objective=obj,
                          constraint_value=n_keep * grid.cell_volume,
                          converged=True)


def _initial_blob(grid: GridSpec, n_keep: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Smooth random bump field thresholded to the requested cell count."""
    centers = grid.cell_centers().reshape(-1, grid.dim)
    dens = np.zeros(centers.shape[0])
    lengths = np.asarray(grid.lengths)
    for _ in range(3):
        c = rng.uniform(0.25, 0.75, size=grid.dim) * lengths
        width = rng.uniform(0.15, 0.4) * float(lengths.min())
        dens += np.exp(-np.sum((centers - c) ** 2, axis=1) / (2 * width ** 2))
    return _threshold_mask(grid, dens.reshape(grid.cells_shape), n_keep)

