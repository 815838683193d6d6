"""Semicontinuity checks for eigenvalues along converging measure sequences.

Eigenvalues are lower semicontinuous along gamma-converging sequences, and
upper semicontinuous too when nu2 vanishes; the budget integral of a
decreasing profile of the density is lower semicontinuous as well.  The
harness computes the finite tail of a sequence, estimates the liminf or
limsup from it, and compares against the limit value with explicit slack.

The liminf of a finite computed tail is estimated by its minimum, except
that a tail which is itself monotone is taken to have converged and is
represented by its last element (the minimum of the tail of an increasing
sequence says nothing about the liminf).  The limsup estimate mirrors
this with the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from plapopt.grid import GridSpec
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    PsiSpec,
    from_potential,
    from_quasi_open,
    psi_volume,
)
from plapopt.energy import EnergyContext
from plapopt.torsion import field_distance_p, torsion
from plapopt.spectrum import eigen_minimax, SolverOptions

DEFAULT_SLACK = 1e-3
DEFAULT_TAIL = 3


@dataclass(frozen=True)
class MeasureSequence:
    """Finite measure sequence with a declared limit on one grid."""

    kind: str
    elements: tuple[CapacitaryMeasure, ...]
    limit: CapacitaryMeasure
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("sequence needs at least one element")
        grid = self.limit.grid
        if any(m.grid != grid for m in self.elements):
            raise ValueError("sequence elements on a different grid than "
                             "the limit")
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def grid(self) -> GridSpec:
        return self.limit.grid


@dataclass
class SemicontinuityReport:
    check: str
    m: int | None
    limit_value: float
    tail_values: list[float]
    estimate: float
    margin: float
    slack: float
    passed: bool
    inconclusive: bool
    distances: list[float] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    note: str = ""


def blocked_limit_sequence(grid: GridSpec, mask, s_values) -> MeasureSequence:
    """Fictitious-domain sequence s * (1 - chi_A) increasing to the
    blocked-complement measure of the mask."""
    mask = np.asarray(mask, dtype=bool).reshape(grid.cells_shape)
    if not mask.any():
        raise ValueError("empty mask")
    s_values = [float(s) for s in s_values]
    if any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise ValueError("s_values must be strictly increasing")
    wall = (~mask).astype(float)
    elements = tuple(from_potential(grid, s * wall) for s in s_values)
    return MeasureSequence("growing-potential", elements,
                           from_quasi_open(grid, mask),
                           {"s_values": s_values})


def _tail(seq_values: list, tail: int) -> list:
    return seq_values[-max(1, min(tail, len(seq_values))):]


def _is_monotone(values: list[float]) -> bool:
    if len(values) < 2:
        return True
    finite = [abs(v) for v in values if math.isfinite(v)]
    tol = 1e-12 * max(finite + [1.0])
    inc = all(b >= a - tol for a, b in zip(values, values[1:]))
    dec = all(b <= a + tol for a, b in zip(values, values[1:]))
    return inc or dec


def _estimate(values: list[float], mode: str) -> float:
    if _is_monotone(values):
        return values[-1]
    return min(values) if mode == "liminf" else max(values)


def _lambda_of(mu: CapacitaryMeasure, weights: WeightPair, m: int,
               seed: int, options: SolverOptions | None):
    ctx = EnergyContext(mu.grid, mu, weights)
    result = eigen_minimax(ctx, m, seed=seed, options=options)
    return result.value(m), result.status_of(m)


def _distances(seq: MeasureSequence, members):
    """gamma_distance of each member to the limit, solving the limit once,
    and the names of the measures whose torsion did not converge; their
    distances (all of them for the limit) are nan."""
    first = len(seq.elements) - len(members)
    names = ["the limit"] + [f"sequence element {first + j}"
                             for j in range(len(members))]
    solves = [torsion(mu) for mu in [seq.limit, *members]]
    failed = [name for name, (_, report) in zip(names, solves)
              if not report.converged]
    w_limit, *ws = [w if report.converged else None for w, report in solves]
    return [math.nan if w is None or w_limit is None
            else field_distance_p(w, w_limit) for w in ws], failed


def _distances_converge(distances: list[float], slack: float) -> bool:
    if not distances:
        return True
    scale = max(distances[0], 1e-300)
    ok_trend = all(b <= a * (1.0 + slack) + slack * scale
                   for a, b in zip(distances, distances[1:]))
    return ok_trend and distances[-1] <= distances[0] + slack * scale


@dataclass
class TailSolves:
    """Torsion distances and eigenvalues of a sequence's tail and limit.

    Solved once by solve_tail, they serve lsc_check and usc_check alike.
    statuses lists the tail members' statuses, then the limit's; failed
    names the measures whose torsion did not converge.
    """

    distances: list[float]
    failed: list[str]
    values: list[float]
    statuses: list[str]
    limit_value: float


def solve_tail(seq: MeasureSequence, weights: WeightPair, m: int, *,
               tail: int = DEFAULT_TAIL, seed: int = 0,
               options: SolverOptions | None = None) -> TailSolves:
    """Torsions and lambda_m of the last `tail` elements and the limit;
    member j gets solver seed seed + j and the limit seed + tail length."""
    members = list(_tail(list(seq.elements), tail))
    distances, failed = _distances(seq, members)
    values, statuses = [], []
    for j, mu in enumerate(members + [seq.limit]):
        lam, status = _lambda_of(mu, weights, m, seed + j, options)
        values.append(lam)
        statuses.append(status)
    return TailSolves(distances, failed, values[:-1], statuses, values[-1])


def _eigen_check(seq: MeasureSequence, weights: WeightPair, m: int,
                 mode: str, slack: float, tail: int, seed: int,
                 options: SolverOptions | None,
                 solves: TailSolves | None) -> SemicontinuityReport:
    if solves is None:
        solves = solve_tail(seq, weights, m, tail=tail, seed=seed,
                            options=options)
    values, lam_limit = solves.values, solves.limit_value

    inconclusive = any(s == "unresolved" for s in solves.statuses)
    note = ""
    if solves.failed:
        inconclusive = True
        note = "torsion did not converge for " + ", ".join(solves.failed)
    elif not _distances_converge(solves.distances, slack):
        inconclusive = True
        note = "gamma-distance tail is not settling toward the limit"

    est = _estimate(values, mode)
    scale = max(abs(lam_limit) if math.isfinite(lam_limit) else 1.0,
                abs(est) if math.isfinite(est) else 1.0, 1.0)
    if mode == "liminf":
        margin = est - lam_limit
    else:
        margin = lam_limit - est
    if math.isnan(margin):  # inf vs inf: the inequality holds trivially
        margin = 0.0
    passed = margin >= -slack * scale and not inconclusive
    return SemicontinuityReport(
        check="lsc" if mode == "liminf" else "usc", m=m,
        limit_value=lam_limit, tail_values=list(values), estimate=est,
        margin=float(margin), slack=slack, passed=passed,
        inconclusive=inconclusive, distances=list(solves.distances),
        statuses=list(solves.statuses), note=note)


def lsc_check(seq: MeasureSequence, weights: WeightPair, m: int, *,
              slack: float = DEFAULT_SLACK, tail: int = DEFAULT_TAIL,
              seed: int = 0, options: SolverOptions | None = None,
              solves: TailSolves | None = None) -> SemicontinuityReport:
    """Check lambda_m(limit) <= liminf of the sequence values + slack.

    solves, from solve_tail, replaces the solves that tail, seed and
    options would ask for.
    """
    return _eigen_check(seq, weights, m, "liminf", slack, tail, seed,
                        options, solves)


def usc_check(seq: MeasureSequence, weights: WeightPair, m: int, *,
              slack: float = DEFAULT_SLACK, tail: int = DEFAULT_TAIL,
              seed: int = 0, options: SolverOptions | None = None,
              solves: TailSolves | None = None) -> SemicontinuityReport:
    """Check lambda_m(limit) >= limsup of the sequence values - slack.

    Requires nu2 = 0; upper semicontinuity can genuinely fail otherwise.
    solves works as in lsc_check.
    """
    if weights.w2.any():
        raise ValueError("usc requires nu2 = 0")
    return _eigen_check(seq, weights, m, "limsup", slack, tail, seed,
                        options, solves)


def psi_lsc_check(seq: MeasureSequence, psi: PsiSpec, *,
                  slack: float = DEFAULT_SLACK,
                  tail: int = DEFAULT_TAIL) -> SemicontinuityReport:
    """Check psi_volume(limit) <= min over the tail + slack.

    The power family has Psi(0) = +inf; +inf <= +inf counts as a pass.
    """
    members = _tail(list(seq.elements), tail)
    values = [psi_volume(mu, psi) for mu in members]
    limit_value = psi_volume(seq.limit, psi)
    finite = [v for v in values if math.isfinite(v)]
    est = min(values)
    scale = max([abs(v) for v in finite + [limit_value]
                 if math.isfinite(v)] + [1.0])
    if math.isinf(limit_value):
        margin = 0.0 if math.isinf(est) else -math.inf
    elif math.isinf(est):
        margin = math.inf
    else:
        margin = est - limit_value
    passed = margin >= -slack * scale
    return SemicontinuityReport(
        check="psi-lsc", m=None, limit_value=limit_value,
        tail_values=values, estimate=est, margin=float(margin),
        slack=slack, passed=passed, inconclusive=False)
