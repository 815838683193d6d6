"""The benchmark's workloads: seeded inputs, a fixed op list, and checks.

Each workload is a list of ops.  An op is one or more calls into
plapopt's public functions, a second or more of work, followed by an
untimed check of every output against ``reference`` (quantities assembled
apart from the program), a closed form, or a property the method must
have.  No check compares against a stored copy of earlier output.

Program functions are always looked up through their module
(``spectrum.eigen_minimax``, never a name imported by value), so the
traced run sees the top-level calls too.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

import plapopt.cli as cli
import plapopt.gamma as gamma
import plapopt.spectrum as spectrum
from plapopt.energy import EnergyContext
from plapopt.grid import Field, GridSpec
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    from_potential,
    lebesgue_weights,
    leq,
    zero_measure,
)

from reference import (
    Problem,
    interval_dirichlet_eigenvalues,
    pencil_eigenvalues,
    square_dirichlet_eigenvalues,
    torsion_max_1d,
)

# the package re-exports the function torsion under its module's name
torsion = importlib.import_module("plapopt.torsion")

# criterion 06's options for the p = 3 half of the monotonicity suite
CRITERION_06 = spectrum.SolverOptions(n_starts=10, max_ascent_iter=60,
                                      max_outer_iter=6)
CERT_TOL = 1e-6          # eigenpair certification, relative to lam |u|^(p-1)
MONOTONE_TOL = 1e-4      # lambda_m(mu) <= lambda_m(mu') + tol * scale
TORSION_TOL = 1e-8       # the torsion solver's relative gradient tolerance
TORSION_MAX_TOL = 1e-3   # 1D n = 64 discretization error, see README
P2_REL_TOL = 1e-8        # p = 2 eigenvalues against the reference pencil


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed unit of work and the untimed check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    """Ops run in this order in every round; ``min_rounds`` is how many
    rounds a run needs for its cross-round checks (extra ones untimed)."""

    name: str
    warmup: Op
    ops: list[Op]
    min_rounds: int = 1


def reference_of(ctx: EnergyContext) -> Problem:
    """The reference problem holding the same input arrays as ctx."""
    g, mu, w = ctx.grid, ctx.mu, ctx.weights
    return Problem(g.dim, g.n, g.lengths, g.p, V=mu.density,
                   blocked=mu.blocked, mu_atoms=mu.atoms, w1=w.w1,
                   w1_atoms=w.w1_atoms, w2=w.w2)


# ----------------------------------------------------------------------
# minimax-general-p

def check_spectrum(ctx: EnergyContext, result) -> None:
    """Nondecreasing values and a certified residual for every finite pair."""
    finite = [lam for lam in result.lambdas if math.isfinite(lam)]
    require(len(finite) > 0, "no finite eigenvalue")
    require(all(b >= a for a, b in zip(finite, finite[1:])),
            f"eigenvalues not nondecreasing: {result.lambdas}")
    prob = reference_of(ctx)
    for m, (lam, u, status) in enumerate(zip(
            result.lambdas, result.eigenfields, result.statuses), start=1):
        if status != spectrum.FINITE:
            continue
        res = prob.residual(u.flat, lam)
        bound = CERT_TOL * lam * prob.lp_norm(u.flat) ** (prob.p - 1.0)
        require(res <= bound,
                f"level {m}: residual {res:.3e} above {bound:.3e}")


def _measure_pair(grid: GridSpec, rng: np.random.Generator):
    """Seeded mu <= mu': potentials, one atom (p > dim), mu' heavier."""
    V1 = rng.random(grid.n_cells) * 4.0
    V2 = V1 + rng.random(grid.n_cells) * 3.0
    node = int(rng.integers(grid.n_nodes))
    base, extra = float(rng.random()), float(rng.random())
    none = np.zeros(grid.n_cells, dtype=bool)
    mu = CapacitaryMeasure(grid, V1, none, ((node, base),))
    mu2 = CapacitaryMeasure(grid, V2, none, ((node, base + extra),))
    return mu, mu2


def _pair_op(p: float, rng: np.random.Generator) -> Op:
    grid = GridSpec(1, 16, (1.0,), p)
    weights = lebesgue_weights(grid)
    mu, mu2 = _measure_pair(grid, rng)
    ctxs = [EnergyContext(grid, m, weights) for m in (mu, mu2)]
    solver_seed = int(rng.integers(1 << 16))

    def run():
        return [spectrum.eigen_minimax(c, 3, seed=solver_seed,
                                       options=CRITERION_06) for c in ctxs]

    def check(results):
        require(leq(mu, mu2), "input pair is not ordered")
        for c, r in zip(ctxs, results):
            check_spectrum(c, r)
        for m, (a, b) in enumerate(zip(results[0].lambdas,
                                       results[1].lambdas), start=1):
            scale = max(abs(a), abs(b), 1.0)
            require(a <= b + MONOTONE_TOL * scale,
                    f"p={p:g} level {m}: lambda(mu)={a} > lambda(mu')={b}")

    return Op(f"pair-1d-p{p:g}", run, check)


def minimax_general_p(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = [_pair_op(3.0, rng), _pair_op(1.5, rng)]

    square = GridSpec(2, 16, (1.0, 1.0), 3.0)
    square_ctx = EnergyContext(square, zero_measure(square),
                               lebesgue_weights(square))
    square_seed = int(rng.integers(1 << 16))
    ops.append(Op(
        "square-2d-p3",
        lambda: spectrum.eigen_minimax(square_ctx, 3, seed=square_seed),
        lambda r: check_spectrum(square_ctx, r)))

    small = GridSpec(1, 8, (1.0,), 3.0)
    small_ctx = EnergyContext(small, zero_measure(small),
                              lebesgue_weights(small))
    warmup = Op("warmup", lambda: spectrum.eigen_minimax(
        small_ctx, 2, options=CRITERION_06),
        lambda r: check_spectrum(small_ctx, r))
    return Workload("minimax-general-p", warmup, ops)


# ----------------------------------------------------------------------
# convex-solves

def check_torsion(mu: CapacitaryMeasure, out) -> tuple[np.ndarray, float]:
    """Converged, gradient within the solver tolerance; returns (w, energy).

    The energy f_mu(w) - int w is computed by the reference assembly.
    """
    w, report = out
    require(report.converged, "torsion reported no convergence")
    g = mu.grid
    prob = Problem(g.dim, g.n, g.lengths, g.p, V=mu.density,
                   blocked=mu.blocked, mu_atoms=mu.atoms)
    res, scale = prob.torsion_residual(w.flat)
    require(res <= TORSION_TOL * scale * (1.0 + 1e-6),
            f"torsion gradient {res / scale:.3e} above {TORSION_TOL:.0e}")
    energy = prob.f_energy(w.flat) - prob.vol * float(w.flat.sum())
    return w.flat, energy


def comparison_slack(p: float, w: np.ndarray) -> float:
    """Pointwise accuracy that the torsion solver's stopping test implies.

    The solver stops at a relative gradient (dual) norm of TORSION_TOL.
    For p >= 2 the energy grows like |grad w|^p, so that residual bounds
    the error only to the power 1/(p-1): about 1e-4 of max w at p = 3.
    """
    return TORSION_TOL ** (1.0 / (max(p, 2.0) - 1.0)) * float(np.abs(w).max())


def _ordered_potentials(grid: GridSpec, rng: np.random.Generator,
                        n_blocked: int):
    """Seeded mu <= mu': potential plus blocked cells, mu' adds to both."""
    V = rng.random(grid.n_cells) * 3.0
    blocked = np.zeros(grid.n_cells, dtype=bool)
    blocked[rng.choice(grid.n_cells, n_blocked, replace=False)] = True
    blocked2 = blocked.copy()
    blocked2[rng.choice(grid.n_cells, 2, replace=False)] = True
    mu = CapacitaryMeasure(grid, V, blocked)
    mu2 = CapacitaryMeasure(grid, V + rng.random(grid.n_cells), blocked2)
    return mu, mu2


def check_ordered_torsions(mu, mu2, out, out2, pointwise: bool):
    """Torsion is antitone in the measure.

    The minimum energy f_mu(w) - int w can only grow with mu, on any
    grid.  The pointwise order w(mu) >= w(mu') needs a discrete maximum
    principle, which this scheme has in 1D; in 2D at p != 2 the cell norm
    couples diagonal neighbours and the order can fail (see FOUND in
    CHANGES.md), so it is checked in 1D only.
    """
    require(leq(mu, mu2), "input pair is not ordered")
    w, energy = check_torsion(mu, out)
    w2, energy2 = check_torsion(mu2, out2)
    p = mu.grid.p
    require(energy <= energy2 + 1e-9 * abs(energy2),
            f"p={p:g}: torsion energy {energy!r} of mu above {energy2!r} "
            f"of mu'")
    if pointwise:
        require(np.all(w >= w2 - comparison_slack(p, w)),
                f"p={p:g}: w(mu) < w(mu') by {float((w2 - w).max()):.3e}")


def _torsion_pairs_op(name: str, pairs) -> Op:
    def run():
        return [[torsion.torsion(m) for m in pair] for pair in pairs]

    def check(outs):
        for (mu, mu2), (o1, o2) in zip(pairs, outs):
            check_ordered_torsions(mu, mu2, o1, o2, mu.grid.dim == 1)

    return Op(name, run, check)


def _torsion_1d_op(rng: np.random.Generator) -> Op:
    """Closed-form maxima at p = 1.5 and 3, and a seeded p = 3 pair."""
    grids = [GridSpec(1, 64, (1.0,), p) for p in (1.5, 3.0)]
    pair = _ordered_potentials(grids[1], rng, 3)

    def run():
        return ([torsion.torsion(zero_measure(g)) for g in grids],
                [torsion.torsion(m) for m in pair])

    def check(outs):
        for g, out in zip(grids, outs[0]):
            w, _ = check_torsion(zero_measure(g), out)
            exact = torsion_max_1d(g.p)
            err = abs(float(w.max()) - exact) / exact
            require(err <= TORSION_MAX_TOL,
                    f"p={g.p:g}: max w off the closed form by {err:.2e}")
        check_ordered_torsions(*pair, *outs[1], pointwise=True)

    return Op("torsion-1d", run, check)


def _prox_ladder(grid: GridSpec, rng: np.random.Generator, blocked: bool):
    mu = from_potential(grid, rng.random(grid.n_cells) * 3.0)
    if blocked:
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[-3:] = True
        mu = CapacitaryMeasure(grid, mu.density, mask)
    ctx = EnergyContext(grid, mu, lebesgue_weights(grid))
    z = Field(grid, ctx.project_dirichlet(rng.standard_normal(grid.n_nodes)))
    return mu, z


def _prox_op(ladders) -> Op:
    ks = (1.0, 10.0, 100.0, 1000.0)

    def run():
        return [[torsion.prox(z, k, mu) for k in ks] for mu, z in ladders]

    def check(outs):
        for (mu, z), outs_k in zip(ladders, outs):
            g = mu.grid
            prob = Problem(g.dim, g.n, g.lengths, g.p, V=mu.density,
                           blocked=mu.blocked)
            fz = prob.f_energy(z.flat)
            require(math.isfinite(fz), "f_mu(z) is not finite")
            dists = []
            for k, (v, _) in zip(ks, outs_k):
                dist = prob.lp_norm(v.flat - z.flat)
                lhs = (k / g.p) * dist ** g.p + prob.f_energy(v.flat)
                require(lhs <= fz + 1e-10 * max(1.0, abs(fz)),
                        f"p={g.p:g} k={k:g}: Moreau-Yosida bound fails "
                        f"({lhs:.6e} > {fz:.6e})")
                dists.append(dist)
            require(all(b <= a for a, b in zip(dists, dists[1:])),
                    f"p={g.p:g}: prox distance grows in k: {dists}")

    return Op("prox-ladders", run, check)


def _gamma_sequence_op(grid: GridSpec, rng: np.random.Generator) -> Op:
    n = grid.n
    lo = rng.integers(0, n // 4, size=2)
    hi = lo + rng.integers(n // 2, 3 * n // 4, size=2)
    mask = np.zeros(grid.cells_shape, dtype=bool)
    mask[lo[0]:hi[0], lo[1]:hi[1]] = True
    seq = gamma.blocked_limit_sequence(grid, mask, [10.0, 1e3, 1e6])

    def run():
        return [torsion.gamma_distance(m, seq.limit) for m in seq.elements]

    def check(dists):
        require(all(b < a for a, b in zip(dists, dists[1:])),
                f"gamma-distances do not decrease: {dists}")

    return Op("gamma-sequence-2d-p3", run, check)


def _half_wall_op() -> Op:
    """gamma_distance that fails in every round while p = 1.5 torsion
    does not converge on this input.

    The torsion of the s = 1e3 member stops unconverged (1716 iterations)
    and gamma_distance raises RuntimeError; the inputs do not depend on
    the seed, so the share of failed ops is the same in every run.
    """
    grid = GridSpec(2, 16, (1.0, 1.0), 1.5)
    mask = np.zeros(grid.cells_shape, dtype=bool)
    mask[:, :8] = True
    seq = gamma.blocked_limit_sequence(grid, mask, [10.0, 1e3, 1e6])

    def check(dist):
        require(math.isfinite(dist) and dist > 0.0,
                f"half-wall gamma-distance {dist}")

    return Op("gamma-half-wall-2d-p1.5",
              lambda: torsion.gamma_distance(seq.elements[1], seq.limit),
              check)


def convex_solves(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    p3_pairs = [_ordered_potentials(GridSpec(2, n, (1.0, 1.0), 3.0), rng, 6)
                for n in (24, 32)]
    # the p = 1.5 solves and the prox ladders take fixed inputs: their work
    # swings by several times between seeded inputs, and some of those
    # stop unconverged (see FOUND in CHANGES.md)
    p15_pairs = [_ordered_potentials(GridSpec(2, 24, (1.0, 1.0), 1.5),
                                     np.random.default_rng(2), 6)]
    fixed = np.random.default_rng(0)
    ladders = [_prox_ladder(GridSpec(1, 32, (1.0,), 1.5), fixed, False),
               _prox_ladder(GridSpec(1, 32, (1.0,), 3.0), fixed, False),
               _prox_ladder(GridSpec(1, 32, (1.0,), 3.0), fixed, True)]
    ops = [
        _torsion_pairs_op("torsion-pairs-2d-p3", p3_pairs),
        _torsion_pairs_op("torsion-pair-2d-p1.5", p15_pairs),
        _torsion_1d_op(rng),
        _prox_op(ladders),
        _gamma_sequence_op(GridSpec(2, 24, (1.0, 1.0), 3.0), rng),
        _half_wall_op(),
    ]
    small = GridSpec(2, 8, (1.0, 1.0), 3.0)
    warmup = Op("warmup", lambda: torsion.torsion(zero_measure(small)),
                lambda out: check_torsion(zero_measure(small), out))
    return Workload("convex-solves", warmup, ops)


# ----------------------------------------------------------------------
# p2-spectra

def _p2_problem(n: int, kind: str, with_blocked: bool,
                rng: np.random.Generator) -> EnergyContext:
    """Sign-changing (w2 > 0 on a strip) or partially supported w1."""
    grid = GridSpec(2, n, (1.0, 1.0), 2.0)
    x, y = grid.cell_centers()[..., 0], grid.cell_centers()[..., 1]
    V = rng.random(grid.cells_shape) * 3.0
    blocked = np.zeros(grid.cells_shape, dtype=bool)
    if with_blocked:
        i, j = rng.integers(n // 4, 3 * n // 4, size=2)
        blocked[i - 2:i + 2, j - 2:j + 2] = True
    cut = 0.6 + 0.2 * rng.random()
    if kind == "sign-changing":
        w1 = np.ones(grid.cells_shape)
        w2 = np.where(x > cut, 2.0 + rng.random(grid.cells_shape), 0.0)
    else:
        w1 = np.where(y < cut, 1.0, 0.0)
        w2 = np.zeros(grid.cells_shape)
    mu = CapacitaryMeasure(grid, V, blocked)
    return EnergyContext(grid, mu, WeightPair(grid, w1, (), w2))


def _p2_op(ctx: EnergyContext, m: int, name: str) -> Op:
    expected: list[float] = []

    def check(result):
        if not expected:
            A, B, _ = reference_of(ctx).pencil()
            expected.extend(pencil_eigenvalues(A, B, m))
        require(len(expected) == m, "reference pencil has too few "
                                    "positive directions")
        for k, (got, want) in enumerate(zip(result.lambdas, expected), 1):
            require(abs(got - want) <= P2_REL_TOL * want,
                    f"level {k}: lambda {got!r} against reference {want!r}")

    return Op(name, lambda: spectrum.eigen_minimax(ctx, m), check)


def p2_spectra(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cases = [(40, "sign-changing", False), (40, "partial-w1", True),
             (48, "sign-changing", True), (48, "partial-w1", False)]
    ops = [_p2_op(_p2_problem(n, kind, blocked, rng), 4,
                  f"{kind}-n{n}{'-blocked' if blocked else ''}")
           for n, kind, blocked in cases]
    warmup = _p2_op(_p2_problem(12, "sign-changing", False, rng), 4,
                    "warmup")
    return Workload("p2-spectra", warmup, ops)


# ----------------------------------------------------------------------
# optimize-cli

def _read_last_column(path: Path) -> np.ndarray:
    return np.array([float(line.rsplit(",", 1)[1])
                     for line in path.read_text().splitlines() if line])


def _history_objective(path: Path) -> list[float]:
    rows = path.read_text().splitlines()[1:]
    return [float(r.split(",")[1]) for r in rows if r]


def _disk_eigenvalue(area: float) -> float:
    j01 = brentq(j0, 2.0, 3.0, xtol=1e-14)
    return math.pi * j01 ** 2 / area


def _result_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def _check_nonincreasing(values: list[float], what: str):
    require(all(b <= a for a, b in zip(values, values[1:])),
            f"{what}: history objective increases")


def _check_optimize_set(out: Path, config: dict):
    res = json.loads((out / "results.json").read_text())
    grid = config["grid"]
    h2 = (grid["lengths"][0] / grid["n"]) * (grid["lengths"][1] / grid["n"])
    c = config["constraint"]["c"]
    mask = _read_last_column(out / "mask.csv")
    require(int(mask.sum()) == round(c / h2) and
            set(np.unique(mask)) <= {0.0, 1.0},
            f"mask keeps {int(mask.sum())} cells, not {round(c / h2)}")
    lam1, disk = float(res["lambdas"][0]), _disk_eigenvalue(c)
    require(abs(lam1 - disk) <= 0.05 * disk,
            f"optimal set lambda1 {lam1} not within 5% of the disk {disk}")
    _check_nonincreasing(_history_objective(out / "history.csv"),
                         "optimize-set")


def _check_optimize_potential(out: Path, config: dict):
    grid, con = config["grid"], config["constraint"]
    h = grid["lengths"][0] / grid["n"]
    V = _read_last_column(out / "V.csv")
    beta = con["psi"]["beta"]
    volume = h * float(np.sum(np.exp(-beta * V)))
    require(abs(volume - con["c"]) <= 1e-6 * con["c"],
            f"psi-volume {volume} misses the budget {con['c']}")
    _check_nonincreasing(_history_objective(out / "history.csv"),
                         "optimize-potential")


def _check_small_configs(outs: dict[str, Path], configs: dict[str, dict]):
    def lambdas(name):
        res = json.loads((outs[name] / "results.json").read_text())
        return [float(x) for x in res["lambdas"]]

    box = configs["solve_1d_box"]["grid"]
    want = interval_dirichlet_eigenvalues(box["n"], box["lengths"][0], 4)
    square = configs["solve_square_2d"]["grid"]
    want2 = square_dirichlet_eigenvalues(square["n"], square["lengths"][0], 4)
    for name, expect in (("solve_1d_box", want), ("solve_square_2d", want2)):
        for k, (got, w) in enumerate(zip(lambdas(name), expect), start=1):
            require(abs(got - w) <= P2_REL_TOL * w,
                    f"{name} level {k}: {got!r} against closed form {w!r}")
    # the tent through the single atom at x = 1 of (0, 2) is exact on the
    # grid: lambda1 = 1^(1-p) + 1^(1-p) = 2
    dirac = lambdas("solve_dirac_p3")[0]
    require(abs(dirac - 2.0) <= CERT_TOL * 2.0,
            f"solve_dirac_p3 lambda1 {dirac!r}, closed form 2")
    report = json.loads((outs["gamma_half_wall"] / "report.json").read_text())
    lsc = report["checks"]["lsc"]
    require(lsc["passed"] and not lsc["inconclusive"],
            "gamma-diag lsc check did not pass")
    dists = [float(d) for d in lsc["distances"]]
    require(all(b < a for a, b in zip(dists, dists[1:])),
            f"gamma-diag distances do not decrease: {dists}")


class _CliRuns:
    """Runs configs through cli.main into per-round output directories and
    checks that each round's result files equal the previous round's."""

    def __init__(self, root: Path, configs_dir: Path, seed: int):
        self.root, self.configs_dir, self.seed = root, configs_dir, seed
        self.rounds: dict[str, int] = {}
        self.previous: dict[str, dict[str, bytes]] = {}

    def config(self, name: str) -> dict:
        return json.loads((self.configs_dir / f"{name}.json").read_text())

    def run(self, subcommand: str, name: str) -> tuple[int, Path]:
        r = self.rounds.get(name, 0)
        self.rounds[name] = r + 1
        out = self.root / f"{name}-{r}"
        code = cli.main([subcommand, "--config",
                         str(self.configs_dir / f"{name}.json"),
                         "--out", str(out), "--seed", str(self.seed),
                         "--quiet"])
        return code, out

    def finish(self, name: str, code: int, out: Path):
        """Exit code 0, and files identical to the previous round's."""
        require(code == 0, f"{name}: exit code {code}")
        files = _result_files(out)
        before = self.previous.get(name)
        if before is not None:
            require(files == before,
                    f"{name}: result files differ between two runs")
        self.previous[name] = files
        shutil.rmtree(out)


SMALL_CONFIGS = (("gamma-diag", "gamma_half_wall"),
                 ("solve", "solve_1d_box"),
                 ("solve", "solve_square_2d"),
                 ("solve", "solve_dirac_p3"))


def optimize_cli(seed: int, workdir: Path) -> Workload:
    configs_dir = Path(__file__).resolve().parent.parent / "configs"
    runs = _CliRuns(workdir, configs_dir, seed)

    def single(subcommand, name, checker):
        config = runs.config(name)

        def check(result):
            code, out = result
            if code == 0:
                checker(out, config)
            runs.finish(name, code, out)

        return Op(name, lambda: runs.run(subcommand, name), check)

    def run_small():
        return {name: runs.run(sub, name) for sub, name in SMALL_CONFIGS}

    def check_small(results):
        configs = {name: runs.config(name) for _, name in SMALL_CONFIGS}
        codes = {name: code for name, (code, _) in results.items()}
        if all(code == 0 for code in codes.values()):
            _check_small_configs({n: out for n, (_, out) in results.items()},
                                 configs)
        for name, (code, out) in results.items():
            runs.finish(name, code, out)

    ops = [
        single("optimize-set", "optimize_set_half_volume",
               _check_optimize_set),
        single("optimize-potential", "optimize_potential_exp",
               _check_optimize_potential),
        Op("small-configs", run_small, check_small),
    ]
    warmup = Op("warmup", lambda: runs.run("solve", "solve_1d_box"),
                lambda r: runs.finish("solve_1d_box", *r))
    # two rounds at least, so that every config's files are compared
    return Workload("optimize-cli", warmup, ops, min_rounds=2)


WORKLOADS = {
    "minimax-general-p": minimax_general_p,
    "convex-solves": convex_solves,
    "p2-spectra": p2_spectra,
    "optimize-cli": optimize_cli,
}
