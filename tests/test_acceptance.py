"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric target is pinned here at its stated tolerance; the oracles
live in oracles.py and are independent of the library's assembly.  The
certification criterion re-checks every eigenpair reported by the earlier
criteria, so tests register their pairs as they run (pytest executes this
module top to bottom).
"""

import json
import math
import time

import numpy as np

from plapopt.grid import GridSpec, Field
from plapopt.measure import (
    CapacitaryMeasure,
    PsiSpec,
    WeightPair,
    add,
    from_potential,
    from_quasi_open,
    lebesgue_weights,
    leq,
    zero_measure,
)
from plapopt.energy import EnergyContext, f_energy
from plapopt.torsion import field_distance_p, gamma_distance, prox, torsion
from plapopt.spectrum import (
    SolverOptions,
    certify,
    eigen_first,
    eigen_minimax,
)
from plapopt.gamma import blocked_limit_sequence, lsc_check, psi_lsc_check, \
    usc_check
from plapopt.optimize import (
    ConstraintSpec,
    ObjectiveSpec,
    optimize_potential,
    optimize_set,
)
from plapopt.cli import main as cli_main

from oracles import (
    central_diff_directional,
    dense_eigs_1d,
    disk_first_eigenvalue,
    pi_p,
    shoot_first_eigenvalue_1d,
)

# eigenpairs reported by criteria 1..11, re-certified by criterion 12
REPORTED_PAIRS = []

FAST = SolverOptions(n_starts=10, max_ascent_iter=60, max_outer_iter=6)


def record_pairs(ctx, result):
    for lam, u, status in zip(result.lambdas, result.eigenfields,
                              result.statuses):
        if u is not None and status == "finite":
            REPORTED_PAIRS.append((ctx, u, lam))


def report(num, name, detail):
    print(f"criterion {num:02d} {name}: PASS ({detail})")


def test_c01_dirichlet_spectrum_1d():
    t0 = time.monotonic()
    n = 512
    g = GridSpec(1, n, (1.0,), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    result = eigen_minimax(ctx, 4, seed=0)
    oracle, _, _ = dense_eigs_1d(n, 1.0, np.zeros(n), np.ones(n),
                                 np.zeros(n), 4)
    worst = 0.0
    for m in range(1, 5):
        lam = result.lambdas[m - 1]
        exact = (m * math.pi) ** 2
        assert abs(lam - exact) <= 0.01 * exact
        assert math.isclose(lam, oracle[m - 1], rel_tol=1e-10)
        worst = max(worst, abs(lam - exact) / exact)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    record_pairs(ctx, result)
    report(1, "1d dirichlet spectrum", f"max rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_c02_square_spectrum_2d():
    t0 = time.monotonic()
    g = GridSpec(2, 64, (1.0, 1.0), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    result = eigen_minimax(ctx, 4, seed=0)
    targets = [2.0, 5.0, 5.0, 8.0]
    worst = 0.0
    for lam, t in zip(result.lambdas, targets):
        exact = t * math.pi ** 2
        assert abs(lam - exact) <= 0.02 * exact
        worst = max(worst, abs(lam - exact) / exact)
    gap = abs(result.lambdas[1] - result.lambdas[2]) / result.lambdas[1]
    assert gap <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    record_pairs(ctx, result)
    report(2, "2d square spectrum", f"max rel err {worst:.2e}, "
           f"multiplicity gap {gap:.1e}, {elapsed:.1f}s")


def test_c03_p_laplacian_first_eigenvalue():
    t0 = time.monotonic()
    details = []
    for p in (1.5, 3.0):
        shot = shoot_first_eigenvalue_1d(p)
        closed = (p - 1.0) * pi_p(p) ** p
        assert math.isclose(shot, closed, rel_tol=1e-8)
        g = GridSpec(1, 256, (1.0,), p)
        ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
        lam, u, res = eigen_first(ctx, seed=0)
        assert abs(lam - shot) <= 0.02 * shot
        REPORTED_PAIRS.append((ctx, u, lam))
        details.append(f"p={p}: rel err {abs(lam - shot) / shot:.1e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, "p-laplacian first eigenvalue", "; ".join(details)
           + f", {elapsed:.1f}s")


def test_c04_dirac_right_hand_side():
    g = GridSpec(1, 128, (2.0,), 3.0)   # the box plays (-1, 1)
    center = g.n // 2 - 1               # interior node at the midpoint
    w = WeightPair(g, 0.0, ((center, 1.0),))
    ctx = EnergyContext(g, zero_measure(g), w)
    lam, u, res = eigen_first(ctx, seed=0)
    # Green's function value w(0) = 2^(-1/(p-1)) gives lambda1 = 2
    w0 = 2.0 ** (-1.0 / (3.0 - 1.0))
    exact = 1.0 / w0 ** (3.0 - 1.0)
    assert math.isclose(exact, 2.0)
    assert abs(lam - exact) <= 0.02 * exact
    result = eigen_minimax(ctx, 2, seed=0, options=FAST)
    assert result.statuses[1] == "infeasible"
    REPORTED_PAIRS.append((ctx, u, lam))
    record_pairs(ctx, result)
    report(4, "dirac right-hand side", f"lambda1 = {lam:.6f}, "
           f"m=2 {result.statuses[1]}")


def test_c05_torsion_convergence_order():
    # odd cell counts keep the midpoint off the lattice, so the maximum
    # sees the O(h^2) interpolation gap instead of the exact nodal value
    errs, hs = [], []
    for n in (65, 129, 257):
        g = GridSpec(1, n, (1.0,), 2.0)
        w, rep = torsion(zero_measure(g))
        assert rep.converged
        errs.append(abs(w.values.max() - 0.125))
        hs.append(g.spacing[0])
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1])
              for i in range(2)]
    assert all(o >= 1.8 for o in orders)
    report(5, "torsion convergence", f"max w errs {errs[0]:.2e} -> "
           f"{errs[2]:.2e}, orders {orders[0]:.2f}, {orders[1]:.2f}")


def _random_measure_pair(g, rng, with_blocked, with_atoms):
    V1 = rng.random(g.n_cells) * 4.0
    V2 = V1 + rng.random(g.n_cells) * 3.0
    m1 = from_potential(g, V1)
    m2 = from_potential(g, V2)
    if with_blocked:
        k = int(rng.integers(1, 4))
        mask = np.ones(g.n_cells, dtype=bool)
        mask[-k:] = False
        m2 = add(m2, from_quasi_open(g, mask))
    if with_atoms and g.p > g.dim:
        node = int(rng.integers(g.n_nodes))
        extra = float(rng.random())
        base = float(rng.random())
        m1 = CapacitaryMeasure(g, m1.density, m1.blocked, ((node, base),))
        m2 = CapacitaryMeasure(g, m2.density, m2.blocked,
                               ((node, base + extra),))
    assert leq(m1, m2)
    return m1, m2


def test_c06_monotonicity_suite():
    t0 = time.monotonic()
    g = GridSpec(1, 32, (1.0,), 2.0)
    w = lebesgue_weights(g)
    rng = np.random.default_rng(2024)
    for trial in range(100):
        m1, m2 = _random_measure_pair(g, rng, with_blocked=trial % 4 == 1,
                                      with_atoms=trial % 5 == 2)
        ctx1 = EnergyContext(g, m1, w)
        ctx2 = EnergyContext(g, m2, w)
        r1 = eigen_minimax(ctx1, 3, seed=trial)
        r2 = eigen_minimax(ctx2, 3, seed=trial)
        for m in range(3):
            assert r1.lambdas[m] <= r2.lambdas[m] + 1e-9
        record_pairs(ctx1, r1)
        record_pairs(ctx2, r2)
    g3 = GridSpec(1, 16, (1.0,), 3.0)
    w3 = lebesgue_weights(g3)
    rng3 = np.random.default_rng(77)
    for trial in range(20):
        m1, m2 = _random_measure_pair(g3, rng3, with_blocked=False,
                                      with_atoms=trial % 5 == 2)
        ctx1 = EnergyContext(g3, m1, w3)
        ctx2 = EnergyContext(g3, m2, w3)
        r1 = eigen_minimax(ctx1, 3, seed=trial, options=FAST)
        r2 = eigen_minimax(ctx2, 3, seed=trial, options=FAST)
        for m in range(3):
            scale = max(abs(r1.lambdas[m]), abs(r2.lambdas[m]), 1.0)
            assert r1.lambdas[m] <= r2.lambdas[m] + 1e-4 * scale
        record_pairs(ctx1, r1)
        record_pairs(ctx2, r2)
    report(6, "monotonicity suite", f"100 pairs p=2 (1e-9), 20 pairs p=3 "
           f"(1e-4), {time.monotonic() - t0:.1f}s")


def test_general_p_levels_stay_below_their_subspace_bounds():
    # criterion 06's p = 3 inputs, the 2D unit square at p = 3 (n = 16 and
    # 40) and the one-atom problem of configs/solve_dirac_p3.json: a
    # level's eigenvalue never exceeds the sup over its best subspace, and
    # a finite level's not even by round-off
    g3 = GridSpec(1, 16, (1.0,), 3.0)
    w3 = lebesgue_weights(g3)
    rng3 = np.random.default_rng(77)
    runs = []
    for trial in range(20):
        pair = _random_measure_pair(g3, rng3, with_blocked=False,
                                    with_atoms=trial % 5 == 2)
        runs += [eigen_minimax(EnergyContext(g3, mu, w3), 3, seed=trial,
                               options=FAST) for mu in pair]
    for n in (16, 40):
        sq = GridSpec(2, n, (1.0, 1.0), 3.0)
        runs.append(eigen_minimax(EnergyContext(
            sq, zero_measure(sq), lebesgue_weights(sq)), 3, seed=1))
    line = GridSpec(1, 128, (2.0,), 3.0)
    runs.append(eigen_minimax(EnergyContext(
        line, zero_measure(line), WeightPair(line, 0.0, ((63, 1.0),))), 2))
    for r in runs:
        for lam, bound, status in zip(r.lambdas, r.subspace_bounds,
                                      r.statuses):
            if status == "finite":
                assert lam <= bound
            elif math.isfinite(lam):
                assert lam <= bound + 1e-9 * max(abs(lam), 1.0)


def _half_wall_sequence(n=128):
    g = GridSpec(1, n, (1.0,), 2.0)
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    return g, blocked_limit_sequence(g, mask, [10.0, 1e3, 1e6])


def test_c07_gamma_convergence_semicontinuity():
    g, seq = _half_wall_sequence()
    w = lebesgue_weights(g)
    dists = [gamma_distance(mu, seq.limit) for mu in seq.elements]
    assert dists[0] > dists[1] > dists[2]
    rep = lsc_check(seq, w, 1)
    assert rep.passed and not rep.inconclusive
    vals = rep.tail_values
    assert vals == sorted(vals)
    gap = (rep.limit_value - vals[-1]) / rep.limit_value
    assert 0.0 <= gap <= 1e-3
    rep_usc = usc_check(seq, w, 1)
    assert rep_usc.passed and not rep_usc.inconclusive
    report(7, "gamma-convergence semicontinuity",
           f"distances {dists[0]:.2e}->{dists[2]:.2e}, "
           f"limit gap {gap:.1e}, lsc margin {rep.margin:+.2e}, "
           f"usc margin {rep_usc.margin:+.2e}")


def test_c08_psi_volume_lsc():
    g, seq = _half_wall_sequence()
    rep = psi_lsc_check(seq, PsiSpec("exp", 1.0))
    assert rep.passed
    report(8, "psi-volume lower semicontinuity",
           f"limit {rep.limit_value:.6f}, margin {rep.margin:+.2e}")


def test_c09_moreau_yosida_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    ps = [1.5, 2.0, 3.0]
    k_ladder = (1.0, 10.0, 100.0, 1000.0)
    checks = 0
    ladders = 0
    while checks < 50:
        p = ps[ladders % 3]
        g = GridSpec(1, 32, (1.0,), p)
        V = rng.random(g.n_cells) * 3.0
        mu = from_potential(g, V)
        if ladders % 4 == 3:
            mask = np.ones(g.n_cells, dtype=bool)
            mask[-3:] = False
            mu = add(mu, from_quasi_open(g, mask))
        ctx = EnergyContext(g, mu, lebesgue_weights(g))
        z_raw = rng.standard_normal(g.n_nodes)
        z = Field(g, ctx.project_dirichlet(z_raw))   # keep f_mu(z) finite
        fz = f_energy(ctx, z)
        assert math.isfinite(fz)
        dists = []
        for k in k_ladder:
            v, rep = prox(z, k, mu)
            lhs = (k / p) * field_distance_p(v, z) ** p + f_energy(ctx, v)
            assert lhs <= fz + 1e-10
            checks += 1
            dists.append(field_distance_p(v, z))
        assert dists == sorted(dists, reverse=True)
        ladders += 1
    report(9, "moreau-yosida bound", f"{checks} bound checks over "
           f"{ladders} (z, mu) ladders, {time.monotonic() - t0:.1f}s")


def test_c10_potential_optimization_saturation():
    g = GridSpec(1, 64, (1.0,), 2.0)
    w = lebesgue_weights(g)
    psi = PsiSpec("exp", 1.0)
    res = optimize_potential(g, w, ObjectiveSpec("single", 1),
                             ConstraintSpec("psi_budget", 0.5, psi), seed=0)
    assert abs(res.constraint_value - 0.5) <= 1e-6 * 0.5
    baseline_mu = from_potential(g, psi.inverse(0.5 / g.box_volume))
    base = eigen_minimax(EnergyContext(g, baseline_mu, w), 1).lambdas[0]
    margin = base - res.objective
    assert margin > 0.0
    ctx_star = EnergyContext(g, from_potential(g, res.potential), w)
    record_pairs(ctx_star, res.spectrum)
    report(10, "potential optimization saturation",
           f"|psi_volume - c| = {abs(res.constraint_value - 0.5):.1e}, "
           f"objective margin {margin:.3f}")


def test_c11_set_optimization_faber_krahn():
    t0 = time.monotonic()
    g = GridSpec(2, 64, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    res = optimize_set(g, w, ObjectiveSpec("single", 1),
                       ConstraintSpec("volume", 0.5), seed=0, n_starts=5)
    disk = disk_first_eigenvalue(0.5)
    rel = abs(res.objective - disk) / disk
    assert rel <= 0.05
    assert int(res.mask.sum()) == int(round(0.5 / g.cell_volume))
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    ctx_star = EnergyContext(g, from_quasi_open(g, res.mask), w)
    record_pairs(ctx_star, res.spectrum)
    report(11, "set optimization faber-krahn",
           f"lambda1(A*) = {res.objective:.3f} vs disk {disk:.3f} "
           f"(rel {rel:.1%}), cells {int(res.mask.sum())}, {elapsed:.0f}s")


def test_c12_eigenpair_certification():
    assert REPORTED_PAIRS, "earlier criteria must register eigenpairs"
    for ctx, u, lam in REPORTED_PAIRS:
        assert certify(ctx, u, lam)
    report(12, "eigenpair certification",
           f"{len(REPORTED_PAIRS)} pairs at 1e-6 relative")


def test_c13_gradient_correctness():
    from plapopt.energy import energy_gradient, g_energy, g_gradient
    rng = np.random.default_rng(11)
    checked = 0
    for p in (1.5, 2.0, 3.0):
        g = GridSpec(1, 24, (1.0,), p)
        mu = from_potential(g, 0.8)
        w = WeightPair(g, 1.0, ((5, 0.4),), 0.3)
        ctx = EnergyContext(g, mu, w)
        x = g.axis_nodes()
        for _ in range(20):
            c = rng.standard_normal(4)
            u0 = (3.0 * np.sin(math.pi * x) + c[0] * np.sin(2 * math.pi * x)
                  + c[1] * np.sin(3 * math.pi * x)
                  + 0.5 * c[2] * np.sin(4 * math.pi * x))
            v = rng.standard_normal(g.n_nodes)
            fd = central_diff_directional(
                lambda a: f_energy(ctx, Field(g, a)), u0, v)
            an = float(np.dot(energy_gradient(ctx, Field(g, u0)).flat, v))
            assert math.isclose(fd, an, rel_tol=1e-5)
            for which in (1, 2):
                fdg = central_diff_directional(
                    lambda a: g_energy(ctx, Field(g, a), which), u0, v)
                ang = float(np.dot(
                    g_gradient(ctx, Field(g, u0), which).flat, v))
                assert math.isclose(fdg, ang, rel_tol=1e-5)
            checked += 1
    report(13, "gradient correctness", f"{checked} fields x 3 gradients "
           f"at 1e-5")


RESULT_FILES = {
    "solve": ("results.json", "results.csv", "field_m1.csv"),
    "torsion": ("results.json", "w.csv"),
    "gamma-diag": ("report.json",),
    "optimize-potential": ("results.json", "history.csv", "V.csv"),
    "optimize-set": ("results.json", "history.csv", "mask.csv",
                     "field_m1.csv"),
}


def _determinism_configs():
    n = 48
    half = [1] * (n // 2) + [0] * (n // 2)
    return {
        "solve": {
            "grid": {"dim": 1, "n": 128, "lengths": [1.0], "p": 2.0},
            "seed": 1,
            "measure": {"kind": "potential", "density": 1.0},
            "weights": {"w1": 1.0},
            "solver": {"m_max": 3},
        },
        "torsion": {
            "grid": {"dim": 1, "n": 64, "lengths": [1.0], "p": 3.0},
            "seed": 1,
            "measure": {"kind": "zero"},
        },
        "gamma-diag": {
            "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": 2.0},
            "seed": 1,
            "weights": {"w1": 1.0},
            "gamma": {"mask": half, "s_values": [10.0, 1e3, 1e6], "m": 1,
                      "psi": {"kind": "exp", "beta": 1.0}},
        },
        "optimize-potential": {
            "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": 2.0},
            "seed": 1,
            "weights": {"w1": 1.0},
            "objective": {"kind": "single", "k": 1},
            "constraint": {"kind": "psi_budget", "c": 0.5,
                           "psi": {"kind": "exp", "beta": 1.0}},
        },
        # n = 44 forces the sparse Lanczos pencil path
        "optimize-set": {
            "grid": {"dim": 2, "n": 44, "lengths": [1.0, 1.0], "p": 2.0},
            "seed": 1,
            "weights": {"w1": 1.0},
            "objective": {"kind": "single", "k": 1},
            "constraint": {"kind": "volume", "c": 0.5},
            "options": {"n_starts": 2},
        },
    }


def test_c14_determinism(tmp_path):
    t0 = time.monotonic()
    compared = 0
    for sub, cfg in _determinism_configs().items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{sub}-{run}"
            code = cli_main([sub, "--config", str(cfg_path), "--out",
                             str(out), "--quiet"])
            assert code == 0, (sub, code)
            outs.append(out)
        for name in RESULT_FILES[sub]:
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{sub}/{name} differs between runs"
            compared += 1
    report(14, "determinism", f"{compared} result files byte-identical "
           f"across reruns, {time.monotonic() - t0:.1f}s")
