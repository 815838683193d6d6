import math

import numpy as np
import pytest

import plapopt.optimize as optimize_module
from plapopt.grid import GridSpec
from plapopt.measure import PsiSpec, from_potential, \
    lebesgue_weights, zero_measure
from plapopt.energy import EnergyContext
from plapopt.spectrum import eigen_minimax
from plapopt.optimize import (
    ConstraintSpec,
    InfeasibleConstraint,
    ObjectiveSpec,
    objective_eval,
    optimize_potential,
    optimize_set,
    project_psi_budget,
    psi_volume_of,
)
from oracles import disk_first_eigenvalue


def test_objective_eval_kinds():
    lams = [9.87, 39.5]
    assert objective_eval(ObjectiveSpec("single", 1), lams) == 9.87
    assert math.isclose(
        objective_eval(ObjectiveSpec("weighted_sum", weights=(1.0, 1.0)),
                       lams), 49.37)
    assert objective_eval(ObjectiveSpec("max_of", 2), lams) == 39.5
    assert objective_eval(ObjectiveSpec("max_of", 2),
                          [9.87, math.inf]) == math.inf


def test_objective_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec("nope", 1)
    with pytest.raises(ValueError):
        ObjectiveSpec("weighted_sum", weights=(-1.0,))
    with pytest.raises(ValueError):
        ObjectiveSpec("single", 7)


def test_constraint_validation():
    with pytest.raises(ValueError):
        ConstraintSpec("volume", 0.0)
    with pytest.raises(ValueError):
        ConstraintSpec("psi_budget", 1.0)  # missing psi
    g = GridSpec(1, 16, (1.0,), 2.0)
    with pytest.raises(InfeasibleConstraint):
        ConstraintSpec("volume", 2.0).validate_for(g)
    with pytest.raises(InfeasibleConstraint):
        ConstraintSpec("psi_budget", 1.5,
                       PsiSpec("exp", 1.0)).validate_for(g)


def test_project_psi_budget_scalar_cases():
    g = GridSpec(1, 32, (1.0,), 2.0)
    psi = PsiSpec("exp", 1.0)
    # V = 0 with c < |box|: uniform solution Psi(V)|box| = c
    V = project_psi_budget(np.zeros(32), 0.5, psi, g)
    assert np.allclose(V, math.log(2.0), rtol=1e-8)
    # already saturated potentials stay put
    V2 = project_psi_budget(V, 0.5, psi, g)
    assert np.allclose(V2, V, atol=1e-9)
    # idempotence within the bisection tolerance
    rng = np.random.default_rng(0)
    W = rng.random(32) * 3.0
    P1 = project_psi_budget(W, 0.3, psi, g)
    P2 = project_psi_budget(P1, 0.3, psi, g)
    assert np.allclose(P1, P2, atol=1e-8)
    assert abs(psi_volume_of(g, P1, psi) - 0.3) <= 1e-9 * 0.3


def test_optimize_potential_vacuous_budget():
    # c = Psi(0) |box|: the zero potential is admissible and optimal
    g = GridSpec(1, 48, (1.0,), 2.0)
    w = lebesgue_weights(g)
    con = ConstraintSpec("psi_budget", 1.0, PsiSpec("exp", 1.0))
    res = optimize_potential(g, w, ObjectiveSpec("single", 1), con, seed=0)
    assert np.allclose(res.potential, 0.0, atol=1e-9)
    box = eigen_minimax(EnergyContext(g, zero_measure(g), w), 1)
    assert math.isclose(res.objective, box.lambdas[0], rel_tol=1e-9)


def test_optimize_potential_saturation_and_improvement():
    g = GridSpec(1, 64, (1.0,), 2.0)
    w = lebesgue_weights(g)
    psi = PsiSpec("exp", 1.0)
    con = ConstraintSpec("psi_budget", 0.5, psi)
    res = optimize_potential(g, w, ObjectiveSpec("single", 1), con, seed=0)
    assert abs(res.constraint_value - 0.5) <= 1e-6 * 0.5
    # strictly below the uniform baseline V = ln 2
    baseline_mu = from_potential(g, math.log(2.0))
    base = eigen_minimax(EnergyContext(g, baseline_mu, w), 1).lambdas[0]
    assert res.objective < base - 1e-3
    # accepted objective is nonincreasing, budget holds at every iterate
    objs = [row.objective for row in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert all(abs(row.constraint - 0.5) <= 1e-6 * 0.5
               for row in res.history)
    # the wall sits near the boundary: edge potential far above center
    V = res.potential
    assert V[0] > 10.0 * V[len(V) // 2]


def test_optimize_potential_infeasible_budget():
    g = GridSpec(1, 16, (1.0,), 2.0)
    con = ConstraintSpec("psi_budget", 1.5, PsiSpec("exp", 1.0))
    with pytest.raises(InfeasibleConstraint):
        optimize_potential(g, lebesgue_weights(g),
                           ObjectiveSpec("single", 1), con, seed=0)


def test_optimize_set_full_volume_trivial(monkeypatch):
    g = GridSpec(2, 12, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eigen_minimax(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "eigen_minimax", counting)
    res = optimize_set(g, w, ObjectiveSpec("single", 1),
                       ConstraintSpec("volume", 1.0), seed=0)
    assert res.mask.all()
    box = eigen_minimax(EnergyContext(g, zero_measure(g), w), 1)
    assert math.isclose(res.objective, box.lambdas[0], rel_tol=1e-9)
    # the full box is one hard solve, and its one row reads the set volume
    assert len(calls) == 1
    assert len(res.history) == 1
    assert res.history[0].constraint == res.constraint_value


def test_optimize_set_weighted_sum_follows_its_weights():
    # a weight of 1e-12 on lambda_2 leaves the set of lambda_1 alone: the
    # thresholded density carries the objective's weights
    g = GridSpec(2, 16, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    volume = ConstraintSpec("volume", 0.5)
    single = optimize_set(g, w, ObjectiveSpec("single", 1), volume, seed=0,
                          n_starts=1)
    summed = optimize_set(g, w, ObjectiveSpec("weighted_sum",
                                              weights=(1.0, 1e-12)),
                          volume, seed=0, n_starts=1)
    assert np.array_equal(summed.mask, single.mask)
    assert math.isclose(summed.objective, single.objective, rel_tol=1e-9)


def test_optimize_set_faber_krahn_small():
    g = GridSpec(2, 32, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    res = optimize_set(g, w, ObjectiveSpec("single", 1),
                       ConstraintSpec("volume", 0.5), seed=0, n_starts=2)
    assert int(res.mask.sum()) == g.n_cells // 2
    disk = disk_first_eigenvalue(0.5)
    assert res.objective <= 1.08 * disk
    # domain monotonicity sanity: never beats the full box
    box = eigen_minimax(EnergyContext(g, zero_measure(g), w), 1).lambdas[0]
    assert res.objective >= box - 1e-9
    # accepted objective nonincreasing
    objs = [row.objective for row in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_optimize_set_volume_monotonicity():
    g = GridSpec(2, 24, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    res_small = optimize_set(g, w, ObjectiveSpec("single", 1),
                             ConstraintSpec("volume", 0.4), seed=0,
                             n_starts=2)
    res_large = optimize_set(g, w, ObjectiveSpec("single", 1),
                             ConstraintSpec("volume", 0.5), seed=0,
                             n_starts=2)
    assert res_small.objective >= res_large.objective - 1e-9


@pytest.mark.parametrize("n", [16, 44])  # 44^2 nodes take the sparse path
def test_optimize_set_determinism(n):
    g = GridSpec(2, n, (1.0, 1.0), 2.0)
    w = lebesgue_weights(g)
    kwargs = dict(seed=7, n_starts=2)
    r1 = optimize_set(g, w, ObjectiveSpec("single", 1),
                      ConstraintSpec("volume", 0.5), **kwargs)
    r2 = optimize_set(g, w, ObjectiveSpec("single", 1),
                      ConstraintSpec("volume", 0.5), **kwargs)
    assert np.array_equal(r1.mask, r2.mask)
    assert r1.objective == r2.objective


def test_optimize_potential_determinism():
    g = GridSpec(1, 32, (1.0,), 2.0)
    w = lebesgue_weights(g)
    con = ConstraintSpec("psi_budget", 0.6, PsiSpec("exp", 1.0))
    r1 = optimize_potential(g, w, ObjectiveSpec("single", 1), con, seed=3)
    r2 = optimize_potential(g, w, ObjectiveSpec("single", 1), con, seed=3)
    assert np.array_equal(r1.potential, r2.potential)
    assert r1.objective == r2.objective
