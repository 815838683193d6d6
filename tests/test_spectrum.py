import math

import numpy as np
import pytest

from plapopt.grid import GridSpec, Field, field_from_function
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    from_potential,
    from_quasi_open,
    lebesgue_weights,
    zero_measure,
)
from plapopt.energy import EnergyContext, rayleigh
from plapopt.spectrum import (
    InfeasibleSubspace,
    SolverOptions,
    SubspaceCandidate,
    certify,
    eigen_first,
    eigen_minimax,
    sup_on_sphere,
)
from oracles import dense_eigs_1d, pi_p, shoot_first_eigenvalue_1d

FAST = SolverOptions(n_starts=12, max_ascent_iter=80, max_outer_iter=8)


def plain_ctx(n, p=2.0, dim=1, length=1.0):
    g = GridSpec(dim, n, (length,) * dim, p)
    return EnergyContext(g, zero_measure(g), lebesgue_weights(g))


def embed(ctx, free, x):
    v = np.zeros(ctx.grid.n_nodes)
    v[free] = x
    return Field(ctx.grid, v)


def test_candidate_independence_check():
    g = GridSpec(1, 16, (1.0,), 2.0)
    u = field_from_function(g, lambda x: np.sin(math.pi * x))
    with pytest.raises(ValueError, match="dependent"):
        SubspaceCandidate((u, Field(g, 2.0 * u.values)))


def test_sup_single_ray_is_rayleigh():
    ctx = plain_ctx(32, p=3.0)
    u = field_from_function(ctx.grid, lambda x: np.sin(math.pi * x))
    val, xi = sup_on_sphere(ctx, SubspaceCandidate((u,)), seed=0)
    assert math.isclose(val, rayleigh(ctx, u), rel_tol=1e-12)
    # the coefficient-space energies agree with the field energies at the
    # argmax, with a density, sign-changing weights and (p = 3) atoms
    rng = np.random.default_rng(8)
    for p in (1.5, 3.0):
        g = GridSpec(1, 16, (1.0,), p)
        atoms = ((4, 0.6),) if p == 3.0 else ()
        mu = CapacitaryMeasure(g, 2.0 * rng.random(16), np.zeros(16, bool),
                               atoms)
        weights = WeightPair(g, 1.0, atoms, 0.3 * rng.random(16))
        ctx = EnergyContext(g, mu, weights)
        x = g.axis_nodes()
        for m in (2, 3):
            cand = SubspaceCandidate(tuple(
                Field(g, np.sin(j * math.pi * x)) for j in range(1, m + 1)))
            val, xi = sup_on_sphere(ctx, cand, seed=0, options=FAST)
            assert math.isclose(val, rayleigh(ctx, cand.combine(xi)),
                                rel_tol=1e-12)


def test_sup_two_dense_eigenvectors_gives_second():
    n = 64
    ctx = plain_ctx(n)
    lams, vecs, free = dense_eigs_1d(
        n, 1.0, np.zeros(n), np.ones(n), np.zeros(n), 2)
    cand = SubspaceCandidate((embed(ctx, free, vecs[0]),
                              embed(ctx, free, vecs[1])))
    val, xi = sup_on_sphere(ctx, cand, seed=0)
    assert math.isclose(val, lams[1], rel_tol=1e-10)


def test_sup_dirac_two_dim_infeasible():
    # a single atom supports only one positive direction; every 2-sphere
    # crosses the cone boundary
    g = GridSpec(1, 32, (2.0,), 3.0)
    w = WeightPair(g, 0.0, ((g.n // 2 - 1, 1.0),))
    ctx = EnergyContext(g, zero_measure(g), w)
    x = g.axis_nodes()
    cand = SubspaceCandidate((
        Field(g, np.sin(math.pi * x / 2.0)),
        Field(g, np.sin(math.pi * x)),
    ))
    with pytest.raises(InfeasibleSubspace):
        sup_on_sphere(ctx, cand, seed=0)


def test_eigen_first_p2_matches_oracle():
    n = 128
    ctx = plain_ctx(n)
    lam, u, res = eigen_first(ctx)
    lams, _, _ = dense_eigs_1d(n, 1.0, np.zeros(n), np.ones(n),
                               np.zeros(n), 1)
    assert math.isclose(lam, lams[0], rel_tol=1e-12)
    assert res <= 1e-10
    denom_norm = abs(rayleigh(ctx, u) - lam)
    assert denom_norm < 1e-12


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_first_general_p(p):
    n = 128
    ctx = plain_ctx(n, p=p)
    lam, u, res = eigen_first(ctx, seed=0, options=FAST)
    shot = shoot_first_eigenvalue_1d(p)
    assert math.isclose(shot, (p - 1.0) * pi_p(p) ** p, rel_tol=1e-8)
    assert math.isclose(lam, shot, rel_tol=2e-2)
    assert certify(ctx, u, lam)


def test_eigen_first_dirac_green_function():
    # nu1 = delta at the center of (-1,1): lambda1 = 1 / w(0)^{p-1} = 2
    g = GridSpec(1, 64, (2.0,), 3.0)
    w = WeightPair(g, 0.0, ((g.n // 2 - 1, 1.0),))
    ctx = EnergyContext(g, zero_measure(g), w)
    lam, u, res = eigen_first(ctx, seed=0, options=FAST)
    assert math.isclose(lam, 2.0, rel_tol=2e-2)
    assert certify(ctx, u, lam)


def test_eigen_first_half_interval():
    n = 128
    g = GridSpec(1, n, (1.0,), 2.0)
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    ctx = EnergyContext(g, from_quasi_open(g, mask), lebesgue_weights(g))
    lam, u, res = eigen_first(ctx)
    assert math.isclose(lam, 4.0 * math.pi ** 2, rel_tol=1e-2)


def test_eigen_minimax_p2_oracle_match():
    n = 64
    ctx = plain_ctx(n)
    result = eigen_minimax(ctx, 4, seed=0)
    lams, _, _ = dense_eigs_1d(n, 1.0, np.zeros(n), np.ones(n),
                               np.zeros(n), 4)
    for m in range(4):
        assert math.isclose(result.lambdas[m], lams[m], rel_tol=1e-6)
        assert result.statuses[m] == "finite"
    assert result.lambdas == sorted(result.lambdas)


def test_eigen_minimax_2d_square():
    ctx = plain_ctx(48, dim=2)
    result = eigen_minimax(ctx, 4, seed=0)
    targets = [2.0, 5.0, 5.0, 8.0]
    for lam, t in zip(result.lambdas, targets):
        assert math.isclose(lam, t * math.pi ** 2, rel_tol=2e-2)
    assert abs(result.lambdas[1] - result.lambdas[2]) <= \
        2e-2 * result.lambdas[1]


def test_eigen_minimax_dirac_levels():
    g = GridSpec(1, 64, (2.0,), 3.0)
    w = WeightPair(g, 0.0, ((g.n // 2 - 1, 1.0),))
    ctx = EnergyContext(g, zero_measure(g), w)
    result = eigen_minimax(ctx, 3, seed=0, options=FAST)
    assert result.statuses == ["finite", "infeasible", "infeasible"]
    assert math.isclose(result.lambdas[0], 2.0, rel_tol=2e-2)
    assert result.lambdas[1] == math.inf


def test_eigen_minimax_monotone_in_mu_p2():
    n = 24
    g = GridSpec(1, n, (1.0,), 2.0)
    w = lebesgue_weights(g)
    rng = np.random.default_rng(2)
    for _ in range(10):
        V1 = rng.random(n) * 3.0
        V2 = V1 + rng.random(n) * 2.0
        r1 = eigen_minimax(EnergyContext(g, from_potential(g, V1), w), 3)
        r2 = eigen_minimax(EnergyContext(g, from_potential(g, V2), w), 3)
        for m in range(3):
            assert r1.lambdas[m] <= r2.lambdas[m] + 1e-9


def test_eigen_minimax_weight_scaling():
    # scaling nu1, nu2 by t divides every eigenvalue by t
    n = 24
    g = GridSpec(1, n, (1.0,), 2.0)
    mu = from_potential(g, 1.0)
    r1 = eigen_minimax(EnergyContext(g, mu, WeightPair(g, 1.0, (), 0.2)), 3)
    r2 = eigen_minimax(EnergyContext(g, mu, WeightPair(g, 3.0, (), 0.6)), 3)
    for m in range(3):
        assert math.isclose(r2.lambdas[m], r1.lambdas[m] / 3.0,
                            rel_tol=1e-10)


def test_eigen_minimax_p3_upper_bound_semantics():
    g = GridSpec(1, 24, (1.0,), 3.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    result = eigen_minimax(ctx, 2, seed=0, options=FAST)
    # an explicitly supplied candidate can only give a larger sup
    x = g.axis_nodes()
    cand = SubspaceCandidate((
        Field(g, np.sin(math.pi * x)),
        Field(g, np.sin(2.0 * math.pi * x)),
    ))
    val, _ = sup_on_sphere(ctx, cand, seed=1, options=FAST)
    assert result.lambdas[1] <= val + 1e-9
    assert result.lambdas == sorted(result.lambdas)
    assert all(s == "finite" for s in result.statuses)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_first_2d_general_p(p):
    # exercises the 2D gradient cross-blocks of the Newton polish
    g = GridSpec(2, 20, (1.0, 1.0), p)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    lam, u, res = eigen_first(ctx, seed=0, options=FAST)
    assert certify(ctx, u, lam)
    # the product-of-sines trial field gives an upper bound
    x = g.axis_nodes()
    trial = Field(g, np.outer(np.sin(math.pi * x), np.sin(math.pi * x)))
    assert lam <= rayleigh(ctx, trial) + 1e-9


def test_eigen_minimax_anisotropic_box():
    # (0,2)x(0,1): lambda_jk = pi^2 (j^2/4 + k^2)
    g = GridSpec(2, 32, (2.0, 1.0), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    result = eigen_minimax(ctx, 3, seed=0)
    exact = sorted(math.pi ** 2 * (j ** 2 / 4.0 + k ** 2)
                   for j in range(1, 4) for k in range(1, 3))[:3]
    for lam, t in zip(result.lambdas, exact):
        assert math.isclose(lam, t, rel_tol=1e-2)


def test_dense_and_sparse_pencil_paths_agree(monkeypatch):
    import plapopt.spectrum as spectrum_mod
    g = GridSpec(2, 24, (1.0, 1.0), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    dense = eigen_minimax(ctx, 4, seed=0)
    monkeypatch.setattr(spectrum_mod, "DENSE_DOF_LIMIT", 10)
    sparse = eigen_minimax(ctx, 4, seed=0)
    for a, b in zip(dense.lambdas, sparse.lambdas):
        assert math.isclose(a, b, rel_tol=1e-9)


def test_sign_changing_pencil_is_subspace_optimal():
    # with an indefinite weight form, lambda_m from the pencil must be
    # attained by its own top-m eigenvectors and undercut every random
    # feasible candidate
    n = 40
    g = GridSpec(1, n, (1.0,), 2.0)
    rng = np.random.default_rng(31)
    w2 = 0.4 * rng.random(n)
    weights = WeightPair(g, np.ones(n), (), w2)
    ctx = EnergyContext(g, zero_measure(g), weights)
    result = eigen_minimax(ctx, 3, seed=0)
    assert all(s == "finite" for s in result.statuses)
    for m in (2, 3):
        cand = SubspaceCandidate(tuple(result.eigenfields[:m]))
        val, _ = sup_on_sphere(ctx, cand, seed=0)
        assert math.isclose(val, result.lambdas[m - 1], rel_tol=1e-9)
    hits = 0
    for _ in range(40):
        fields = [Field(g, rng.standard_normal(g.n_nodes))
                  for _ in range(2)]
        try:
            val, _ = sup_on_sphere(ctx, SubspaceCandidate(tuple(fields)),
                                   seed=0)
        except InfeasibleSubspace:
            continue
        assert val >= result.lambdas[1] - 1e-9 * abs(val)
        hits += 1
    assert hits >= 5


def test_certify_behavior():
    n = 64
    ctx = plain_ctx(n)
    lam, u, _ = eigen_first(ctx)
    assert certify(ctx, u, lam)
    assert not certify(ctx, u, lam + 0.5)
    u2 = Field(ctx.grid, 2.0 * u.values)
    assert certify(ctx, u2, lam) == certify(ctx, u, lam)


def test_m_max_validation():
    ctx = plain_ctx(16)
    with pytest.raises(ValueError):
        eigen_minimax(ctx, 7)
    with pytest.raises(ValueError):
        eigen_minimax(ctx, 0)


def _weighted_ctx(p, rng):
    """1D n = 16: a density and an atom in mu, w1 = 1, w2 = 0.3 U(0, 1)."""
    g = GridSpec(1, 16, (1.0,), p)
    mu = CapacitaryMeasure(g, 2.0 * rng.random(16), np.zeros(16, bool),
                           ((5, 0.7),))
    return EnergyContext(g, mu, WeightPair(g, 1.0, (), 0.3 * rng.random(16)))


def _sine_candidate(g, m):
    x = g.axis_nodes()
    return SubspaceCandidate(tuple(
        Field(g, np.sin(j * math.pi * x) + 0.3 * np.sin((j + 2) * math.pi * x))
        for j in range(1, m + 1)))


def _theta_max(fun, count=2001):
    """Max of fun(theta) over [0, pi]: a dense scan, then a bounded Brent
    search on the bracket of the best scan point."""
    from scipy.optimize import minimize_scalar

    thetas = np.linspace(0.0, math.pi, count)
    vals = np.array([fun(t) for t in thetas])
    k = int(np.argmax(vals))
    h = thetas[1] - thetas[0]
    res = minimize_scalar(lambda t: -fun(t), method="bounded",
                          bounds=(thetas[k] - h, thetas[k] + h),
                          options={"xatol": 1e-11})
    return max(vals[k], -res.fun)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sup_on_sphere_matches_a_theta_scan_of_rayleigh(p):
    # the ratio is even, so the half circle (cos t, sin t), t in [0, pi],
    # covers every direction of the plane
    ctx = _weighted_ctx(p, np.random.default_rng(21))
    cand = _sine_candidate(ctx.grid, 2)
    val, _ = sup_on_sphere(ctx, cand, seed=0)
    best = _theta_max(lambda t: rayleigh(
        ctx, cand.combine(np.array([math.cos(t), math.sin(t)]))))
    assert math.isclose(val, best, rel_tol=1e-7)


def _reference_sup(ev, starts, max_iter):
    """The per-start ascent loop that the block search runs row by row."""
    best_val, best_xi = -math.inf, None
    for xi in starts:
        xi = xi / np.linalg.norm(xi)
        val, grad = ev.ratio_grad(xi)
        if not math.isfinite(val):
            continue
        step = 0.5
        for _ in range(max_iter):
            tang = grad - np.dot(grad, xi) * xi
            tn = np.linalg.norm(tang)
            if tn <= 1e-11 * max(1.0, abs(val)):
                break
            moved = False
            while step > 1e-14:
                xi_new = xi + step * tang / tn
                xi_new = xi_new / np.linalg.norm(xi_new)
                val_new, grad_new = ev.ratio_grad(xi_new)
                if math.isfinite(val_new) and val_new > val:
                    xi, val, grad = xi_new, val_new, grad_new
                    moved = True
                    step *= 1.7
                    break
                step *= 0.5
            if not moved:
                break
        if val > best_val:
            best_val, best_xi = val, xi
    return best_val, best_xi


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_block_ascent_repeats_the_per_start_loop(p):
    from plapopt.spectrum import _SubspaceEval, _starts, _sup_general

    ctx = _weighted_ctx(p, np.random.default_rng(22))
    ev = _SubspaceEval.of_candidate(ctx, _sine_candidate(ctx.grid, 3))
    starts = _starts(3, 16, np.random.default_rng(5))
    val, xi = _sup_general(ev, starts, FAST)
    ref_val, ref_xi = _reference_sup(ev, starts, FAST.max_ascent_iter)
    assert val == ref_val
    np.testing.assert_array_equal(xi, ref_xi)


def test_g1_floor_bounds_g1_on_the_sphere():
    from plapopt.energy import g_energy
    from plapopt.spectrum import (_SubspaceEval, _sphere_denominator_scale,
                                  _sphere_g1_floor, _sphere_min_denominator,
                                  _starts)

    rng = np.random.default_rng(23)
    fired = 0
    for trial in range(12):
        p = (1.5, 3.0)[trial % 2]
        g = GridSpec(1, 16, (1.0,), p)
        w1 = rng.random(16) * (rng.random(16) < 0.6)
        atoms = ((int(rng.integers(15)), float(rng.random())),) \
            if trial % 3 == 0 else ()
        ctx = EnergyContext(g, zero_measure(g), WeightPair(g, w1, atoms))
        cand = SubspaceCandidate(tuple(
            Field(g, rng.standard_normal(g.n_nodes)) for _ in range(2)))
        ev = _SubspaceEval.of_candidate(ctx, cand)
        floor = _sphere_g1_floor(ev)
        threshold = 1e-10 * _sphere_denominator_scale(ev)
        if floor <= threshold:
            continue
        fired += 1
        low = -_theta_max(lambda t: -g_energy(
            ctx, cand.combine(np.array([math.cos(t), math.sin(t)])), 1))
        assert low >= floor
        # the descent it replaces reaches the same verdict
        starts = _starts(2, 10, np.random.default_rng(trial))
        assert _sphere_min_denominator(ev, starts) > threshold
    assert fired >= 8


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sphere_crossing_the_cone_with_nu2_raises(p):
    from plapopt.spectrum import _SubspaceEval, _sphere_g1_floor

    g = GridSpec(1, 16, (1.0,), p)
    left = np.arange(16) < 8
    ctx = EnergyContext(g, zero_measure(g),
                        WeightPair(g, left.astype(float), (), 2.0 * ~left))
    x = g.axis_nodes()
    cand = SubspaceCandidate((Field(g, np.sin(2 * math.pi * x) * (x < 0.5)),
                              Field(g, np.sin(2 * math.pi * x) * (x > 0.5))))
    assert _sphere_g1_floor(_SubspaceEval.of_candidate(ctx, cand)) == 0.0
    with pytest.raises(InfeasibleSubspace):
        sup_on_sphere(ctx, cand, seed=0)
