import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    from_potential,
    from_quasi_open,
    lebesgue_weights,
    zero_measure,
)
from plapopt.energy import EnergyContext, rayleigh
from plapopt.operators import free_node_mask
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
from helpers import field_from_function

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


def check_closed_form_levels(p, m):
    # lambda_k = (p - 1) (k pi_p / L)^p on (0, L) (Drabek & Manasevich,
    # Differential Integral Equations 1999), approached at second order
    exact = (p - 1.0) * (np.arange(1, m + 1) * pi_p(p)) ** p
    errors = []
    for n in (32, 64):
        result = eigen_minimax(plain_ctx(n, p=p), m, seed=1)
        assert result.statuses == ["finite"] * m
        errors.append(np.array(result.lambdas) / exact - 1.0)
    assert np.abs(errors[0]).max() <= 3.5e-2
    assert np.abs(errors[1]).max() <= 7.5e-3
    order = np.log2(errors[0] / errors[1])
    assert np.all((order >= 1.8) & (order <= 2.3)), order


def test_eigen_minimax_1d_p3_levels_match_the_closed_form():
    check_closed_form_levels(3.0, 4)


def test_eigen_minimax_1d_p15_levels_match_the_closed_form():
    # levels 1-3 err by -5.7e-4, -2.0e-3 and -6.3e-3 at n = 32, observed
    # orders 1.90, 1.84 and 1.99; level 4 converges at order 1.71 at
    # p = 1.5, below the second-order range, so it is left out
    check_closed_form_levels(1.5, 3)


@pytest.mark.parametrize("n", [32, 64])
def test_p12_levels_certify_in_1d(n):
    # level 2 stopped at residual 1.5e-5 against the 7.9e-6 the rule asks
    # when it was polished only after the whole outer descent (n = 32)
    result = eigen_minimax(plain_ctx(n, p=1.2), 3, seed=1)
    assert result.statuses == ["finite"] * 3


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


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_eigen_first_without_feasible_field_raises(p):
    # w2 = w1, so g1 - g2 vanishes for every field
    g = GridSpec(1, 32, (1.0,), p)
    ctx = EnergyContext(g, zero_measure(g), WeightPair(g, 1.0, (), 1.0))
    with pytest.raises(InfeasibleSubspace):
        eigen_first(ctx, seed=0, options=FAST)


def test_eigen_first_unconverged_pencil_raises(monkeypatch):
    # above the dense limit, a Lanczos run that converged no pair leaves
    # level 1 unknown: an error, not an infeasible level
    def no_pair(B, *args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((B.shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", no_pair)
    with pytest.raises(RuntimeError, match="not converged"):
        eigen_first(plain_ctx(40, dim=2))


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


def test_p2_eigenfields_do_not_carry_the_eigensolver_sign(monkeypatch):
    # the pencil's sign of each vector is arbitrary and f, g1, g2 are even:
    # every field comes back with its first peak positive, so a solver
    # that returns -v moves no lambda, residual, status or field value
    import plapopt.spectrum as spectrum_mod
    ctx = plain_ctx(16, dim=2)
    result = eigen_minimax(ctx, 4, seed=0)
    real = spectrum_mod._pencil_positive_eigs

    def negated(ctx, m_max):
        lams, rows, idx, complete = real(ctx, m_max)
        return lams, [-row for row in rows], idx, complete

    monkeypatch.setattr(spectrum_mod, "_pencil_positive_eigs", negated)
    flipped = eigen_minimax(ctx, 4, seed=0)
    assert result.statuses == flipped.statuses == ["finite"] * 4
    assert [repr(lam) for lam in result.lambdas] == [
        repr(lam) for lam in flipped.lambdas]
    assert result.residuals == flipped.residuals
    for u, v in zip(result.eigenfields, flipped.eigenfields):
        assert u.flat[np.argmax(np.abs(u.flat))] > 0
        assert np.array_equal(u.values, v.values)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_general_p_eigenfields_do_not_carry_the_argmax_sign(p, monkeypatch):
    # the polish returns the sign of the inner argmax, which round-off can
    # flip: every field comes back with its first peak positive, so
    # a polish that returns -u moves no lambda, residual, status or field
    import plapopt.spectrum as spectrum_mod
    g = GridSpec(2, 8, (1.0, 1.0), p)
    ctx = EnergyContext(g, zero_measure(g), WeightPair(g, 1.0, (), np.where(
        g.cell_centers()[..., 0] > 0.6, 2.0, 0.0)))
    result = eigen_minimax(ctx, 3, seed=0, options=FAST)
    real = spectrum_mod.polish_eigenpair

    def negated(ctx, u):
        lam, field, res = real(ctx, u)
        return lam, Field(field.grid, -field.values), res

    monkeypatch.setattr(spectrum_mod, "polish_eigenpair", negated)
    flipped = eigen_minimax(ctx, 3, seed=0, options=FAST)
    assert result.statuses == flipped.statuses
    assert result.statuses[0] == "finite"
    assert [repr(lam) for lam in result.lambdas] == [
        repr(lam) for lam in flipped.lambdas]
    assert result.residuals == flipped.residuals
    for u, v in zip(result.eigenfields, flipped.eigenfields):
        assert u.flat[np.argmax(np.abs(u.flat))] > 0
        assert np.array_equal(u.values, v.values)


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


def _pencil_cases(n):
    """2D weight pairs on the unit square: Lebesgue, sign-changing w2,
    partial w1 with blocked cells, and a pair invariant under x <-> y and
    both mirror lines, whose symmetry makes lambda2 = lambda3 exact."""
    g = GridSpec(2, n, (1.0, 1.0), 2.0)
    x, y = g.cell_centers()[..., 0], g.cell_centers()[..., 1]
    blocked = np.zeros(g.cells_shape, dtype=bool)
    blocked[10:13, 6:9] = True
    # cell (i + 1, j + 1) weighs node (i, j), so the symmetric pattern is
    # laid out on the interior nodes
    node = np.arange(n - 1) - (n - 2) / 2.0
    ring = np.hypot(*np.meshgrid(node, node, indexing="ij")) < n / 4.0
    w2_sym = np.zeros(g.cells_shape)
    w2_sym[1:, 1:] = 2.5 * ring
    return {
        "lebesgue": EnergyContext(g, zero_measure(g), lebesgue_weights(g)),
        "sign-changing": EnergyContext(
            g, zero_measure(g),
            WeightPair(g, 1.0, (), np.where(x > 0.7, 2.5, 0.0))),
        "partial-w1-blocked": EnergyContext(
            g, CapacitaryMeasure(g, np.zeros(g.cells_shape), blocked),
            WeightPair(g, np.where(y < 0.6, 1.0, 0.0))),
        "symmetric": EnergyContext(g, zero_measure(g),
                                   WeightPair(g, 1.0, (), w2_sym)),
    }


def _gather_cases():
    """Pencils whose free nodes are not a box of the grid: 1D with atoms of
    mu and nu1 (bandwidth 1, atom rows in K), and an L-shaped 2D domain
    with scattered blocked cells and a sign-changing weight."""
    g1 = GridSpec(1, 48, (1.0,), 2.0)
    blocked1 = np.zeros(g1.cells_shape, dtype=bool)
    blocked1[[7, 31]] = True
    mu1 = CapacitaryMeasure(g1, np.linspace(0.0, 4.0, g1.n), blocked1,
                            ((12, 0.8), (40, 2.0)))
    g2 = GridSpec(2, 24, (1.0, 1.3), 2.0)
    x, y = g2.cell_centers()[..., 0], g2.cell_centers()[..., 1]
    blocked2 = (x > 0.6) & (y > 0.7)
    blocked2 |= np.random.default_rng(5).random(g2.cells_shape) < 0.05
    return {
        "1d-atoms": EnergyContext(g1, mu1, WeightPair(
            g1, 1.0, ((20, 0.3), (35, 0.6)), np.where(
                np.arange(g1.n) > 40, 1.5, 0.0))),
        "l-shape-scattered": EnergyContext(
            g2, CapacitaryMeasure(g2, np.zeros(g2.cells_shape), blocked2),
            WeightPair(g2, 1.0, (), np.where(x < 0.2, 2.5, 0.0))),
    }


def _dense_pencil(spectrum_mod):
    """_pencil_positive_eigs held on its dense eigh branch."""
    real = spectrum_mod._pencil_positive_eigs
    return lambda ctx, m_max, dense_limit=0: real(ctx, m_max, 10 ** 6)


def test_dense_and_sparse_pencil_paths_agree(monkeypatch):
    import plapopt.spectrum as spectrum_mod
    for name, ctx in {**_pencil_cases(24), **_gather_cases()}.items():
        sparse = eigen_minimax(ctx, 4, seed=0)
        with monkeypatch.context() as mp:
            mp.setattr(spectrum_mod, "_pencil_positive_eigs",
                       _dense_pencil(spectrum_mod))
            dense = eigen_minimax(ctx, 4, seed=0)
        assert dense.statuses == sparse.statuses == ["finite"] * 4, name
        for a, b in zip(dense.lambdas, sparse.lambdas):
            assert math.isclose(a, b, rel_tol=1e-9), name
        if name in ("lebesgue", "symmetric"):
            # a degenerate cluster keeps both copies on either path
            assert math.isclose(dense.lambdas[1], dense.lambdas[2],
                                rel_tol=1e-12)
            assert math.isclose(sparse.lambdas[1], sparse.lambdas[2],
                                rel_tol=1e-9)


def test_sparse_pencil_factors_a_once_and_reruns_bit_identically(
        monkeypatch):
    # above the dense limit one banded Cholesky factor of A serves every
    # Lanczos step: no second factorization, no SuperLU, and two runs
    # coincide bit for bit on a sign-changing pencil
    import scipy.linalg
    import plapopt.spectrum as spectrum_mod
    from scipy.sparse.linalg._dsolve import _superlu

    factored = []
    real_cholesky = scipy.linalg.cholesky_banded

    def counted_cholesky(*args, **kwargs):
        factored.append(np.shape(args[0]))
        return real_cholesky(*args, **kwargs)

    def no_superlu(*args, **kwargs):
        raise AssertionError("SuperLU factorization on the p = 2 path")

    monkeypatch.setattr(spectrum_mod, "DENSE_DOF_LIMIT", 10)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted_cholesky)
    monkeypatch.setattr(_superlu, "gstrf", no_superlu)
    ctx = _pencil_cases(24)["sign-changing"]
    first = eigen_minimax(ctx, 4, seed=0)
    assert len(factored) == 1
    second = eigen_minimax(ctx, 4, seed=0)
    assert len(factored) == 2
    assert first.statuses == ["finite"] * 4
    assert [repr(lam) for lam in first.lambdas] == [
        repr(lam) for lam in second.lambdas]
    for u, v in zip(first.eigenfields, second.eigenfields):
        assert u.values.tobytes() == v.values.tobytes()


def test_pencil_without_positive_weight_is_infeasible_on_both_paths(
        monkeypatch):
    # B = 0 (w1 = w2) and B < 0 (w2 > w1) above the dense limit: the
    # Lanczos path must report what dense eigh reports, not raise
    import plapopt.spectrum as spectrum_mod
    g = GridSpec(2, 40, (1.0, 1.0), 2.0)
    assert (g.n - 1) ** 2 > spectrum_mod.DENSE_DOF_LIMIT
    for w2 in (1.0, 2.0):
        ctx = EnergyContext(g, zero_measure(g), WeightPair(g, 1.0, (), w2))
        sparse = eigen_minimax(ctx, 3, seed=0)
        with monkeypatch.context() as mp:
            mp.setattr(spectrum_mod, "_pencil_positive_eigs",
                       _dense_pencil(spectrum_mod))
            dense = eigen_minimax(ctx, 3, seed=0)
        assert sparse.statuses == dense.statuses == ["infeasible"] * 3
        assert sparse.lambdas == dense.lambdas == [math.inf] * 3


def test_no_dense_eigensolve_above_the_limit(monkeypatch):
    # 16,129 unknowns with an indefinite weight: a dense eigh here would
    # need O(n^2) memory, so any call above the limit fails the test
    import scipy.linalg
    import plapopt.spectrum as spectrum_mod

    real_eigh = scipy.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if np.shape(a)[0] > spectrum_mod.DENSE_DOF_LIMIT:
            raise AssertionError(f"dense eigh of order {np.shape(a)[0]}")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", small_eigh)
    result = eigen_minimax(_pencil_cases(128)["sign-changing"], 4, seed=0)
    assert result.statuses == ["finite"] * 4
    assert all(math.isfinite(lam) for lam in result.lambdas)


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


def _rows_eval(ctx, cand):
    """The inner supremum's evaluator on the candidate's free-node rows."""
    from plapopt.spectrum import _SubspaceEval

    free = ctx._free
    return _SubspaceEval(ctx, free.K @ cand.matrix()[:, free.idx].T)


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


def _reference_sup(ev, starts, opts):
    """The stacked search run on one start at a time; the first best wins."""
    from plapopt.spectrum import _sup_general

    best_val, best_xi = -math.inf, None
    for row in starts:
        try:
            val, xi = _sup_general(ev, row[None, :].copy(), opts)
        except InfeasibleSubspace:
            continue
        if val > best_val:
            best_val, best_xi = val, xi
    return best_val, best_xi


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_block_ascent_repeats_the_per_start_loop(p):
    from plapopt.spectrum import _starts, _sup_general

    ctx = _weighted_ctx(p, np.random.default_rng(22))
    ev = _rows_eval(ctx, _sine_candidate(ctx.grid, 3))
    starts = _starts(3, 16, np.random.default_rng(5))
    val, xi = _sup_general(ev, starts, FAST)
    ref_val, ref_xi = _reference_sup(ev, starts, FAST)
    assert val == ref_val
    np.testing.assert_array_equal(xi, ref_xi)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_descent_from_mirrored_starts_is_mirrored(p):
    # f, g1 and g2 are even, so -X runs the bit-mirrored path of X
    from plapopt.spectrum import _sphere_descent, _starts

    ctx = _weighted_ctx(p, np.random.default_rng(24))
    ev = _rows_eval(ctx, _sine_candidate(ctx.grid, 3))
    X = _starts(3, 12, np.random.default_rng(6))
    for fun, tol in ((ev.neg_ratio_stack, 1e-11), (ev.denom_stack, 1e-14)):
        val, X_out = _sphere_descent(fun, X.copy(), 60, tol)
        val_m, X_m = _sphere_descent(fun, -X, 60, tol)
        np.testing.assert_array_equal(val_m, val)
        np.testing.assert_array_equal(X_m, -X_out)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sup_on_sphere_without_the_mirrored_starts(p, monkeypatch):
    import plapopt.spectrum as spectrum

    def with_mirrors(m, n_starts, rng):
        """The earlier layout: e_1, -e_1, ..., e_m, -e_m, then the same
        random rows."""
        signed = np.stack([np.eye(m), -np.eye(m)], axis=1).reshape(2 * m, m)
        extra = rng.standard_normal((max(n_starts - 2 * m, 0), m))
        return np.concatenate([signed, spectrum._sphere_project(extra)])

    ctx = _weighted_ctx(p, np.random.default_rng(25))
    for m in (2, 3):
        cand = _sine_candidate(ctx.grid, m)
        val, xi = sup_on_sphere(ctx, cand, seed=3, options=FAST)
        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "_starts", with_mirrors)
            val_m, xi_m = sup_on_sphere(ctx, cand, seed=3, options=FAST)
        assert val == val_m
        np.testing.assert_array_equal(xi, xi_m)


def _hessian_ctx(dim, n, p, rng):
    """A density, an atom where p > dim, w1 = 1 and w2 = 0.3 U(0, 1)."""
    g = GridSpec(dim, n, (1.0,) * dim, p)
    atoms = ((g.n_nodes // 2 + 1, 0.7),) if p > dim else ()
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.cells_shape),
                           np.zeros(g.cells_shape, bool), atoms)
    return EnergyContext(g, mu, WeightPair(g, 1.0, (),
                                           0.3 * rng.random(g.cells_shape)))


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_coefficient_hessians_match_gradient_differences(dim, n, p):
    from plapopt.operators import free_node_mask

    rng = np.random.default_rng(26)
    ctx = _hessian_ctx(dim, n, p, rng)
    free = free_node_mask(ctx.grid, ctx.mu).reshape(-1)
    # positive fields and coefficients keep the measure rows off zero,
    # where |y|^(p-2) would make the differences inaccurate for p < 2
    ev = _rows_eval(ctx, SubspaceCandidate(tuple(
        embed(ctx, free, 0.5 + rng.random(free.sum())) for _ in range(3))))
    X = 0.5 + rng.random((4, 3))
    V = rng.standard_normal((4, 3))
    step = 1e-5

    def check(derivs):
        hess = derivs(X)[2]
        fd = (derivs(X + step * V)[1] - derivs(X - step * V)[1]) / (2 * step)
        an = np.matmul(hess, V[:, :, None])[:, :, 0]
        for a, b in zip(an, fd):
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)

    check(ev.ratio_stack)
    check(ev.denom_stack)


def test_g1_floor_bounds_g1_on_the_sphere():
    from plapopt.energy import g_energy
    from plapopt.spectrum import (_sphere_denominator_scale,
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
        ev = _rows_eval(ctx, cand)
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
    from plapopt.spectrum import _sphere_g1_floor

    g = GridSpec(1, 16, (1.0,), p)
    left = np.arange(16) < 8
    ctx = EnergyContext(g, zero_measure(g),
                        WeightPair(g, left.astype(float), (), 2.0 * ~left))
    x = g.axis_nodes()
    cand = SubspaceCandidate((Field(g, np.sin(2 * math.pi * x) * (x < 0.5)),
                              Field(g, np.sin(2 * math.pi * x) * (x > 0.5))))
    assert _sphere_g1_floor(_rows_eval(ctx, cand)) == 0.0
    with pytest.raises(InfeasibleSubspace):
        sup_on_sphere(ctx, cand, seed=0)


def test_nan_residual_is_unresolved(monkeypatch):
    # the one certification rule fails a NaN residual on the general-p
    # path as on the p = 2 path
    import plapopt.spectrum as spectrum_mod

    real_polish = spectrum_mod.polish_eigenpair

    def nan_polish(ctx, u):
        lam, field, _ = real_polish(ctx, u)
        return lam, field, math.nan

    monkeypatch.setattr(spectrum_mod, "polish_eigenpair", nan_polish)
    result = eigen_minimax(plain_ctx(16, p=3.0), 1, seed=0, options=FAST)
    assert result.statuses == ["unresolved"]
    assert math.isnan(result.residuals[0])


def count_sup_calls(monkeypatch) -> list:
    """Patch spectrum.sup_on_sphere to log one entry per call."""
    import plapopt.spectrum as spectrum_mod

    calls, real = [], spectrum_mod.sup_on_sphere

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum_mod, "sup_on_sphere", counted)
    return calls


def test_a_level_stops_at_its_first_certified_polish(monkeypatch):
    # the square's levels certify after one outer step each; a descent to
    # the stall took 116 sup calls
    calls = count_sup_calls(monkeypatch)
    result = eigen_minimax(plain_ctx(16, p=3.0, dim=2), 3, seed=1)
    assert result.statuses == ["finite"] * 3
    assert len(calls) <= 38


def test_a_level_whose_polish_fails_keeps_descending(monkeypatch):
    # the polish, not the iteration cap, ends a level: with the first
    # polished pair uncertified, level 1 descends on to a stall or the cap
    # and is certified by its final polish, one polish more than unpatched
    import plapopt.spectrum as spectrum_mod

    ctx = plain_ctx(16, p=3.0, dim=2)
    calls = count_sup_calls(monkeypatch)
    real_polish = spectrum_mod.polish_eigenpair
    polishes = []

    def logged_polish(ctx, u):
        polishes.append(None)
        return real_polish(ctx, u)

    monkeypatch.setattr(spectrum_mod, "polish_eigenpair", logged_polish)
    assert eigen_minimax(ctx, 3, seed=1).statuses == ["finite"] * 3
    plain_calls, plain_polishes = len(calls), len(polishes)
    calls.clear()
    polishes.clear()

    def first_uncertified(ctx, u):
        lam, field, res = logged_polish(ctx, u)
        return lam, field, math.inf if len(polishes) == 1 else res

    monkeypatch.setattr(spectrum_mod, "polish_eigenpair", first_uncertified)
    result = eigen_minimax(ctx, 3, seed=1)
    assert result.statuses == ["finite"] * 3
    assert len(polishes) > plain_polishes
    assert len(calls) > plain_calls


def test_a_level_polishes_at_most_twice(monkeypatch):
    # a level whose polishes never certify pays one polish after its first
    # accepted step and one at the end of its descent, no more
    import plapopt.spectrum as spectrum_mod

    real_polish = spectrum_mod.polish_eigenpair
    polishes = []

    def uncertified(ctx, u):
        polishes.append(None)
        lam, field, _ = real_polish(ctx, u)
        return lam, field, math.inf

    monkeypatch.setattr(spectrum_mod, "polish_eigenpair", uncertified)
    result = eigen_minimax(plain_ctx(16, p=3.0, dim=2), 3, seed=1)
    assert result.statuses == ["unresolved"] * 3
    assert len(polishes) <= 2 * 3


def test_a_finite_level_is_not_a_lower_levels_eigenfield():
    # on the n = 16, p = 1.5 square the first polish of level 3 falls back
    # onto level 2's eigenfield, certified and at lambda2; that must not
    # end level 3 as a finite pair.  On the n = 40, p = 3 square the
    # descent of level 3 ends on level 2's eigenfield, and its last polish
    # must not be reported finite either
    for n, p in ((16, 1.5), (40, 3.0)):
        result = eigen_minimax(plain_ctx(n, p=p, dim=2), 3, seed=1)
        for m in range(2, 4):
            if result.status_of(m) == "finite":
                SubspaceCandidate(tuple(result.eigenfields[:m]))


def test_a_level_tries_each_initial_subspace_once(monkeypatch):
    # the p = 2 pencil gives m seed fields; with every sphere infeasible
    # the level tries the seed once and then fully random bases
    import plapopt.spectrum as spectrum_mod

    bases = []

    def infeasible(ctx, candidate, **kwargs):
        bases.append(candidate.copy())
        raise InfeasibleSubspace("patched")

    monkeypatch.setattr(spectrum_mod, "sup_on_sphere", infeasible)
    ctx = plain_ctx(16, p=3.0)
    assert len(spectrum_mod._pencil_positive_eigs(
        spectrum_mod._p2_context(ctx), 2)[1]) == 2
    result = eigen_minimax(ctx, 2, seed=0, options=FAST)
    assert result.statuses == ["infeasible"] * 2
    assert len(bases) == spectrum_mod.MAX_RESTARTS
    for i in range(len(bases)):
        for j in range(i):
            assert not np.array_equal(bases[i], bases[j]), (i, j)


def _blocked_ctx(p, rng):
    """2D n = 8: a density, one blocked cell, a mu atom where p > dim,
    w1 = 1 and w2 = 0.3 U(0, 1), so every field lies inside the cone."""
    g = GridSpec(2, 8, (1.0, 1.0), p)
    blocked = np.zeros(g.cells_shape, dtype=bool)
    blocked[1, 5] = True
    atoms = ((g.n_nodes // 2 + 1, 0.7),) if p > g.dim else ()
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.cells_shape), blocked,
                           atoms)
    return EnergyContext(g, mu, WeightPair(g, 1.0, (),
                                           0.3 * rng.random(g.cells_shape)))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sup_on_sphere_reads_a_candidate_as_its_free_node_rows(p):
    # the levels pass rows of free-node values; a candidate zero off the
    # free nodes gives the same value and argmax, bit for bit
    rng = np.random.default_rng(27)
    ctx = _blocked_ctx(p, rng)
    idx = np.flatnonzero(free_node_mask(ctx.grid, ctx.mu))
    assert idx.size < ctx.grid.n_nodes
    for m in (1, 2, 3):
        rows = 0.5 + rng.random((m, idx.size))
        cand = SubspaceCandidate(tuple(embed(ctx, idx, row) for row in rows))
        val, xi = sup_on_sphere(ctx, cand, seed=2, options=FAST)
        val_rows, xi_rows = sup_on_sphere(ctx, rows, seed=2, options=FAST)
        assert math.isfinite(val) and val == val_rows
        np.testing.assert_array_equal(xi, xi_rows)


def test_a_candidate_nonzero_next_to_a_blocked_cell_gives_inf():
    # the ratio is +inf wherever a blocked-adjacent node is hit
    rng = np.random.default_rng(28)
    ctx = _blocked_ctx(3.0, rng)
    free = free_node_mask(ctx.grid, ctx.mu).reshape(-1)
    values = 0.5 + rng.random((2, ctx.grid.n_nodes))
    values[0, ~free] = 0.0
    values[1, ~free] = 0.0
    values[1, np.flatnonzero(~free)[0]] = 1.0
    cand = SubspaceCandidate(tuple(Field(ctx.grid, v) for v in values))
    val, xi = sup_on_sphere(ctx, cand, seed=0)
    assert val == math.inf
    np.testing.assert_array_equal(xi, [1.0, 0.0])


def test_a_general_p_spectrum_builds_one_term_list(monkeypatch):
    # every polish of every level sums its Jacobian through the term list
    # of the context's free-node view; a first call on an equal context
    # fills the p = 2 seed's cache, which is kept per grid
    from plapopt import operators

    eigen_minimax(plain_ctx(16, p=3.0, dim=2), 3, seed=1)
    calls, real = [], operators.term_list

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(operators, "term_list", counted)
    result = eigen_minimax(plain_ctx(16, p=3.0, dim=2), 3, seed=1)
    assert result.statuses == ["finite"] * 3
    assert len(calls) == 1


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_levels_above_the_free_node_count_are_infeasible(p):
    # 1D n = 4 has 3 interior nodes: no subspace of dimension 4..6 exists,
    # so those levels are infeasible at every p, as the p = 2 pencil says
    result = eigen_minimax(plain_ctx(4, p=p), 6, seed=0)
    exact = eigen_minimax(plain_ctx(4), 6, seed=0)
    assert exact.statuses[3:] == ["infeasible"] * 3
    assert result.statuses[3:] == exact.statuses[3:]
    assert result.lambdas[3:] == [math.inf] * 3
    assert all(s != "infeasible" for s in result.statuses[:3])
    assert all(math.isfinite(lam) for lam in result.lambdas[:3])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_kept_block_with_two_free_nodes_has_two_levels(p):
    # 2D n = 8, every cell blocked but a 2 x 3 block: 2 free nodes
    g = GridSpec(2, 8, (1.0, 1.0), p)
    blocked = np.ones(g.cells_shape, dtype=bool)
    blocked[2:4, 2:5] = False
    mu = CapacitaryMeasure(g, 0.0, blocked)
    assert np.count_nonzero(free_node_mask(g, mu)) == 2
    result = eigen_minimax(EnergyContext(g, mu, lebesgue_weights(g)), 3,
                           seed=0, options=FAST)
    assert all(math.isfinite(lam) for lam in result.lambdas[:2])
    assert result.statuses[2] == "infeasible"
    assert result.lambdas[2] == math.inf


def atom_only_ctx(node):
    # 2D, p = 3, zero measure, nu1 one atom of mass 1, nu2 = 0
    g = GridSpec(2, 8, (1.0, 1.0), 3.0)
    return EnergyContext(g, zero_measure(g),
                         WeightPair(g, 0.0, ((node, 1.0),), 0.0))


@pytest.mark.parametrize("node", [24, 40])
def test_atom_only_nu1_in_2d_is_seeded_by_probes(node):
    # a 2D nu1 made only of atoms has no p = 2 counterpart (atoms need
    # p > dim), so the probes seed level 1
    result = eigen_minimax(atom_only_ctx(node), 1, seed=0, options=FAST)
    assert result.statuses != ["infeasible"]
    assert math.isfinite(result.lambdas[0]) and result.lambdas[0] > 0


def test_atom_only_nu1_off_centre_is_certified():
    # the polish starts from a field flat on whole cells, where its p = 3
    # Newton matrix is singular: a Levenberg shift takes the step
    result = eigen_minimax(atom_only_ctx(40), 1, seed=0, options=FAST)
    assert result.statuses == ["finite"]


@pytest.mark.parametrize("node", range(49))
def test_atom_only_nu1_is_certified_at_every_interior_node(node):
    # an exactly singular bordered Newton matrix ended the polish of 23 of
    # these 49 levels with their residual far above the certification rule
    result = eigen_minimax(atom_only_ctx(node), 1, seed=0, options=FAST)
    assert result.statuses == ["finite"]


def _polish_input(case):
    """A problem and a perturbed positive start for the polish."""
    rng = np.random.default_rng(5)
    if case == "blocked_1d_p15":
        g = GridSpec(1, 24, (1.0,), 1.5)
        blocked = np.zeros(g.cells_shape, dtype=bool)
        blocked[7] = True
        ctx = EnergyContext(g, CapacitaryMeasure(g, 0.0, blocked),
                            lebesgue_weights(g))
        u = field_from_function(g, lambda x: np.sin(np.pi * x))
    else:
        g = GridSpec(2, 8, (1.0, 1.0), 3.0)
        ctx = (atom_only_ctx(24) if case == "atom_only" else
               EnergyContext(g, zero_measure(g), lebesgue_weights(g)))
        u = field_from_function(g, lambda x, y: np.sin(np.pi * x)
                                * np.sin(np.pi * y))
    values = u.values * (1.0 + 0.2 * rng.random(u.values.shape))
    return ctx, values.reshape(-1)[free_node_mask(g, ctx.mu)]


@pytest.mark.parametrize("case", ["square_p3", "atom_only", "blocked_1d_p15"])
def test_the_polish_writes_its_bordered_matrix_as_bmat_would(monkeypatch,
                                                             case):
    # J = [[H, -g], [g^T, 0]] from the free-node term list is sp.bmat's
    # csc array for array (g's zeros left out: one nonzero for the atom),
    # so SuperLU takes the same step bit for bit; sp.bmat is never called
    import scipy.sparse as sp
    from plapopt import operators, spectrum

    ctx, x = _polish_input(case)
    bmat, bordered, solve = sp.bmat, operators.Terms.bordered, spla.spsolve
    built, solved = [], []

    def refused(*args, **kwargs):
        raise AssertionError("the polish called sp.bmat")

    def recorded(terms, weights, g, order):
        built.append((terms, weights.copy(), g.copy()))
        return bordered(terms, weights, g, order)

    def recording(J, rhs):
        solved.append((J, rhs, solve(J, rhs)))
        return solved[-1][2]

    monkeypatch.setattr(sp, "bmat", refused)
    monkeypatch.setattr(operators.Terms, "bordered", recorded)
    monkeypatch.setattr(spla, "spsolve", recording)
    spectrum.polish_eigenpair(ctx, x)
    assert len(built) == len(solved) >= 2
    for (terms, weights, g), (J, rhs, delta) in zip(built, solved):
        ref = bmat([[terms.csr(weights), -sp.csc_matrix(g).T],
                    [sp.csc_matrix(g), None]], format="csc")
        for name in ("indptr", "indices", "data"):
            a, b = getattr(J, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert solve(ref, rhs).tobytes() == delta.tobytes()
    if case == "atom_only":
        assert all(np.count_nonzero(g) == 1 for _, _, g in built)


def test_pencil_errors_propagate_from_the_general_p_seed(monkeypatch):
    import plapopt.spectrum as spectrum_mod

    def broken(ctx, m_max, dense_limit=0):
        raise RuntimeError("pencil failed")

    monkeypatch.setattr(spectrum_mod, "_pencil_positive_eigs", broken)
    with pytest.raises(RuntimeError, match="pencil failed"):
        eigen_minimax(plain_ctx(16, p=3.0), 2, seed=0, options=FAST)
