"""Sparse Hessians against central differences of the energy gradients,
the banded Newton Hessians of the convex solves against them, and the
p = 2 pencil against its definition."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field
from plapopt.measure import CapacitaryMeasure, WeightPair
from plapopt.energy import (EnergyContext, _energy_map, abs_pow,
                            energy_gradient, f_energy, g_energy, g_gradient)
from plapopt.hessians import assemble, hessian_f, hessian_g_diff
from plapopt import hessians, operators
from plapopt.operators import free_node_mask, p2_matrices
from oracles import dense_pencil_1d

# the package re-exports the function torsion under its module's name
torsion = importlib.import_module("plapopt.torsion")

STEP = 1e-5
RTOL = 1e-7


def _problem(dim, n, p, seed):
    """Density, one blocked cell, sign-changing weights, an atom if p > dim."""
    g = GridSpec(dim, n, (1.0,) * dim, p)
    rng = np.random.default_rng(seed)
    blocked = np.zeros(g.cells_shape, dtype=bool)
    blocked[(n // 2,) * dim] = True
    density = 2.0 * rng.random(g.cells_shape)
    probe = CapacitaryMeasure(g, density, blocked)
    free = np.flatnonzero(free_node_mask(g, probe))
    atoms = ((int(free[1]), 0.7),) if p > dim else ()
    mu = CapacitaryMeasure(g, density, blocked, atoms)
    weights = WeightPair(g, 1.0 + rng.random(g.cells_shape),
                         ((int(free[-2]), 0.4),) if p > dim else (),
                         0.8 * rng.random(g.cells_shape))
    ctx = EnergyContext(g, mu, weights)
    # 0.5 + U(0, 1) keeps every anchor value and cell gradient off zero
    values = np.zeros(g.n_nodes)
    values[free] = 0.5 + rng.random(free.size)
    return ctx, free, values, rng.standard_normal(free.size)


def _central_diff(grad, ctx, free, values, v):
    plus = values.copy()
    minus = values.copy()
    plus[free] += STEP * v
    minus[free] -= STEP * v
    g_plus = grad(Field(ctx.grid, plus))
    g_minus = grad(Field(ctx.grid, minus))
    return (g_plus - g_minus)[free] / (2.0 * STEP)


def _assert_close(an, fd):
    err = np.linalg.norm(an - fd)
    assert err <= RTOL * np.linalg.norm(fd), err / np.linalg.norm(fd)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8)])
def test_hessians_match_gradient_differences(dim, n, p):
    ctx, free, values, v = _problem(dim, n, p, seed=5)
    u = Field(ctx.grid, values)

    fd_f = _central_diff(lambda w: energy_gradient(ctx, w).flat,
                         ctx, free, values, v)
    _assert_close(hessian_f(ctx, u, free) @ v, fd_f)

    fd_g = _central_diff(
        lambda w: g_gradient(ctx, w, 1).flat - g_gradient(ctx, w, 2).flat,
        ctx, free, values, v)
    _assert_close(hessian_g_diff(ctx, u, free) @ v, fd_g)

    # the eigenpair polish assembles f - lam (g1 - g2) in one pass
    lam, rows, K = 3.7, ctx._rows, _energy_map(ctx)
    _, H = assemble(ctx, K[:, free], K @ u.flat,
                    rows.f - lam * (rows.g1 - rows.g2))
    ref = hessian_f(ctx, u, free) - lam * hessian_g_diff(ctx, u, free)
    assert spla.norm(H - ref) <= 1e-12 * spla.norm(ref)


def _from_band(band):
    """The symmetric matrix whose upper band LAPACK stores in band."""
    bw, n = band.shape[0] - 1, band.shape[1]
    H = np.zeros((n, n))
    for k in range(bw + 1):
        d = bw - k                  # row k holds superdiagonal d
        assert not band[k, :d].any(), "the unused corner must stay zero"
        H[np.arange(n - d), np.arange(d, n)] = band[k, d:]
    return H + np.triu(H, 1).T


def _assert_band_is(band, ref):
    ref = ref.toarray()
    err = np.abs(_from_band(band) - ref).max()
    assert err <= 1e-14 * np.abs(ref).max(), err / np.abs(ref).max()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8)])
def test_band_terms_give_the_hessian_of_f(dim, n, p):
    # a blocked cell in both dimensions, mu and nu1 atoms where p > dim
    ctx, free, values, _ = _problem(dim, n, p, seed=7)
    K = _energy_map(ctx)
    terms = operators.term_list(K[:, free],
                                *hessians.pattern(ctx, K.shape[0]))
    assert terms.bw < n and terms.indptr.size - 1 == free.size
    stages = [ctx]
    if p < 2.0:     # a smoothing stage of the p < 2 continuation
        stages.append(replace(ctx, eps_reg=1e-2 * min(ctx.grid.spacing) ** 2))
    for ctx_e in stages:
        _, w = hessians.weights(ctx_e, K @ values, ctx._rows.f)
        _assert_band_is(terms.band(w),
                        hessian_f(ctx_e, Field(ctx.grid, values), free))
    # the eigenpair polish reads f - lam (g1 - g2) from the same list
    lam, rows = 3.7, ctx._rows
    c = rows.f - lam * (rows.g1 - rows.g2)
    _, w = hessians.weights(ctx, K @ values, c)
    _, ref = assemble(ctx, K[:, free], K @ values, c)
    err = abs(terms.csr(w) - ref).max()
    assert err <= 1e-14 * abs(ref).max(), err / abs(ref).max()


def _newton_hessians(monkeypatch, solve):
    """Run a solve and keep (x, hessian) of every newton_refine stage."""
    stages = []
    refine = torsion.newton_refine

    def recording(x0, value_and_grad, hessian, **kwargs):
        stages.append((np.array(x0), hessian))
        return refine(x0, value_and_grad, hessian, **kwargs)

    monkeypatch.setattr(torsion, "newton_refine", recording)
    assert solve()[1].converged
    return stages


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8)])
def test_prox_band_is_f_plus_the_fidelity_hessian(monkeypatch, dim, n, p):
    # the fidelity Hessian rides on the anchor-row weights of the band
    ctx, free, _, _ = _problem(dim, n, p, seed=8)
    g, mu = ctx.grid, ctx.mu
    rng = np.random.default_rng(8)
    z = Field(g, rng.standard_normal(g.n_nodes))   # nonzero off free too
    k, b = 10.0, 0.5 + rng.random(g.n_cells)
    stages = _newton_hessians(monkeypatch,
                              lambda: torsion.prox(z, k, mu, b))
    anchor = operators.anchor_op(g)
    tctx = torsion._torsion_context(mu)
    # f's Dirichlet part alone: the same blocked cells, no density, no atoms
    dctx = torsion._torsion_context(CapacitaryMeasure(g, 0.0, mu.blocked))
    K, rows = _energy_map(tctx), tctx._rows
    h2 = min(g.spacing) ** 2
    # at p < 2 the first stage smooths |grad|^2 and the measure rows with
    # eps = delta = 1e-2 h^2; the last keeps eps_reg and the floor delta
    checked = [(stages[0], 1e-2 * h2, 1e-2 * h2),
               (stages[-1], None, torsion.MEASURE_DELTA_FLOOR)] \
        if p < 2.0 else [(stages[0], None, None), (stages[-1], None, None)]
    for (x, hessian), eps, delta in checked:
        ctx_e = dctx if eps is None else replace(dctx, eps_reg=eps)
        meas = K[rows.n_grad:, free]
        diag = operators.hessian_diagonal(
            g.dim, None, k * g.cell_volume * b,
            abs_pow(anchor[:, free] @ x - anchor @ z.flat, p - 2.0), p)
        ref = hessian_f(ctx_e, operators._embed(g, free, x), free) \
            + operators.sandwich(meas, sp.diags(
                _measure_weights(rows.f, meas @ x, p, delta))) \
            + operators.sandwich(anchor[:, free], sp.diags(diag))
        _assert_band_is(hessian(x), ref)


def _measure_weights(c, v, p, delta):
    """Second derivative of c |v|^p / p (delta None), or of the smoothed
    c ((v^2 + delta)^(p/2) - delta^(p/2)) / p, row by row."""
    if delta is None:
        return (p - 1.0) * c * abs_pow(v, p - 2.0)
    t = v * v + delta
    return c * t ** (p / 2.0 - 2.0) * ((p - 1.0) * v * v + delta)


@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8)])
def test_p_below_2_ladder_stages_are_consistent(monkeypatch, dim, n):
    # each stage's gradient is the derivative of its value and its band
    # that of its gradient, at the stage's own scale sqrt(delta), where
    # the smoothing of the measure rows matters.  The 1D problem has
    # atoms, the 2D one none (p < 2 = dim gives a point no capacity).
    # eps_reg = 1e-40: the constant eps^(p/2) that the Dirichlet smoothing
    # adds per cell would otherwise swamp the value differences.
    ctx, free, _, _ = _problem(dim, n, 1.5, seed=9)
    stages = []

    def recording(x0, value_and_grad, hessian, **kwargs):
        stages.append((value_and_grad, hessian))
        return x0, {"iterations": 0, "final_decrement": 0.0,
                    "converged": True}

    monkeypatch.setattr(torsion, "newton_refine", recording)
    torsion._newton_ladder(replace(ctx, eps_reg=1e-40), free,
                           np.zeros(free.size),
                           lambda x: (0.0, np.zeros_like(x)), grad_scale=1.0)
    h2 = min(ctx.grid.spacing) ** 2
    deltas = [1e-2 * h2, 1e-5 * h2, 1e-8 * h2]
    while deltas[-1] > torsion.MEASURE_DELTA_FLOOR:
        deltas.append(max(1e-3 * deltas[-1], torsion.MEASURE_DELTA_FLOOR))
    assert len(stages) == len(deltas)
    rng = np.random.default_rng(9)
    for (value_and_grad, hessian), delta in zip(stages, deltas):
        x = np.sqrt(delta) * rng.uniform(-2.0, 2.0, free.size)
        v = rng.standard_normal(free.size)
        step = 1e-6 * np.sqrt(delta)
        (f_plus, g_plus), (f_minus, g_minus) = (value_and_grad(x + step * v),
                                                value_and_grad(x - step * v))
        slope = value_and_grad(x)[1] @ v
        assert abs((f_plus - f_minus) / (2.0 * step) - slope) \
            <= 1e-6 * abs(slope), delta
        Hv = _from_band(hessian(x)) @ v
        fd = (g_plus - g_minus) / (2.0 * step)
        assert np.linalg.norm(Hv - fd) <= 1e-6 * np.linalg.norm(Hv), delta


def test_p2_pencil_matches_dense_oracle_1d():
    n, length = 24, 1.3
    g = GridSpec(1, n, (length,), 2.0)
    rng = np.random.default_rng(11)
    blocked = np.zeros(n, dtype=bool)
    blocked[[5, 17]] = True
    V = 3.0 * rng.random(n)
    w1 = 1.0 + rng.random(n)
    w2 = 1.5 * rng.random(n)
    mu_atoms, w1_atoms = ((2, 0.7), (12, 0.3)), ((9, 0.4),)
    mu = CapacitaryMeasure(g, V, blocked, mu_atoms)
    A, B, idx = p2_matrices(g, mu, WeightPair(g, w1, w1_atoms, w2))
    A_ref, B_ref, free = dense_pencil_1d(n, length, mu.density, w1, w2,
                                         blocked, mu_atoms, w1_atoms)
    assert np.array_equal(idx, free)
    for M, ref in ((A, A_ref), (B, B_ref)):
        np.testing.assert_allclose(M.toarray(), ref, rtol=0.0,
                                   atol=1e-13 * np.abs(ref).max())


def test_p2_pencil_gives_twice_the_energies_2d():
    g = GridSpec(2, 8, (1.0, 1.4), 2.0)
    rng = np.random.default_rng(12)
    blocked = np.zeros(g.cells_shape, dtype=bool)
    blocked[2, 5] = blocked[6, 1] = True
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.cells_shape), blocked)
    # w2 exceeds w1 on part of the square: g1 - g2 changes sign
    weights = WeightPair(g, rng.random(g.cells_shape), (),
                         rng.random(g.cells_shape))
    ctx = EnergyContext(g, mu, weights)
    A, B, idx = p2_matrices(g, mu, weights)
    for _ in range(5):
        values = np.zeros(g.n_nodes)
        values[idx] = rng.standard_normal(idx.size)
        u = Field(g, values)
        x = values[idx]
        f = f_energy(ctx, u)
        gdiff = g_energy(ctx, u, 1) - g_energy(ctx, u, 2)
        scale = g_energy(ctx, u, 1) + g_energy(ctx, u, 2)
        assert abs(x @ (A @ x) - 2.0 * f) <= 1e-12 * f
        assert abs(x @ (B @ x) - 2.0 * gdiff) <= 1e-12 * scale


def _sandwich_pencil(g, mu, weights):
    """A and B as K_F^T W K_F from the sparse product, the p = 2 weights
    laid out by hessian_diagonal."""
    idx = np.flatnonzero(free_node_mask(g, mu))
    rows = operators.energy_rows(g, mu, weights)
    KF = operators.energy_map(g, mu.atoms, weights.w1_atoms)[:, idx]
    W = lambda hcell, c: sp.diags(
        operators.hessian_diagonal(g.dim, hcell, c, 1.0, 2.0))
    return (operators.sandwich(KF, W(rows.vol * rows.keep, rows.f)),
            operators.sandwich(KF[rows.n_grad:],
                               W(None, rows.g1 - rows.g2)))


def _canonical(M):
    M = M.tocsr(copy=True)
    M.sort_indices()
    return M


@pytest.mark.parametrize("dim", [1, 2])
def test_p2_pencil_is_the_sparse_product_bit_for_bit(dim):
    # the cached term list sums in the order of K_F^T (W K_F): same
    # pattern, same bits, with atoms, blocked cells, a non-power-of-two
    # spacing and (2D) a weight pair that changes sign
    rng = np.random.default_rng(13)
    if dim == 1:
        g = GridSpec(1, 40, (1.3,), 3.0)
        atoms, w1_atoms, w2 = ((3, 0.7), (21, 0.2)), ((30, 0.4),), 0.0
    else:
        g = GridSpec(2, 20, (1.0, 1.3), 2.0)
        atoms, w1_atoms = (), ()
        w2 = 1.5 * rng.random(g.cells_shape)
    blocked = rng.random(g.cells_shape) < 0.1
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.cells_shape), blocked,
                           atoms)
    weights = WeightPair(g, rng.random(g.cells_shape), w1_atoms, w2)
    A, B, idx = p2_matrices(g, mu, weights)
    assert idx.size < g.n_nodes
    for M, ref in zip((A, B), _sandwich_pencil(g, mu, weights)):
        M, ref = _canonical(M), _canonical(ref)
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert M.data.tobytes() == ref.data.tobytes()
    # the list is shared by every later call: every array read-only
    terms = operators._p2_terms(g, mu.atoms, weights.w1_atoms)
    arrays = [x for x in terms if not isinstance(x, int)]
    assert len(arrays) == len(terms) - 1
    assert not any(arr.flags.writeable for arr in arrays)
