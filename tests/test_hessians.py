"""Sparse Hessians against central differences of the energy gradients,
and the p = 2 pencil against its definition."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.grid import GridSpec, Field
from plapopt.measure import CapacitaryMeasure, WeightPair
from plapopt.energy import (EnergyContext, _energy_map, energy_gradient,
                            f_energy, g_energy, g_gradient)
from plapopt.hessians import assemble, hessian_f, hessian_g_diff
from plapopt import operators
from plapopt.operators import free_node_mask, p2_matrices
from oracles import dense_pencil_1d

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
    # the pattern is shared by every later call: read-only
    terms = operators._p2_terms(g, mu.atoms, weights.w1_atoms)
    assert not any(arr.flags.writeable for arr in terms)
