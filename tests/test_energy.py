import math
from dataclasses import replace

import numpy as np
import pytest

from plapopt.grid import GridSpec, Field
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    from_potential,
    from_quasi_open,
    lebesgue_weights,
    zero_measure,
)
from plapopt.energy import (
    ConstraintViolation,
    EnergyContext,
    energy_gradient,
    f_energy,
    g_energy,
    g_gradient,
    rayleigh,
    residual,
)
from oracles import central_diff_directional, dense_eigs_1d
from helpers import field_from_function


def plain_ctx(n=32, p=2.0, length=1.0, dim=1):
    g = GridSpec(dim, n, (length,) * dim, p)
    return EnergyContext(g, zero_measure(g), lebesgue_weights(g))


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.n_nodes))


def test_context_rejects_trivial_nu1():
    g = GridSpec(1, 8, (1.0,), 2.0)
    with pytest.raises(ValueError, match="nu1"):
        EnergyContext(g, zero_measure(g), WeightPair(g, 0.0))


def test_f_energy_sin():
    ctx = plain_ctx(n=512)
    u = field_from_function(ctx.grid, lambda x: np.sin(math.pi * x))
    val = f_energy(ctx, u)
    assert math.isclose(val, math.pi ** 2 / 4.0, rel_tol=2e-3)


def test_f_energy_blocked_sentinel():
    g = GridSpec(1, 8, (1.0,), 2.0)
    mask = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
    mu = from_quasi_open(g, mask)
    ctx = EnergyContext(g, mu, lebesgue_weights(g))
    bad = np.zeros(g.n_nodes)
    bad[5] = 1.0  # node adjacent to a blocked cell
    assert f_energy(ctx, Field(g, bad)) == math.inf
    good = np.zeros(g.n_nodes)
    good[1] = 1.0
    assert math.isfinite(f_energy(ctx, Field(g, good)))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_f_energy_homogeneity(p):
    ctx = plain_ctx(n=16, p=p)
    rng = np.random.default_rng(0)
    u = random_field(ctx.grid, rng)
    u2 = Field(ctx.grid, 2.0 * u.values)
    assert math.isclose(f_energy(ctx, u2), 2.0 ** p * f_energy(ctx, u),
                        rel_tol=1e-12)


def test_g_energy_values():
    ctx = plain_ctx(n=512)
    g = ctx.grid
    assert g_energy(ctx, Field(g, np.zeros(g.n_nodes)), 1) == 0.0
    u = field_from_function(g, lambda x: np.sin(math.pi * x))
    assert math.isclose(g_energy(ctx, u, 1), 0.25, rel_tol=5e-3)


def test_g_energy_atom_evaluation():
    g = GridSpec(1, 8, (1.0,), 3.0)
    node = 3
    w = WeightPair(g, 0.0, ((node, 1.0),))
    ctx = EnergyContext(g, zero_measure(g), w)
    hat = np.zeros(g.n_nodes)
    hat[node] = 1.0
    assert math.isclose(g_energy(ctx, Field(g, hat), 1), 1.0 / 3.0)


def test_rayleigh_sin_and_scaling():
    ctx = plain_ctx(n=512)
    u = field_from_function(ctx.grid, lambda x: np.sin(math.pi * x))
    val = rayleigh(ctx, u)
    assert math.isclose(val, math.pi ** 2, rel_tol=1e-2)
    assert rayleigh(ctx, Field(ctx.grid, 2.0 * u.values)) == pytest.approx(
        val, rel=1e-13)


def test_rayleigh_infeasible():
    g = GridSpec(1, 8, (1.0,), 2.0)
    w = WeightPair(g, np.zeros(8), (), 1.0)  # g1 = 0 < g2 for nonzero u
    with pytest.raises(ValueError, match="nu1"):
        EnergyContext(g, zero_measure(g), w)
    # nu1 nonzero but dominated by nu2
    w2 = WeightPair(g, 0.5, (), 1.0)
    ctx = EnergyContext(g, zero_measure(g), w2)
    u = field_from_function(g, lambda x: np.sin(math.pi * x))
    with pytest.raises(ConstraintViolation, match="constraint violated"):
        rayleigh(ctx, u)


def test_p2_gradient_is_laplacian_stencil():
    # mu = 0, p = 2: gradient is the 5-point stencil times cell volume
    g = GridSpec(2, 8, (1.0, 1.0), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    rng = np.random.default_rng(4)
    u = random_field(g, rng)
    grad = energy_gradient(ctx, u).values
    h = g.spacing[0]
    padded = np.pad(u.values, 1)
    stencil = (4.0 * padded[1:-1, 1:-1]
               - padded[:-2, 1:-1] - padded[2:, 1:-1]
               - padded[1:-1, :-2] - padded[1:-1, 2:]) / h ** 2
    assert np.allclose(grad, g.cell_volume * stencil, atol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_euler_identities(p):
    g = GridSpec(1, 24, (1.0,), p)
    mu = from_potential(g, np.linspace(0.0, 2.0, 24))
    mu = CapacitaryMeasure(g, mu.density, mu.blocked,
                           ((5, 0.3),) if p > 1 else ())
    w = WeightPair(g, 1.0, ((7, 0.2),), 0.1)
    ctx = EnergyContext(g, mu, w, eps_reg=0.0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_field(g, rng)
        gu = energy_gradient(ctx, u)
        assert math.isclose(float(np.dot(gu.flat, u.flat)),
                            p * f_energy(ctx, u), rel_tol=1e-11)
        for which in (1, 2):
            gg = g_gradient(ctx, u, which)
            assert math.isclose(float(np.dot(gg.flat, u.flat)),
                                p * g_energy(ctx, u, which),
                                rel_tol=1e-11, abs_tol=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_matches_finite_differences(p):
    g = GridSpec(1, 20, (1.0,), p)
    mu = from_potential(g, 0.5)
    w = WeightPair(g, 1.0, ((4, 0.5),), 0.2)
    ctx = EnergyContext(g, mu, w)
    rng = np.random.default_rng(17)
    # smooth fields keep |grad u| away from 0 where p < 2
    x = g.axis_nodes()
    for trial in range(3):
        c = rng.standard_normal(3)
        u0 = (c[0] * np.sin(math.pi * x) + c[1] * np.sin(2 * math.pi * x)
              + c[2] * np.sin(3 * math.pi * x) + 2.0 * np.sin(math.pi * x))
        v = rng.standard_normal(g.n_nodes)
        fd = central_diff_directional(
            lambda a: f_energy(ctx, Field(g, a)), u0, v)
        an = float(np.dot(energy_gradient(ctx, Field(g, u0)).flat, v))
        assert math.isclose(fd, an, rel_tol=1e-5)
        fd1 = central_diff_directional(
            lambda a: g_energy(ctx, Field(g, a), 1), u0, v)
        an1 = float(np.dot(g_gradient(ctx, Field(g, u0), 1).flat, v))
        assert math.isclose(fd1, an1, rel_tol=1e-5)


def test_convexity_midpoint():
    rng = np.random.default_rng(21)
    for p in (1.5, 2.0, 3.0):
        ctx = plain_ctx(n=16, p=p)
        for _ in range(10):
            u = random_field(ctx.grid, rng)
            v = random_field(ctx.grid, rng)
            mid = Field(ctx.grid, 0.5 * (u.values + v.values))
            assert f_energy(ctx, mid) <= 0.5 * (
                f_energy(ctx, u) + f_energy(ctx, v)) + 1e-12
            assert g_energy(ctx, mid, 1) <= 0.5 * (
                g_energy(ctx, u, 1) + g_energy(ctx, v, 1)) + 1e-12


def test_monotone_in_measure():
    g = GridSpec(1, 16, (1.0,), 2.5)
    rng = np.random.default_rng(31)
    w = lebesgue_weights(g)
    V1 = rng.random(16)
    V2 = V1 + rng.random(16)
    c1 = EnergyContext(g, from_potential(g, V1), w)
    c2 = EnergyContext(g, from_potential(g, V2), w)
    for _ in range(10):
        u = random_field(g, rng)
        assert f_energy(c1, u) <= f_energy(c2, u) + 1e-12


def test_lambda_ratio_identity():
    ctx = plain_ctx(n=64)
    u = field_from_function(ctx.grid, lambda x: x * (1 - x))
    f = f_energy(ctx, u)
    g1 = g_energy(ctx, u, 1)
    g2 = g_energy(ctx, u, 2)
    assert math.isclose(rayleigh(ctx, u), f / (g1 - g2), rel_tol=1e-14)


def test_residual_on_dense_eigenpair():
    n = 64
    g = GridSpec(1, n, (1.0,), 2.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    lams, vecs, free = dense_eigs_1d(
        n, 1.0, np.zeros(n), np.ones(n), np.zeros(n), 1)
    u = np.zeros(g.n_nodes)
    u[free] = vecs[0]
    res = residual(ctx, Field(g, u), lams[0])
    assert res <= 1e-10
    # wrong lambda has a visible defect
    assert residual(ctx, Field(g, u), lams[0] + 1.0) > 1e-3


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_residual_scaling(p):
    g = GridSpec(1, 24, (1.0,), p)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g),
                        eps_reg=0.0)
    x = g.axis_nodes()
    u = Field(g, np.sin(math.pi * x))
    lam = 12.0
    r1 = residual(ctx, u, lam)
    r2 = residual(ctx, Field(g, 3.0 * u.values), lam)
    assert math.isclose(r2, 3.0 ** (p - 1.0) * r1, rel_tol=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_on_a_stack_is_the_kernel_on_each_row(p, dim):
    from plapopt.energy import _energy_map, _kernel

    rng = np.random.default_rng(int(10 * p) + dim)
    n = 12 if dim == 1 else 6
    g = GridSpec(dim, n, (1.0,) * dim, p)
    blocked = np.zeros(g.n_cells, dtype=bool)
    blocked[[1, g.n_cells - 2]] = True
    atoms = ((2, 0.7),) if p > dim else ()
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.n_cells), blocked, atoms)
    w1_atoms = ((g.n_nodes // 2, 0.4),) if p > dim else ()
    weights = WeightPair(g, rng.random(g.n_cells), w1_atoms,
                         0.3 * rng.random(g.n_cells))
    ctx = EnergyContext(g, mu, weights)
    X = rng.standard_normal((5, g.n_nodes))
    X[2] = 0.0                        # vanishing gradients everywhere
    Y = np.ascontiguousarray((_energy_map(ctx) @ X.T).T)
    for eps, smooth_f in ((ctx.eps_reg, False), (ctx.eps_reg, True),
                          (0.0, False), (1e-3, True)):
        ctx_e = replace(ctx, eps_reg=eps)
        stack = _kernel(ctx_e, Y, smooth_f)
        for j, y in enumerate(Y):
            one = _kernel(ctx_e, y, smooth_f)
            for a, b in zip(stack, one):
                # the same operations row by row: bit-identical
                np.testing.assert_array_equal(a[j], b)
