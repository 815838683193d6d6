"""Sparse Hessians against central differences of the energy gradients."""

import numpy as np
import pytest

from plapopt.grid import GridSpec, Field
from plapopt.measure import CapacitaryMeasure, WeightPair
from plapopt.energy import EnergyContext, energy_gradient, g_gradient
from plapopt.hessians import hessian_f, hessian_g_diff
from plapopt.operators import free_node_mask

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
