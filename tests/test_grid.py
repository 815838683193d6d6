import math

import numpy as np
import pytest

from plapopt.grid import (
    GridSpec,
    Field,
    anchor_values,
    blocked_adjacent_nodes,
    discrete_gradient,
    integrate,
    pad_with_boundary,
)
from helpers import field_from_function


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 8, (1.0, 1.0, 1.0), 2.0)
    with pytest.raises(ValueError):
        GridSpec(1, 2, (1.0,), 2.0)
    with pytest.raises(ValueError):
        GridSpec(1, 8, (1.0,), 1.0)
    with pytest.raises(ValueError):
        GridSpec(2, 8, (1.0,), 2.0)
    g = GridSpec(2, 8, (2.0, 1.0), 2.5)
    assert g.spacing == (0.25, 0.125)
    assert g.n_nodes == 49
    assert g.n_cells == 64
    assert math.isclose(g.cell_volume, 0.25 * 0.125)


def test_field_length_checked():
    g = GridSpec(1, 8, (1.0,), 2.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    f = Field(g, np.arange(7))
    assert f.values.shape == (7,)


def test_gradient_zero_field():
    g = GridSpec(2, 6, (1.0, 1.0), 2.0)
    grad = discrete_gradient(Field(g, np.zeros(g.n_nodes)))
    assert grad.shape == (6, 6, 2)
    assert np.all(grad == 0.0)


def test_gradient_1d_hat():
    # hat of height 1 at the midnode of n=4: slopes +-1/h next to the peak
    g = GridSpec(1, 4, (1.0,), 2.0)
    u = Field(g, [0.0, 1.0, 0.0])
    grad = discrete_gradient(u)[:, 0]
    h = g.spacing[0]
    assert np.allclose(grad, [0.0, 1.0 / h, -1.0 / h, 0.0])


def test_gradient_2d_tensor_hats():
    n = 6
    g1 = GridSpec(1, n, (1.0,), 2.0)
    g2 = GridSpec(2, n, (1.0, 1.0), 2.0)
    a = np.zeros(n - 1)
    a[2] = 1.0
    b = np.zeros(n - 1)
    b[3] = 0.7
    u2 = Field(g2, np.outer(a, b))
    grad2 = discrete_gradient(u2)
    ga = discrete_gradient(Field(g1, a))[:, 0]
    gb = discrete_gradient(Field(g1, b))[:, 0]
    anch_a = anchor_values(g1, a)
    anch_b = anchor_values(g1, b)
    assert np.allclose(grad2[..., 0], np.outer(ga, anch_b))
    assert np.allclose(grad2[..., 1], np.outer(anch_a, gb))


def test_gradient_linearity():
    rng = np.random.default_rng(7)
    g = GridSpec(2, 9, (1.0, 2.0), 3.0)
    u = rng.standard_normal(g.n_nodes)
    v = rng.standard_normal(g.n_nodes)
    lhs = discrete_gradient(Field(g, 2.5 * u - 1.25 * v))
    rhs = (2.5 * discrete_gradient(Field(g, u))
           - 1.25 * discrete_gradient(Field(g, v)))
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_integrate_basics():
    g = GridSpec(2, 8, (1.0, 1.0), 2.0)
    assert math.isclose(integrate(g, np.ones(g.cells_shape)), 1.0)
    assert integrate(g, np.zeros(g.cells_shape)) == 0.0
    half = np.zeros(g.cells_shape)
    half[: g.n // 2] = 1.0
    assert math.isclose(integrate(g, half), 0.5)


def test_integrate_linear_monotone():
    rng = np.random.default_rng(1)
    g = GridSpec(1, 16, (3.0,), 2.0)
    a = rng.random(g.n_cells)
    b = a + rng.random(g.n_cells)
    assert integrate(g, b) >= integrate(g, a)
    assert math.isclose(integrate(g, 2.0 * a + b),
                        2.0 * integrate(g, a) + integrate(g, b))


def test_sin_energy_convergence_rate():
    # integrate(|grad sin(pi x)|^2) -> pi^2/2 as the grid refines
    errs = []
    for n in (64, 128, 256):
        g = GridSpec(1, n, (1.0,), 2.0)
        u = field_from_function(g, lambda x: np.sin(math.pi * x))
        grad = discrete_gradient(u)
        val = integrate(g, np.sum(grad * grad, axis=-1))
        errs.append(abs(val - math.pi ** 2 / 2.0))
    # at least first order: error shrinks by ~2x per halving
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def test_pad_and_anchor():
    g = GridSpec(1, 4, (1.0,), 2.0)
    padded = pad_with_boundary(g, [1.0, 2.0, 3.0])
    assert np.allclose(padded, [0.0, 1.0, 2.0, 3.0, 0.0])
    assert np.allclose(anchor_values(g, [1.0, 2.0, 3.0]),
                       [0.0, 1.0, 2.0, 3.0])


def test_blocked_adjacent_nodes_2d():
    g = GridSpec(2, 4, (1.0, 1.0), 2.0)
    blocked = np.zeros((4, 4), dtype=bool)
    blocked[0, 0] = True
    mask = blocked_adjacent_nodes(g, blocked)
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 0] = True
    assert np.array_equal(mask, expected)
