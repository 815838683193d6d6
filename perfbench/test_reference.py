"""The benchmark's reference assembly against closed forms and hand sums.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import (
    Problem,
    interval_dirichlet_eigenvalues,
    pencil_eigenvalues,
    square_dirichlet_eigenvalues,
    torsion_max_1d,
)


@pytest.mark.parametrize("dense", [True, False])
def test_square_pencil_matches_separable_eigenvalues(dense):
    n, m = 12, 6
    A, B, free = Problem(2, n, (1.0, 1.0), 2.0).pencil()
    assert free.size == (n - 1) ** 2
    got = pencil_eigenvalues(A, B, m, dense=dense)
    want = square_dirichlet_eigenvalues(n, 1.0, m)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_pencil_quadratic_forms_are_twice_the_energies():
    rng = np.random.default_rng(5)
    n = 7
    blocked = np.zeros((n, n), dtype=bool)
    blocked[2, 3] = True
    prob = Problem(2, n, (1.0, 2.0), 2.0, V=rng.random((n, n)),
                   blocked=blocked, w1=rng.random((n, n)),
                   w2=rng.random((n, n)))
    A, B, free = prob.pencil()
    u = np.zeros((n - 1) ** 2)
    u[free] = rng.standard_normal(free.size)
    g1_minus_g2 = 0.5 * float(np.dot(prob.unpad(prob.g_gradient(u)), u))
    assert float(u[free] @ (A @ u[free])) == pytest.approx(
        2.0 * prob.f_energy(u), rel=1e-12)
    assert float(u[free] @ (B @ u[free])) == pytest.approx(
        2.0 * g1_minus_g2, rel=1e-12)


def test_pencil_1d_agrees_with_the_suite_oracle():
    tests_dir = Path(__file__).resolve().parent.parent / "tests"
    if not (tests_dir / "oracles.py").is_file():
        pytest.skip("test suite oracles not present")
    sys.path.insert(0, str(tests_dir))
    from oracles import dense_pencil_1d

    rng = np.random.default_rng(11)
    n = 20
    V, w1, w2 = rng.random(n), rng.random(n), 0.3 * rng.random(n)
    blocked = np.zeros(n, dtype=bool)
    blocked[[4, 15]] = True
    atoms, w1_atoms = ((9, 0.7),), ((2, 0.4),)
    A, B, free = Problem(1, n, (1.5,), 2.0, V=V, blocked=blocked,
                         mu_atoms=atoms, w1=w1, w1_atoms=w1_atoms,
                         w2=w2).pencil()
    Ad, Bd, free_d = dense_pencil_1d(n, 1.5, V, w1, w2, blocked, atoms,
                                     w1_atoms)
    np.testing.assert_array_equal(free, free_d)
    np.testing.assert_allclose(A.toarray(), Ad, rtol=1e-14, atol=1e-12)
    np.testing.assert_allclose(B.toarray(), Bd, rtol=1e-14, atol=1e-14)


def test_interval_closed_form_matches_the_1d_pencil():
    A, B, _ = Problem(1, 30, (2.0,), 2.0).pencil()
    np.testing.assert_allclose(pencil_eigenvalues(A, B, 4),
                               interval_dirichlet_eigenvalues(30, 2.0, 4),
                               rtol=1e-10)


# hand sums on (0, 1) with n = 3 cells, h = 1/3 and u = (1, 1):
# the cell gradients are (3, 0, -3); the flux |g|^(p-2) g h of the end
# cells goes to their nodes as +-flux/h, and each node anchors one cell.

def test_eigen_residual_hand_computed_p2():
    prob = Problem(1, 3, (1.0,), 2.0)
    u = np.array([1.0, 1.0])
    # f'(u) = (1/h)(2-1, -1+2) = (3, 3); (g1 - g2)'(u) = h u = (1/3, 1/3)
    np.testing.assert_allclose(prob.unpad(prob.f_gradient(u)), [3.0, 3.0])
    np.testing.assert_allclose(prob.unpad(prob.g_gradient(u)), [1 / 3] * 2)
    # lambda = 9 is the discrete ground state: zero residual
    assert prob.residual(u, 9.0) == pytest.approx(0.0, abs=1e-13)
    # lambda = 0: r = (3, 3), q = 2, sqrt(h * sum (r/h)^2) = sqrt(54)
    assert prob.residual(u, 0.0) == pytest.approx(math.sqrt(54.0), rel=1e-14)


def test_eigen_residual_hand_computed_p3():
    prob = Problem(1, 3, (1.0,), 3.0)
    u = np.array([1.0, 1.0])
    # flux |3| * 3 * h = 3 at cell 0 and -3 at cell 2, each divided by h
    np.testing.assert_allclose(prob.unpad(prob.f_gradient(u)), [9.0, 9.0])
    # Euler identity <f'(u), u> = p f(u), with f(u) = (1/3) h (27 + 27)
    assert prob.f_energy(u) == pytest.approx(6.0, rel=1e-14)
    assert prob.residual(u, 27.0) == pytest.approx(0.0, abs=1e-12)
    q = 1.5
    want = (2 * (1 / 3) * 27.0 ** q) ** (1 / q)
    assert prob.residual(u, 0.0) == pytest.approx(want, rel=1e-14)


def test_torsion_residual_hand_computed_and_exact_profile():
    prob = Problem(1, 3, (1.0,), 2.0)
    res, scale = prob.torsion_residual(np.array([1.0, 1.0]))
    # f'(u) - load = (3 - 1/3, 3 - 1/3), load = (1/3, 1/3)
    r = 3.0 - 1.0 / 3.0
    assert res == pytest.approx(math.sqrt((1 / 3) * 2 * (3 * r) ** 2))
    assert scale == pytest.approx(math.sqrt((1 / 3) * 2 * 1.0))
    # x(1 - x)/2 solves the second-difference equation exactly at nodes
    n = 16
    x = np.arange(1, n) / n
    res, scale = Problem(1, n, (1.0,), 2.0).torsion_residual(x * (1 - x) / 2)
    assert res <= 1e-12 * scale
    assert torsion_max_1d(2.0) == pytest.approx(0.125, rel=1e-15)


def test_blocked_cells_pin_their_corner_nodes():
    blocked = np.zeros((4, 4), dtype=bool)
    blocked[1, 2] = True
    prob = Problem(2, 4, (1.0, 1.0), 2.0, blocked=blocked)
    _, _, free = prob.pencil()
    # interior nodes (padded 1..3)^2; the cell (1, 2) has corners
    # (1, 2), (2, 2), (1, 3), (2, 3), which are flat 1, 4, 2, 5
    assert sorted(set(range(9)) - set(free.tolist())) == [1, 2, 4, 5]
    u = np.zeros(9)
    u[4] = 1.0
    assert prob.f_energy(u) == math.inf
