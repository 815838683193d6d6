"""The shared minimization loops of the convex solvers."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.solvers import VALUE_RESOLUTION, banded_step, newton_refine


def _tridiagonal(n):
    """The 1D Laplacian stencil as a sparse matrix and as its upper band."""
    H = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csc")
    band = np.array([np.r_[0.0, -np.ones(n - 1)], 2.0 * np.ones(n)])
    return H, band


def _quadratic(H, b):
    return lambda x: (0.5 * x @ (H @ x) - b @ x, H @ x - b)


def _evaluate(value_and_grad, hessian):
    """newton_refine's evaluate from a value_and_grad and a hessian(x),
    with the banded step of the convex solves."""
    def evaluate(x):
        f, g = value_and_grad(x)
        return f, g, banded_step(g, lambda: hessian(x))

    return evaluate


def test_newton_refine_takes_no_step_from_a_converged_start():
    # an iterate that already passes the gradient test must come back
    # unchanged: a Newton step from it predicts a decrease below rounding
    n = 20
    H, band = _tridiagonal(n)
    b = np.linspace(1.0, 2.0, n)
    x0 = spla.spsolve(H, b) + 1e-13 * np.cos(np.arange(n))
    x, info = newton_refine(x0, _evaluate(_quadratic(H, b), lambda x: band))
    assert info["converged"]
    assert info["iterations"] == 0
    assert np.array_equal(x, x0)


def test_newton_refine_solves_a_quadratic_with_one_banded_step():
    n = 40
    H, band = _tridiagonal(n)
    b = np.linspace(1.0, 2.0, n)
    exact = sla.cho_solve_banded((sla.cholesky_banded(band), False), b)
    points = []

    def hessian(x):
        points.append(x.copy())
        return band

    x, info = newton_refine(np.full(n, 50.0),
                            _evaluate(_quadratic(H, b), hessian))
    assert info["converged"]
    # the first step from the far start lands on the banded solution
    np.testing.assert_allclose(points[1], exact, rtol=1e-13)
    np.testing.assert_allclose(x, exact, rtol=1e-13)


def test_newton_refine_shifts_an_indefinite_band_until_it_descends():
    # x^T H x / 2 + sum(x^4 / 4 - 3 x^2 / 2) - b^T x has the Hessian
    # H + diag(3 x^2 - 3), indefinite at the start x = 0: its Cholesky
    # factor fails, and the shift grows until the step descends.  With L,
    # the Laplacian of the path graph, in place of H and no -3 x^2 / 2,
    # the Hessian at 0 is L, exactly singular (L 1 = 0): the eigenpair
    # polish's case of a singular Newton matrix
    n = 20
    H, band = _tridiagonal(n)
    L = H - sp.diags(np.r_[1.0, np.zeros(n - 2), 1.0], format="csc")
    L_band = band.copy()
    L_band[-1, [0, -1]] = 1.0
    b = np.linspace(1.0, 2.0, n)

    for M, M_band, c in ((H, band, 3.0), (L, L_band, 0.0)):
        def value_and_grad(x):
            f, g = _quadratic(M, b)(x)
            return (f + float(np.sum(x ** 4 / 4.0 - 0.5 * c * x ** 2)),
                    g + x ** 3 - c * x)

        def hessian(x):
            out = M_band.copy()
            out[-1] += 3.0 * x ** 2 - c
            return out

        x0 = np.zeros(n)
        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky_banded(hessian(x0))
        x, info = newton_refine(x0, _evaluate(value_and_grad, hessian))
        assert info["converged"]
        assert np.linalg.norm(value_and_grad(x)[1]) <= 1e-8
        sla.cholesky_banded(hessian(x))     # a minimum: positive definite


def test_newton_refine_lets_the_gradient_decide_below_the_resolution_of_f():
    # the quadratic plus n * 1e6, summed term by term as the energies sum
    # over cells: f carries round-off of a few 1e-9, far above the
    # decrease of 1e-13 that the Newton step from x0 predicts, while the
    # gradient is still 30 times the tolerance.  Armijo's value test
    # cannot rank such steps; the gradient test can
    n = 20
    H, band = _tridiagonal(n)
    b = np.linspace(1.0, 2.0, n)
    exact = sla.cho_solve_banded((sla.cholesky_banded(band), False), b)
    calls = []

    def value_and_grad(x):
        calls.append(1)
        Hx = H @ x
        return float(np.sum(1e6 + x * (0.5 * Hx - b))), Hx - b

    x0 = exact + 1e-7 * np.cos(np.arange(n))
    f0, g0 = value_and_grad(x0)
    calls.clear()
    assert np.linalg.norm(g0) > 30 * 1e-8
    x, info = newton_refine(x0, _evaluate(value_and_grad, lambda x: band))
    assert info["converged"]
    assert info["grad_norm"] <= 1e-8
    assert 1 <= info["iterations"] <= 3
    assert len(calls) <= 2 * info["iterations"]
    # f rose within its resolution on the accepted step: no decrease,
    # and none reported below 0
    assert f0 < info["value"] <= f0 + VALUE_RESOLUTION * abs(f0)
    assert info["final_decrement"] == 0.0


def test_newton_refine_raises_on_a_band_of_the_wrong_shape():
    # a programming error is not a singular Hessian: no silent shift loop
    n = 20
    H, band = _tridiagonal(n)
    b = np.linspace(1.0, 2.0, n)
    wide = np.hstack([band, band[:, :1]])
    with pytest.raises(ValueError):
        newton_refine(np.zeros(n), _evaluate(_quadratic(H, b),
                                             lambda x: wide))


def test_newton_refine_stops_when_no_shift_gives_a_descending_step():
    # a gradient of the wrong sign: each step along it climbs the
    # quadratic, and no shift of the band brings an acceptable point
    n = 20
    H, band = _tridiagonal(n)
    value_and_grad = _quadratic(H, np.linspace(1.0, 2.0, n))

    def uphill(x):
        f, g = value_and_grad(x)
        return f, -g

    x0 = np.full(n, 50.0)
    x, info = newton_refine(x0, _evaluate(uphill, lambda x: band))
    assert not info["converged"]
    # stopped in its first iteration, before any decrease
    assert info["iterations"] == 1
    assert info["final_decrement"] == 0.0
    assert np.array_equal(x, x0)
    assert info["value"] == value_and_grad(x0)[0]


def test_newton_refine_stops_unconverged_at_max_iter():
    # the one step lands on the minimizer, but its decrease is far above
    # tol_decrement: the stop test has not passed when max_iter is reached
    n = 40
    H, band = _tridiagonal(n)
    value_and_grad = _quadratic(H, np.linspace(1.0, 2.0, n))
    x0 = np.full(n, 50.0)
    x, info = newton_refine(x0, _evaluate(value_and_grad, lambda x: band),
                            max_iter=1)
    f0, f1 = value_and_grad(x0)[0], value_and_grad(x)[0]
    assert not info["converged"]
    assert info["iterations"] == 1
    assert info["final_decrement"] == (f0 - f1) / max(abs(f0), abs(f1))
    assert info["value"] == f1
    assert info["grad_norm"] <= 1e-8
