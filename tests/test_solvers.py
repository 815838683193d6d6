"""The shared minimization loops of the convex solvers."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapopt.solvers import newton_refine


def test_newton_refine_takes_no_step_from_a_converged_start():
    # an iterate that already passes the gradient test must come back
    # unchanged: a Newton step from it predicts a decrease below rounding
    n = 20
    H = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csc")
    b = np.linspace(1.0, 2.0, n)
    x0 = spla.spsolve(H, b) + 1e-13 * np.cos(np.arange(n))
    x, info = newton_refine(
        x0, lambda x: (0.5 * x @ (H @ x) - b @ x, H @ x - b), lambda x: H)
    assert info["converged"]
    assert info["iterations"] == 0
    assert np.array_equal(x, x0)
