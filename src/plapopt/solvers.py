"""Shared unconstrained minimization loop for the convex solvers.

Barzilai-Borwein trial steps safeguarded by monotone Armijo backtracking.
Callers work on flat vectors over their free degrees of freedom; the
objective may return +inf outside an implicit domain, the line search then
backtracks.
"""

from __future__ import annotations

import math

import numpy as np


def bb_minimize(x0: np.ndarray, value_and_grad, *,
                max_iter: int = 20000,
                tol_decrement: float = 1e-10,
                tol_grad: float = 1e-8,
                grad_norm=None,
                grad_scale: float = 1.0):
    """Minimize a smooth (convex or not) objective by BB descent.

    Args:
        x0: starting point (flat array).
        value_and_grad: callable x -> (value, gradient).
        tol_decrement: relative objective decrement threshold.
        tol_grad: threshold on grad_norm(g) / grad_scale.
        grad_norm: norm used in the stopping test (default Euclidean).
        grad_scale: scale that makes the gradient test relative.

    Returns:
        (x, info) with info keys iterations, final_decrement, converged,
        value, grad_norm.
    """
    if grad_norm is None:
        grad_norm = lambda g: float(np.linalg.norm(g))
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    if not math.isfinite(f):
        raise ValueError("starting point has non-finite objective")
    gn = grad_norm(g)
    scale = max(abs(grad_scale), 1e-300)
    t = 1.0 / max(gn, 1e-12)
    decrement = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        if gn <= tol_grad * scale:
            # no first-order decrease left
            return x, _info(it - 1, 0.0, True, f, gn)
        d = -g
        gd = -float(np.dot(g, g))
        step = t
        accepted = False
        for _ in range(60):
            x_new = x + step * d
            f_new, g_new = value_and_grad(x_new)
            if math.isfinite(f_new) and f_new <= f + 1e-4 * step * gd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = gn <= tol_grad * scale
            return x, _info(it, 0.0 if converged else decrement,
                            converged, f, gn)
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        ss = float(np.dot(s, s))
        t = ss / sy if sy > 1e-300 else step * 2.0
        t = min(max(t, 1e-18), 1e18)
        decrement = (f - f_new) / max(abs(f), abs(f_new), 1e-300)
        x, f, g = x_new, f_new, g_new
        gn = grad_norm(g)
        if decrement <= tol_decrement and gn <= tol_grad * scale:
            return x, _info(it, decrement, True, f, gn)
    return x, _info(max_iter, decrement, gn <= tol_grad * scale, f, gn)


def _info(iterations, decrement, converged, value, gn):
    return {
        "iterations": iterations,
        "final_decrement": float(decrement),
        "converged": bool(converged),
        "value": float(value),
        "grad_norm": float(gn),
    }


def newton_refine(x0: np.ndarray, value_and_grad, hessian, *,
                  max_iter: int = 80,
                  tol_decrement: float = 1e-10,
                  tol_grad: float = 1e-8,
                  grad_norm=None,
                  grad_scale: float = 1.0):
    """Damped Newton with Levenberg shifts for a convex objective.

    ``hessian(x)`` returns a sparse psd matrix; singular directions are
    handled by growing a diagonal shift until the step descends.  Used to
    finish first-order iterates off the slow tail of degenerate (p != 2)
    problems.
    """
    import warnings

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if grad_norm is None:
        grad_norm = lambda g: float(np.linalg.norm(g))
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    gn = grad_norm(g)
    scale = max(abs(grad_scale), 1e-300)
    # no step taken yet: an iterate that passes the gradient test needs none
    decrement = 0.0
    lm = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        if gn <= tol_grad * scale and decrement <= tol_decrement:
            return x, _info(it - 1, min(decrement, tol_decrement), True,
                            f, gn)
        H = hessian(x).tocsc()
        dscale = max(float(np.abs(H.diagonal()).max()), 1e-300)
        accepted = False
        for _ in range(25):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore",
                                          spla.MatrixRankWarning)
                    d = spla.spsolve(
                        H + lm * dscale * sp.identity(H.shape[0]), -g)
            except Exception:
                d = None
            if d is not None and np.all(np.isfinite(d)):
                gd = float(np.dot(g, d))
                if gd < 0:
                    step = 1.0
                    for _ in range(40):
                        x_new = x + step * d
                        f_new, g_new = value_and_grad(x_new)
                        if math.isfinite(f_new) and \
                                f_new <= f + 1e-4 * step * gd:
                            accepted = True
                            break
                        step *= 0.5
                    if accepted:
                        break
            lm = max(lm * 10.0, 1e-14)
        if not accepted:
            converged = gn <= tol_grad * scale
            return x, _info(it, 0.0 if converged else decrement,
                            converged, f, gn)
        decrement = (f - f_new) / max(abs(f), abs(f_new), 1e-300)
        x, f, g = x_new, f_new, g_new
        gn = grad_norm(g)
        lm = lm / 4.0 if lm > 1e-14 else 0.0
    converged = gn <= tol_grad * scale and decrement <= tol_decrement
    return x, _info(max_iter, decrement, converged, f, gn)
