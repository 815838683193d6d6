"""Unconstrained minimization loops.

newton_refine is the package's one damped Newton loop: the convex solves
pass it banded_step, the eigenpair polish a bordered sparse step.
bb_minimize (Barzilai-Borwein, monotone Armijo) has no caller and is kept
only for the benchmark tracer's span.  Callers work on flat vectors; the
objective may be +inf outside a domain, the search backtracks.

Near a minimizer a Newton step predicts a decrease -t g.d below the
round-off of f itself, so Armijo's value test can no longer rank trial
points and would halve the step some 20 times to accept a move that
leaves f unchanged.  Below VALUE_RESOLUTION |f| newton_refine therefore
lets the gradient decide, after Hager & Zhang's approximate Wolfe
conditions (SIAM J. Optim. 2005): it accepts a trial point whose
grad_norm is smaller, as long as f has not risen by more than that
resolution.  Above it the Armijo test decides alone.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# Relative resolution of an objective value: about 500 ulps, the
# round-off of f summed over the cells of a grid.  A predicted decrease
# below VALUE_RESOLUTION |f| cannot be told from noise in f.
VALUE_RESOLUTION = 512 * np.finfo(float).eps


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


def newton_refine(x0: np.ndarray, evaluate, *,
                  max_iter: int = 80,
                  tol_decrement: float = 1e-10,
                  tol_grad: float = 1e-8,
                  grad_norm=None,
                  grad_scale: float = 1.0):
    """Damped Newton with Levenberg shifts, the step taken from the caller.

    ``evaluate(x)`` returns the value f at x, the vector g whose grad_norm
    the stop test reads, and step(shift): called at accepted points only,
    it gives from the same evaluation the Newton direction at that
    Levenberg shift with the slope of f along it, or None.  A step that
    fails, does not descend or finds no acceptable point grows the shift
    (0, then 1e-14 up by 10); an accepted one divides it by 4.  The search
    halves the step at most 40 times, until it no longer moves x.  A trial
    whose predicted decrease is below VALUE_RESOLUTION |f| is accepted
    when it lowers grad_norm and raises f by at most that resolution (see
    the module docstring).  Returns (x, info) as bb_minimize; a stop at
    max_iter or with no descending step reports its last iteration and
    the relative decrease of its last accepted step (0 before the first).
    """
    if grad_norm is None:
        grad_norm = lambda g: float(np.linalg.norm(g))
    x = np.asarray(x0, dtype=float).copy()
    f, g, step = evaluate(x)
    gn = grad_norm(g)
    scale = max(abs(grad_scale), 1e-300)
    # no step taken yet: an iterate that passes the gradient test needs none
    decrement = 0.0
    lm = 0.0
    for it in range(1, max_iter + 1):
        if gn <= tol_grad * scale and decrement <= tol_decrement:
            return x, _info(it - 1, min(decrement, tol_decrement), True,
                            f, gn)
        accepted = False
        for _ in range(25):
            found = step(lm)
            if found is not None and found[1] < 0:
                d, gd = found
                floor = VALUE_RESOLUTION * abs(f)
                t = 1.0
                for _ in range(40):
                    x_new = x + t * d
                    if np.array_equal(x_new, x):
                        break           # t d no longer moves x
                    f_new, g_new, step_new = evaluate(x_new)
                    accepted = math.isfinite(f_new) and (
                        f_new <= f + 1e-4 * t * gd
                        if -t * gd > floor else
                        f_new <= f + floor and grad_norm(g_new) < gn)
                    if accepted:
                        break
                    t *= 0.5
                if accepted:
                    break
            lm = max(lm * 10.0, 1e-14)
        if not accepted:
            converged = gn <= tol_grad * scale
            return x, _info(it, 0.0 if converged else decrement,
                            converged, f, gn)
        # a step accepted at the round-off floor may raise f within its
        # resolution: that is no decrease, not a negative one
        decrement = max(f - f_new, 0.0) / max(abs(f), abs(f_new), 1e-300)
        x, f, g, step = x_new, f_new, g_new, step_new
        gn = grad_norm(g)
        lm = lm / 4.0 if lm > 1e-14 else 0.0
    converged = gn <= tol_grad * scale and decrement <= tol_decrement
    return x, _info(max_iter, decrement, converged, f, gn)


def banded_step(g: np.ndarray, hessian):
    """newton_refine's step(shift) for a convex objective with gradient g:
    the Hessian from hessian(), built on the first call in LAPACK upper
    band storage ([bw + i - j, j] holds H[i, j], the last row the
    diagonal), shifted by shift max|diag H|, by banded Cholesky (n bw^2
    operations); None when the shifted band is not positive definite."""
    band = []

    def step(shift):
        if not band:
            band.append(hessian())
        shifted = band[0].copy()
        shifted[-1] += shift * max(float(np.abs(band[0][-1]).max()), 1e-300)
        try:
            factor = sla.cholesky_banded(shifted, overwrite_ab=True,
                                         check_finite=False)
            d = sla.cho_solve_banded((factor, False), -g, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        return (d, float(np.dot(g, d))) if np.all(np.isfinite(d)) else None

    return step
