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
from plapopt.measure import (CapacitaryMeasure, WeightPair, lebesgue_weights,
                             zero_measure)
from plapopt.energy import (EnergyContext, _energy_map, _kernel, _odd,
                            abs_pow, energy_gradient, f_energy, g_energy,
                            g_gradient)
from plapopt.hessians import assemble, hessian_f, hessian_g_diff
from plapopt import energy, hessians, operators, spectrum
from plapopt.operators import free_node_mask, p2_matrices
from oracles import dense_pencil_1d
from helpers import field_from_function

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
                                *operators.pattern(ctx.grid, K.shape[0]))
    assert terms.bw < n and terms.indptr.size - 1 == free.size
    stages = [ctx]
    if p < 2.0:     # a smoothing stage of the p < 2 continuation
        stages.append(replace(ctx, eps_reg=1e-2 * min(ctx.grid.spacing) ** 2))
    y = K @ values
    for ctx_e in stages:
        w = hessians.weights(ctx_e, y, _kernel(ctx_e, y, hess=True)[1],
                             ctx._rows.f)
        _assert_band_is(terms.band(w),
                        hessian_f(ctx_e, Field(ctx.grid, values), free))
    # the eigenpair polish reads f - lam (g1 - g2) from the same list
    lam, rows = 3.7, ctx._rows
    c = rows.f - lam * (rows.g1 - rows.g2)
    w = hessians.weights(ctx, y, _kernel(ctx, y, hess=True)[1], c)
    _, ref = assemble(ctx, K[:, free], y, c)
    err = abs(terms.csr(w) - ref).max()
    assert err <= 1e-14 * abs(ref).max(), err / abs(ref).max()


def _band_of(monkeypatch):
    """Keep the hessian() that each convex-solve point hands to
    solvers.banded_step; returns band(evaluate, x), the band that the
    step of evaluate's point x factors."""
    built, banded_step = [], torsion.banded_step

    def recording(g, hessian):
        built.append(hessian)
        return banded_step(g, hessian)

    monkeypatch.setattr(torsion, "banded_step", recording)

    def band(evaluate, x):
        evaluate(x)
        return built[-1]()

    return band


def _newton_hessians(monkeypatch, solve):
    """Run a solve and keep (x0, hessian, x) of every newton_refine stage:
    its start, its Hessian and its result."""
    stages = []
    refine = torsion.newton_refine
    band = _band_of(monkeypatch)

    def recording(x0, evaluate, **kwargs):
        x, info = refine(x0, evaluate, **kwargs)
        stages.append((np.array(x0), lambda x: band(evaluate, x), x))
        return x, info

    monkeypatch.setattr(torsion, "newton_refine", recording)
    assert solve()[1].converged
    return stages


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8)])
def test_prox_band_is_f_plus_the_fidelity_hessian(monkeypatch, dim, n, p):
    # the fidelity curvature rides on the anchor-row weights of the band:
    # at p > 2 its exact Hessian, at p < 2 the secant curvature of each
    # row at the force of f's (smoothed) gradient on its node
    ctx, free, _, _ = _problem(dim, n, p, seed=8)
    g, mu = ctx.grid, ctx.mu
    rng = np.random.default_rng(8)
    z = Field(g, rng.standard_normal(g.n_nodes))   # nonzero off free too
    # k = 100: with the fidelity's one weight k vol on every row, k = 10
    # put the rows' minimizers d* beyond d on all but one 1D row
    k = 100.0
    stages = _newton_hessians(monkeypatch, lambda: torsion.prox(z, k, mu))
    anchor = operators.anchor_op(g)
    A, z_anchor = anchor[:, free], anchor @ z.flat
    tctx = torsion._torsion_context(mu)
    # f's Dirichlet part alone: the same blocked cells, no density, no atoms
    dctx = torsion._torsion_context(CapacitaryMeasure(g, 0.0, mu.blocked))
    K, rows = _energy_map(tctx), tctx._rows
    meas = K[rows.n_grad:, free]
    c = np.full(g.n_cells, k * g.cell_volume)

    def f_part(ctx_e, v, delta):
        return hessian_f(ctx_e, operators._embed(g, free, v), free) \
            + operators.sandwich(meas, sp.diags(
                _measure_weights(rows.f, meas @ v, p, delta)))

    if p > 2.0:
        # one exact stage from z, in the node values themselves
        assert len(stages) == 1
        for x in (stages[0][0], stages[0][2]):
            diag = operators.hessian_diagonal(
                g.dim, None, c, abs_pow(A @ x - z_anchor, p - 2.0), p)
            _assert_band_is(stages[0][1](x), f_part(dctx, x, None)
                            + operators.sandwich(A, sp.diags(diag)))
        return
    # Newton moves e = v - r, r the nearer of 0 and z on each free node at
    # the previous stage's result (z before the first); the first stage
    # smooths with eps = delta = 1e1 h^2, the last keeps eps_reg and the
    # floor delta
    h2 = min(g.spacing) ** 2
    z_free = z.flat[free]
    rs, v = [], z_free
    for _, _, e in stages:
        rs.append(np.where(np.abs(v) <= np.abs(v - z_free), 0.0, z_free))
        v = rs[-1] + e
    checked = [(0, 1e1 * h2, 1e1 * h2),
               (-1, None, torsion.MEASURE_DELTA_FLOOR)]
    for i, eps, delta in checked:
        ctx_e = dctx if eps is None else replace(dctx, eps_reg=eps)
        r, inside = rs[i], 0
        # two points off the stage's start, where the fidelity rows are far
        # from their minimizers and the secant is well conditioned
        for _ in range(2):
            e = stages[i][0] + rng.standard_normal(free.size)
            v = r + e
            # f's smoothed gradient on the free nodes at v
            mv = meas @ v
            grad = energy_gradient(ctx_e, operators._embed(g, free, v)).flat[
                free] + meas.T @ (rows.f * mv * (mv * mv + delta)
                                  ** (p / 2 - 1))
            # the code's d: r's anchor values are exact, and so is e there
            d = (A @ r - z_anchor) + A @ e
            curv = torsion._secant_curvature(c, p, d, c * _odd(d, p),
                                             A @ grad)
            major = c * abs_pow(d, p - 2.0)
            # rows that take the secant itself, not one of its clip bounds
            inside += int(np.sum((curv > (p - 1.0) * major) & (curv < major)))
            _assert_band_is(stages[i][1](e), f_part(ctx_e, v, delta)
                            + operators.sandwich(A, sp.diags(curv)))
        assert inside >= 2, inside


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
    band = _band_of(monkeypatch)

    def recording(x0, evaluate, **kwargs):
        stages.append((lambda x: evaluate(x)[:2],
                       lambda x: band(evaluate, x)))
        return x0, {"iterations": 0, "final_decrement": 0.0,
                    "converged": True}

    monkeypatch.setattr(torsion, "newton_refine", recording)
    zero = lambda v0, u: (0.0, np.zeros_like(u),
                          lambda rest: np.zeros_like(u))
    torsion._convex_solve(replace(ctx, eps_reg=1e-40), zero,
                          Field(ctx.grid, np.zeros(ctx.grid.n_nodes)),
                          grad_scale=1.0)
    h2 = min(ctx.grid.spacing) ** 2
    # from a start z, the ladder opens with 1e1 h^2
    deltas = [1e1 * h2, 1e-2 * h2, 1e-5 * h2, 1e-8 * h2]
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


def _kernel_passes(monkeypatch) -> list:
    """Record y of every _kernel pass that energy, torsion, hessians and
    spectrum run, where each of them looks the kernel up."""
    points, kernel = [], energy._kernel

    def recorded(ctx, y, *args, **kwargs):
        points.append(np.array(y))
        return kernel(ctx, y, *args, **kwargs)

    for module in (energy, torsion, hessians, spectrum):
        monkeypatch.setattr(module, "_kernel", recorded)
    return points


def test_a_prox_solve_takes_one_kernel_pass_per_newton_point(monkeypatch):
    # value, gradient and band of a point come from one pass: the Hessian
    # of an accepted point does not run the kernel again
    passes = _kernel_passes(monkeypatch)
    evaluations = []
    refine = torsion.newton_refine

    def recording(x0, evaluate, **kwargs):
        def counted(x):
            evaluations.append(None)
            return evaluate(x)

        return refine(x0, counted, **kwargs)

    monkeypatch.setattr(torsion, "newton_refine", recording)
    ctx, _, _, _ = _problem(2, 8, 1.5, seed=10)
    rng = np.random.default_rng(10)
    z = Field(ctx.grid, rng.standard_normal(ctx.grid.n_nodes))
    _, rep = torsion.prox(z, 10.0, ctx.mu)
    assert rep.converged and rep.iterations > 0
    assert len(passes) == len(evaluations)


def test_the_eigenpair_polish_takes_one_kernel_pass_per_point(monkeypatch):
    # the input (which gives the start's lambda), its normalized start,
    # each trial point of the line searches (the step from an accepted
    # point reuses the pass that accepted it), and the result only if it
    # needs scaling; here the result is the last trial, whose g1 - g2 of
    # exactly 1 leaves it unscaled: its pass gives lambda and the residual,
    # and no point is evaluated twice
    g = GridSpec(2, 16, (1.0, 1.0), 3.0)
    ctx = EnergyContext(g, zero_measure(g), lebesgue_weights(g))
    rng = np.random.default_rng(11)
    u = field_from_function(g, lambda x, y: np.sin(np.pi * x)
                            * np.sin(np.pi * y))
    u = Field(g, u.values * (1.0 + 0.2 * rng.random(u.values.shape)))
    steps = []
    solve = spla.spsolve

    def counted(*args, **kwargs):
        steps.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", counted)
    passes = _kernel_passes(monkeypatch)
    start = u.flat[free_node_mask(g, ctx.mu)]
    _, field, _ = spectrum.polish_eigenpair(ctx, start)
    passes = passes[:]
    assert spectrum.certify(ctx, field, energy.rayleigh(ctx, field))
    assert len(steps) >= 2
    # at least one trial point per step, each evaluated once
    assert len(passes) > len(steps)
    repeated = [i for i, y in enumerate(passes)
                if any(np.array_equal(y, x) for x in passes[:i])]
    assert repeated == []


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


@pytest.mark.parametrize("dim", [1, 2])
def test_p2_band_is_the_upper_band_of_the_pencil_bit_for_bit(dim):
    # the band gathered onto the free nodes holds A's upper entries, bit
    # for bit, with blocked cells that leave gaps longer than the
    # bandwidth between neighbouring free nodes; b is B's diagonal
    rng = np.random.default_rng(14)
    if dim == 1:
        g = GridSpec(1, 40, (1.3,), 2.0)
        atoms, w1_atoms = ((3, 0.7), (21, 0.2)), ((30, 0.4),)
    else:
        g = GridSpec(2, 20, (1.0, 1.3), 2.0)
        atoms, w1_atoms = (), ()
    blocked = rng.random(g.cells_shape) < 0.15
    mu = CapacitaryMeasure(g, 2.0 * rng.random(g.cells_shape), blocked,
                           atoms)
    weights = WeightPair(g, rng.random(g.cells_shape), w1_atoms,
                         1.5 * rng.random(g.cells_shape))
    A, B, idx = p2_matrices(g, mu, weights)
    band, b, band_idx = operators.p2_band(g, mu, weights)
    bw = band.shape[0] - 1
    assert np.array_equal(idx, band_idx) and idx.size < g.n_nodes
    assert band.shape == (bw + 1, idx.size)
    upper = sp.triu(A).tocoo()
    assert np.all(upper.col - upper.row <= bw)
    ref = np.zeros_like(band)
    ref[bw + upper.row - upper.col, upper.col] = upper.data
    assert band.tobytes() == ref.tobytes()
    assert b.tobytes() == B.diagonal().tobytes()
