import math

import numpy as np
import pytest

from plapopt.grid import GridSpec
from plapopt.measure import (
    PsiSpec,
    WeightPair,
    from_potential,
    from_quasi_open,
    lebesgue_weights,
    zero_measure,
)
from plapopt.gamma import (
    MeasureSequence,
    blocked_limit_sequence,
    lsc_check,
    psi_lsc_check,
    usc_check,
)
from helpers import custom_sequence, monotone_under_leq


def half_mask(n):
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    return mask


def test_blocked_limit_sequence_construction():
    g = GridSpec(1, 32, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(32), [10.0, 1e3, 1e6])
    assert len(seq.elements) == 3
    assert monotone_under_leq(seq)
    assert seq.limit == from_quasi_open(g, half_mask(32))
    # s = 0 would give the zero measure
    seq0 = blocked_limit_sequence(g, half_mask(32), [0.0, 1.0])
    assert seq0.elements[0] == zero_measure(g)
    # mask of everything makes every element the zero measure
    seq_all = blocked_limit_sequence(g, np.ones(32, dtype=bool), [1.0, 2.0])
    assert all(m == zero_measure(g) for m in seq_all.elements)


def test_blocked_limit_sequence_validation():
    g = GridSpec(1, 32, (1.0,), 2.0)
    with pytest.raises(ValueError, match="empty"):
        blocked_limit_sequence(g, np.zeros(32, dtype=bool), [1.0])
    with pytest.raises(ValueError, match="increasing"):
        blocked_limit_sequence(g, half_mask(32), [2.0, 1.0])


def test_lsc_on_growing_wall():
    g = GridSpec(1, 96, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(96), [10.0, 1e3, 1e6])
    rep = lsc_check(seq, lebesgue_weights(g), 1)
    assert rep.passed and not rep.inconclusive
    assert rep.tail_values == sorted(rep.tail_values)
    assert math.isclose(rep.limit_value, 4.0 * math.pi ** 2, rel_tol=1e-2)
    # distances assert the gamma-convergence prerequisite
    assert rep.distances[0] > rep.distances[-1]


def test_lsc_constant_sequence_zero_margin():
    g = GridSpec(1, 32, (1.0,), 2.0)
    mu = from_potential(g, 1.5)
    seq = custom_sequence([mu, mu, mu], mu)
    rep = lsc_check(seq, lebesgue_weights(g), 1)
    assert rep.passed
    assert abs(rep.margin) <= 1e-12 * max(abs(rep.limit_value), 1.0)


def test_lsc_shrinking_intervals():
    # intervals (0, 1/2 + delta_n) shrinking to (0, 1/2): lambda1 grows
    # to 4 pi^2; the tail gap is set by the cell resolution, so the last
    # element sits one cell above the limit and the slack absorbs it
    n = 512
    g = GridSpec(1, n, (1.0,), 2.0)
    elements = []
    for extra in (8, 4, 1):
        mask = np.zeros(n, dtype=bool)
        mask[: n // 2 + extra] = True
        elements.append(from_quasi_open(g, mask))
    seq = custom_sequence(elements, from_quasi_open(g, half_mask(n)))
    rep = lsc_check(seq, lebesgue_weights(g), 1, slack=2e-2)
    assert rep.passed
    assert rep.tail_values == sorted(rep.tail_values)
    assert math.isclose(rep.limit_value, 4.0 * math.pi ** 2, rel_tol=1e-2)


def test_usc_requires_zero_nu2():
    g = GridSpec(1, 32, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(32), [1.0, 2.0])
    w = WeightPair(g, 1.0, (), 0.5)
    with pytest.raises(ValueError, match="nu2"):
        usc_check(seq, w, 1)


def test_usc_constant_and_growing():
    g = GridSpec(1, 64, (1.0,), 2.0)
    mu = from_potential(g, 2.0)
    const = custom_sequence([mu, mu, mu], mu)
    rep = usc_check(const, lebesgue_weights(g), 1)
    assert rep.passed and abs(rep.margin) <= 1e-10
    seq = blocked_limit_sequence(g, half_mask(64), [10.0, 1e3, 1e6])
    rep2 = usc_check(seq, lebesgue_weights(g), 1)
    assert rep2.passed
    # lsc + usc together certify convergence of the values
    rep3 = lsc_check(seq, lebesgue_weights(g), 1)
    assert rep3.passed


def test_psi_lsc_blocked_wall():
    g = GridSpec(1, 64, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(64), [10.0, 1e3, 1e6])
    rep = psi_lsc_check(seq, PsiSpec("exp", 1.0))
    assert rep.passed
    assert math.isclose(rep.limit_value, 0.5, rel_tol=1e-12)
    assert rep.tail_values[0] >= rep.tail_values[-1]


def test_psi_lsc_power_family_infinities():
    # power family: Psi(0) = +inf off the wall; inf <= inf passes
    g = GridSpec(1, 32, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(32), [10.0, 1e3])
    rep = psi_lsc_check(seq, PsiSpec("power", 1.0))
    assert rep.limit_value == math.inf
    assert all(v == math.inf for v in rep.tail_values)
    assert rep.passed


def test_psi_lsc_constant():
    g = GridSpec(1, 32, (1.0,), 2.0)
    mu = from_potential(g, 1.0)
    rep = psi_lsc_check(custom_sequence([mu, mu], mu), PsiSpec("exp", 1.0))
    assert rep.passed and rep.margin == 0.0


def test_sequence_grid_consistency():
    g1 = GridSpec(1, 32, (1.0,), 2.0)
    g2 = GridSpec(1, 16, (1.0,), 2.0)
    with pytest.raises(ValueError, match="grid"):
        MeasureSequence("custom", (zero_measure(g1),), zero_measure(g2))


def test_lambda_monotone_along_leq_sequence():
    g = GridSpec(1, 48, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(48), [5.0, 50.0, 500.0])
    rep = lsc_check(seq, lebesgue_weights(g), 2, slack=0.2)
    assert rep.tail_values == sorted(rep.tail_values)


def test_distances_solve_the_limit_torsion_once(monkeypatch):
    import plapopt.gamma as gamma_mod
    from plapopt.torsion import gamma_distance

    g = GridSpec(1, 32, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(32), [10.0, 1e2, 1e3, 1e4])
    weights = lebesgue_weights(g)
    tail = list(seq.elements[-3:])

    # the report of one gamma_distance solve pair per tail member
    with monkeypatch.context() as m:
        m.setattr(gamma_mod, "_distances", lambda s, members: ([
            gamma_distance(mu, s.limit) for mu in members], []))
        before = lsc_check(seq, weights, 1)

    calls = []
    solve = gamma_mod.torsion

    def counting(mu, *args):
        calls.append(mu)
        return solve(mu, *args)

    monkeypatch.setattr(gamma_mod, "torsion", counting)
    after = lsc_check(seq, weights, 1)
    assert after == before
    assert after.distances == [gamma_distance(mu, seq.limit) for mu in tail]
    assert len(calls) == len(tail) + 1


def _unconverged_torsion(monkeypatch, which):
    """Report converged=False for the torsion solves that which(mu) picks."""
    import plapopt.gamma as gamma_mod

    solve = gamma_mod.torsion

    def torsion(mu, *args):
        w, rep = solve(mu, *args)
        if which(mu):
            rep = type(rep)(rep.iterations, rep.final_decrement, False)
        return w, rep

    monkeypatch.setattr(gamma_mod, "torsion", torsion)


def test_unconverged_torsion_gives_nan_distance_and_inconclusive(
        monkeypatch):
    g = GridSpec(1, 32, (1.0,), 2.0)
    seq = blocked_limit_sequence(g, half_mask(32), [10.0, 1e2, 1e3, 1e4])
    weights = lebesgue_weights(g)
    clean = lsc_check(seq, weights, 1)
    assert not clean.inconclusive

    with monkeypatch.context() as m:
        _unconverged_torsion(m, lambda mu: mu == seq.elements[2])
        rep = lsc_check(seq, weights, 1)
    assert rep.inconclusive and not rep.passed
    assert rep.note == "torsion did not converge for sequence element 2"
    assert math.isnan(rep.distances[1])
    assert [d for j, d in enumerate(rep.distances) if j != 1] == \
        [d for j, d in enumerate(clean.distances) if j != 1]
    assert rep.tail_values == clean.tail_values

    with monkeypatch.context() as m:
        _unconverged_torsion(m, lambda mu: mu == seq.limit)
        rep = usc_check(seq, weights, 1)
    assert rep.inconclusive and not rep.passed
    assert rep.note == "torsion did not converge for the limit"
    assert all(math.isnan(d) for d in rep.distances)
