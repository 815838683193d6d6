import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapopt.grid import GridSpec, integrate
from plapopt.measure import (
    CapacitaryMeasure,
    PsiSpec,
    WeightPair,
    add,
    from_potential,
    from_quasi_open,
    leq,
    psi_volume,
    sigma_finite_set,
    zero_measure,
)


def grid1(n=8, p=2.0):
    return GridSpec(1, n, (1.0,), p)


def random_measure(grid, rng, with_atoms=False):
    density = rng.random(grid.cells_shape) * 3.0
    blocked = rng.random(grid.cells_shape) < 0.2
    atoms = ()
    if with_atoms and grid.p > grid.dim:
        atoms = tuple((int(rng.integers(grid.n_nodes)), float(rng.random()))
                      for _ in range(2))
    return CapacitaryMeasure(grid, density, blocked, atoms)


def test_from_quasi_open_roundtrip():
    g = grid1()
    mask = np.array([1, 1, 1, 0, 0, 1, 0, 1], dtype=bool)
    m = from_quasi_open(g, mask)
    assert np.array_equal(sigma_finite_set(m), mask)
    assert np.all(m.density == 0.0)


def test_from_quasi_open_all_true_and_empty():
    g = grid1()
    m = from_quasi_open(g, np.ones(8, dtype=bool))
    assert not m.blocked.any()
    with pytest.raises(ValueError, match="empty"):
        from_quasi_open(g, np.zeros(8, dtype=bool))


def test_from_potential():
    g = grid1()
    assert from_potential(g, 0.0) == zero_measure(g)
    V = np.full(8, 7.0)
    m = from_potential(g, V)
    assert math.isclose(integrate(g, m.density), 7.0)
    V[3] = math.inf
    m2 = from_potential(g, V)
    assert m2.blocked[3] and not m2.blocked[2]
    with pytest.raises(ValueError):
        from_potential(g, -1.0)


def test_add_blocked_and_density():
    g = grid1()
    mask = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
    inf_part = from_quasi_open(g, mask)
    V = from_potential(g, np.arange(8.0))
    s = add(inf_part, V)
    assert np.array_equal(s.blocked, ~mask)
    assert np.allclose(s.density[mask], np.arange(8.0)[mask])
    assert np.all(s.density[~mask] == 0.0)


def test_add_identity_and_commutative():
    g = grid1()
    rng = np.random.default_rng(3)
    for _ in range(10):
        m1 = random_measure(g, rng, with_atoms=True)
        m2 = random_measure(g, rng, with_atoms=True)
        assert add(m1, zero_measure(g)) == m1
        assert add(m1, m2) == add(m2, m1)


def test_add_grid_mismatch():
    with pytest.raises(ValueError, match="grid"):
        add(zero_measure(grid1(8)), zero_measure(grid1(16)))


def test_leq_examples():
    g = grid1()
    assert leq(zero_measure(g), from_potential(g, 1.0))
    A = np.array([1, 1, 1, 1, 1, 1, 0, 0], dtype=bool)
    B = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
    # A contains B, so the measure of B's complement dominates
    assert leq(from_quasi_open(g, A), from_quasi_open(g, B))
    assert not leq(from_quasi_open(g, B), from_quasi_open(g, A))


def test_leq_partial_order_random():
    g = grid1(p=3.0)
    rng = np.random.default_rng(11)
    ms = [random_measure(g, rng, with_atoms=True) for _ in range(12)]
    for m in ms:
        assert leq(m, m)
    for a in ms:
        for b in ms:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in ms:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_add_dominates():
    g = grid1(p=3.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        m1 = random_measure(g, rng, with_atoms=True)
        m2 = random_measure(g, rng)
        s = add(m1, m2)
        assert leq(m1, s) and leq(m2, s)


# measures on one grid for the property tests; densities and atom masses
# are multiples of 1/4 below 4, so sums of three are exact and the order
# laws hold bit for bit, not only up to rounding
PROPERTY_GRID = grid1(p=3.0)
laws = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def measures(draw):
    g = PROPERTY_GRID
    quarters = st.integers(0, 15)
    density = draw(st.lists(quarters, min_size=g.n_cells,
                            max_size=g.n_cells))
    blocked = draw(st.lists(st.booleans(), min_size=g.n_cells,
                            max_size=g.n_cells))
    atoms = draw(st.lists(st.tuples(st.integers(0, g.n_nodes - 1),
                                    st.integers(1, 15)), max_size=3))
    return CapacitaryMeasure(g, np.array(density) / 4.0, np.array(blocked),
                             tuple((node, q / 4.0) for node, q in atoms))


@laws
@given(measures(), measures(), measures())
def test_add_is_commutative_and_associative(a, b, c):
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))


@laws
@given(measures())
def test_zero_measure_is_neutral_for_add(m):
    zero = zero_measure(PROPERTY_GRID)
    assert add(m, zero) == m
    assert add(zero, m) == m


@laws
@given(measures(), measures(), measures())
def test_leq_is_a_partial_order(a, b, c):
    assert leq(a, a)
    if leq(a, b) and leq(b, c):
        assert leq(a, c)
    if leq(a, b) and leq(b, a):
        assert a == b
    # a chain that holds by construction, so the law is always exercised
    ab = add(a, b)
    abc = add(ab, c)
    assert leq(a, ab) and leq(ab, abc) and leq(a, abc)


@laws
@given(measures(), measures())
def test_a_measure_is_below_its_sum_with_another(m1, m2):
    assert leq(m1, add(m1, m2))


def test_atoms_require_p_greater_than_dim():
    g2 = GridSpec(2, 6, (1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="p > dim"):
        CapacitaryMeasure(g2, np.zeros(g2.cells_shape),
                          np.zeros(g2.cells_shape, dtype=bool),
                          ((3, 1.0),))
    g1 = GridSpec(1, 6, (1.0,), 2.0)
    m = CapacitaryMeasure(g1, np.zeros(6), np.zeros(6, dtype=bool),
                          ((2, 1.0), (2, 0.5), (1, 0.0)))
    assert m.atoms == ((2, 1.5),)


def test_psi_spec_families():
    with pytest.raises(ValueError):
        PsiSpec("exp", 0.0)
    with pytest.raises(ValueError):
        PsiSpec("other", 1.0)
    e = PsiSpec("exp", 2.0)
    assert e.value(0.0) == 1.0
    assert e.value(math.inf) == 0.0
    assert math.isclose(float(e.inverse(np.array([0.5]))[0]),
                        math.log(2.0) / 2.0)
    pw = PsiSpec("power", 1.0)
    assert pw.value(0.0) == math.inf
    assert pw.value(math.inf) == 0.0
    assert math.isclose(float(pw.value(4.0)), 0.25)


def test_psi_volume_values():
    g = grid1()
    psi = PsiSpec("exp", 1.0)
    assert math.isclose(psi_volume(zero_measure(g), psi), 1.0)
    full = CapacitaryMeasure(g, np.zeros(8), np.ones(8, dtype=bool))
    assert psi_volume(full, psi) == 0.0
    # V = ln 2 on the unit box: integral of e^{-V} is exactly 1/2
    half = from_potential(g, math.log(2.0))
    assert math.isclose(psi_volume(half, psi), 0.5, rel_tol=1e-14)
    # power family blows up on zero density
    assert psi_volume(zero_measure(g), PsiSpec("power", 1.0)) == math.inf


def test_psi_volume_antitone():
    g = grid1(p=3.0)
    rng = np.random.default_rng(23)
    psi = PsiSpec("exp", 0.7)
    for _ in range(20):
        m1 = random_measure(g, rng)
        extra = random_measure(g, rng)
        m2 = add(m1, extra)
        assert leq(m1, m2)
        assert psi_volume(m1, psi) >= psi_volume(m2, psi) - 1e-14


def test_decomposition_roundtrip():
    g = grid1(p=3.0)
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_measure(g, rng, with_atoms=True)
        if m.blocked.all():
            continue
        rebuilt = add(from_quasi_open(g, sigma_finite_set(m)),
                      from_potential(g, m.density))
        rebuilt = CapacitaryMeasure(g, rebuilt.density, rebuilt.blocked,
                                    m.atoms)
        assert rebuilt == m


def test_weight_pair_validation():
    g = grid1()
    with pytest.raises(ValueError):
        WeightPair(g, -1.0)
    w = WeightPair(g, 1.0, (), 0.5)
    assert not w.trivial_nu1
    assert WeightPair(g, 0.0).trivial_nu1
