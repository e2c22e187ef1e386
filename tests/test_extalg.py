"""Exterior algebra arithmetic: wedge signs, grading, parsing, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_matrix
from exttate.extalg import (Algebra, ExtElement, format_element, mono_mul,
                            parse_element, random_element)
from exttate.smod import PolyRing


def E(alg, i):
    return ExtElement.variable(alg, i)


def coeff_vector(x):
    """Coordinates of a nonzero homogeneous element over the canonical basis
    of its slice."""
    idx = x.alg.index(x.degree)
    v = np.zeros(x.alg.dim(x.degree))
    for m, c in x.terms.items():
        v[idx[m]] = c
    return v


def test_field_context_requires_prime():
    Algebra(0, 2)
    Algebra(0, 32003)
    Algebra(0, 94906249)  # the largest prime with (p-1)^2 < 2^53
    with pytest.raises(ValueError):
        Algebra(0, 32001)
    for too_large in (94906267, 2 ** 31 - 1):
        with pytest.raises(ValueError):
            Algebra(0, too_large)
        with pytest.raises(ValueError):
            PolyRing(1, too_large)


def test_ring_tables_shared_per_n_p():
    """Equal rings share one cached table; the shared arrays are read-only."""
    mat = Algebra(3, 101).left_mul_matrix(0b101, -1)
    assert mat is Algebra(3, 101).left_mul_matrix(0b101, -1)
    right = Algebra(3, 101).right_mul_table(-1)
    assert right is Algebra(3, 101).right_mul_table(-1)
    assert PolyRing(2, 101).basis(3) is PolyRing(2, 101).basis(3)
    assert PolyRing(2, 101).index(3) is PolyRing(2, 101).index(3)
    assert hash(PolyRing(2, 101)) == hash(PolyRing(2, 101))
    assert Algebra(3, 101).basis(-2) != Algebra(2, 101).basis(-2)
    with pytest.raises(ValueError):
        mat[0, 0] = 1
    for table in right:
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_mono_mul_signs():
    # e0*e1 ordered, e1*e0 flips, squares vanish
    assert mono_mul(0b01, 0b10) == (1, 0b11)
    assert mono_mul(0b10, 0b01) == (-1, 0b11)
    assert mono_mul(0b01, 0b01) is None


def test_elem_mul_cross_terms():
    alg = Algebra(3)
    q = E(alg, 0) * E(alg, 1) + E(alg, 2) * E(alg, 3)
    sq = q * q
    assert sq.terms == {0b1111: 2}
    one = ExtElement.scalar(alg, 1)
    x = parse_element(alg, "e0*e2 + 7*e1*e3")
    assert one * x == x
    assert (E(alg, 0) * (E(alg, 0) * E(alg, 1))).is_zero


def test_algebra_dim_values():
    alg2 = Algebra(2)
    assert alg2.dim(-1) == 3
    assert alg2.dim(1) == 0
    assert Algebra(1).dim(-2) == math.comb(2, 2)


def test_algebra_dim_total():
    for n in range(0, 5):
        alg = Algebra(n)
        total = sum(alg.dim(e) for e in range(-(n + 1), 1))
        assert total == 2 ** (n + 1)


def test_random_element_determinism_and_range():
    alg = Algebra(3)
    a = random_element(alg, -2, np.random.default_rng(99))
    b = random_element(alg, -2, np.random.default_rng(99))
    assert a == b
    assert random_element(alg, 0, np.random.default_rng(1)).degree in (0, None)
    with pytest.raises(ValueError):
        random_element(alg, -(alg.nvars + 1), np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_element(alg, 1, np.random.default_rng(0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3))
def test_anticommutativity(n, seed, da, db):
    alg = Algebra(n)
    rng = np.random.default_rng(seed)
    da = -min(da, alg.nvars)
    db = -min(db, alg.nvars)
    a = random_element(alg, da, rng)
    b = random_element(alg, db, rng)
    sign = (-1) ** (da * db)
    assert a * b == (b * a).scale(sign)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10**6))
def test_associativity(n, seed):
    alg = Algebra(n)
    rng = np.random.default_rng(seed)
    degs = [-int(rng.integers(0, alg.nvars + 1)) for _ in range(3)]
    a, b, c = (random_element(alg, d, rng) for d in degs)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 10**6))
def test_format_parse_round_trip(n, seed):
    alg = Algebra(n)
    rng = np.random.default_rng(seed)
    d = -int(rng.integers(0, alg.nvars + 1))
    x = random_element(alg, d, rng)
    assert parse_element(alg, format_element(x)) == x


def test_parse_rejects_garbage():
    alg = Algebra(2)
    for bad in ["e5", "x0", "e0**e1", "3*", "e0 + e0*e1"]:
        with pytest.raises(ValueError):
            parse_element(alg, bad)


def test_parse_minus_signs():
    alg = Algebra(2)
    x = parse_element(alg, "e0*e1 - 2*e0*e2")
    assert x.terms[0b011] == 1
    assert x.terms[0b101] == alg.p - 2


def test_right_left_mul_matrices_consistent():
    """Right multiplication by e_i, the table of `right_mul_table` as a
    matrix, and left multiplication agree with ExtElement products, for
    every n <= 3, every variable and every degree."""
    rng = np.random.default_rng(4)
    for n in range(4):
        alg = Algebra(n)
        for d in range(0, -alg.nvars - 1, -1):
            x = random_element(alg, d, rng)
            if x.is_zero:
                continue
            v = coeff_vector(x)
            for i in range(alg.nvars):
                right = table_matrix(*alg.right_mul_table(d), i, alg.dim(d - 1))
                for mat, prod in ((right, x * E(alg, i)),
                                  (alg.left_mul_matrix(1 << i, d), E(alg, i) * x)):
                    got = np.mod(mat @ v, alg.p)
                    if prod.is_zero:
                        assert not got.any()
                    else:
                        assert np.array_equal(got, coeff_vector(prod)), (n, i, d)
