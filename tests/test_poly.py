"""Width and twist-polynomial tests."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistpoly.core import SetSystem, TRIVIAL, UnsupportedSizeError, restrict, twist
from twistpoly.poly import (
    WidthPolynomial,
    twist_polynomial_fast,
    twist_polynomial_naive,
    twist_width,
    width,
)
from twistpoly.bouquet import canonical_bouquet, delta_matroid_of_bouquet
from twistpoly.verify import all_delta_matroids, random_delta_matroid

REMARK = SetSystem.from_sets(2, [[0], [1]])
PAIR = SetSystem.from_sets(2, [[], [0, 1]])


def test_width_examples():
    assert width(PAIR) == 2
    assert width(REMARK) == 0  # a matroid
    assert width(SetSystem.from_sets(2, [[], [0], [0, 1]])) == 2
    assert width(TRIVIAL) == 0


def test_twist_width_examples():
    assert twist_width(REMARK, 0b01) == 2
    assert twist_width(REMARK, 0) == width(REMARK)
    with pytest.raises(ValueError):
        twist_width(REMARK, 5)


def test_twist_width_matches_materialized_twist():
    rng = Random(29)
    for _ in range(200):
        d = random_delta_matroid(rng.randint(0, 8), rng)
        a = rng.getrandbits(d.n) if d.n else 0
        assert twist_width(d, a) == width(twist(d, a))


def test_naive_examples():
    assert twist_polynomial_naive(PAIR).coeffs == (2, 0, 2)
    assert twist_polynomial_naive(SetSystem.from_sets(1, [[]])).coeffs == (2,)
    b3 = delta_matroid_of_bouquet(canonical_bouquet(3))
    assert twist_polynomial_naive(b3).coeffs == (0, 0, 8)


def test_fast_examples():
    assert twist_polynomial_fast(TRIVIAL).coeffs == (1,)
    b10 = delta_matroid_of_bouquet(canonical_bouquet(10))
    p = twist_polynomial_fast(b10)
    assert p.coeffs[10] == 512 and p.coeffs[8] == 512
    assert sum(p.coeffs) == 1 << 10


def test_fast_equals_naive_exhaustive_small():
    for n in range(4):
        for d in all_delta_matroids(n):
            assert twist_polynomial_fast(d) == twist_polynomial_naive(d)


def test_size_limit():
    big = SetSystem(17, (0,))
    with pytest.raises(UnsupportedSizeError):
        twist_polynomial_fast(big)
    with pytest.raises(UnsupportedSizeError):
        twist_polynomial_naive(big)


def test_poly_props():
    p = WidthPolynomial((2, 0, 2))
    assert p.constant_term == 2 and not p.is_monomial and p.eval_at_1 == 4
    q = WidthPolynomial((0, 0, 8))
    assert q.is_monomial and q.degree == 2
    c = WidthPolynomial((1,))
    assert c.is_constant and c.is_monomial


def test_poly_rendering():
    assert WidthPolynomial((2, 0, 2)).human() == "2z^2 + 2"
    assert WidthPolynomial((0, 0, 8)).human() == "8z^2"
    assert WidthPolynomial((0, 1)).human() == "z"
    assert WidthPolynomial((3, 2)).human() == "2z + 3"
    assert WidthPolynomial((4,)).human() == "4"
    assert WidthPolynomial((2, 0, 2)).machine() == "coeffs: 2 0 2"


def test_poly_normalization_and_validation():
    assert WidthPolynomial.from_counts([1, 2, 0, 0]).coeffs == (1, 2)
    assert WidthPolynomial.from_counts([0, 0]).coeffs == (0,)
    with pytest.raises(ValueError):
        WidthPolynomial(())
    with pytest.raises(ValueError):
        WidthPolynomial((1, 0))
    with pytest.raises(ValueError):
        WidthPolynomial((-1,))


def test_poly_product():
    a = WidthPolynomial((2, 0, 2))
    assert (a * a).coeffs == (4, 0, 8, 0, 4)
    one = WidthPolynomial((1,))
    assert a * one == a


def test_eval_at_one_counts_twists():
    rng = Random(31)
    for _ in range(25):
        d = random_delta_matroid(rng.randint(0, 9), rng)
        assert twist_polynomial_fast(d).eval_at_1 == 1 << d.n


def test_twist_invariance_small():
    for d in all_delta_matroids(3):
        p = twist_polynomial_fast(d)
        for a in range(8):
            assert twist_polynomial_fast(twist(d, a)) == p


def test_twist_invariance_larger_random():
    rng = Random(79)
    for _ in range(10):
        d = random_delta_matroid(rng.randint(5, 10), rng)
        p = twist_polynomial_fast(d)
        if d.n <= 6:
            masks = range(1 << d.n)
        else:
            masks = [rng.getrandbits(d.n) for _ in range(8)]
        for a in masks:
            assert twist_polynomial_fast(twist(d, a)) == p


def test_direct_sum_multiplicativity():
    from twistpoly.core import direct_sum

    rng = Random(37)
    for _ in range(20):
        a = random_delta_matroid(rng.randint(0, 5), rng)
        b = random_delta_matroid(rng.randint(0, 5), rng)
        s = twist_polynomial_fast(direct_sum(a, b))
        assert s == twist_polynomial_fast(a) * twist_polynomial_fast(b)


def test_constant_iff_single_feasible_small():
    for n in range(4):
        for d in all_delta_matroids(n):
            p = twist_polynomial_fast(d)
            assert p.is_constant == (len(d.feasible) == 1)


def test_normal_twist_width_splits_over_restriction():
    for n in range(4):
        for d in all_delta_matroids(n):
            if d.feasible[0] != 0:
                continue
            full = d.full_mask
            for a in range(1 << n):
                assert twist_width(d, a) == width(restrict(d, a)) + width(
                    restrict(d, full ^ a)
                )


def test_restriction_width_rank_identity():
    from twistpoly.core import matroid_rank, min_max_parts, rho

    for n in range(4):
        for d in all_delta_matroids(n):
            dmin, _ = min_max_parts(d)
            null_e = n - dmin.feasible[0].bit_count()
            for a in range(1 << n):
                ra = matroid_rank(dmin, a)
                rhs = rho(d, a) - ra - null_e + (a.bit_count() - ra)
                assert width(restrict(d, a)) == rhs


def test_non_normal_counterexample():
    lhs = twist_width(REMARK, 0b01)
    rhs = width(restrict(REMARK, 0b01)) + width(restrict(REMARK, 0b10))
    assert lhs == 2 and rhs == 0 and lhs != rhs


@pytest.mark.parametrize("n", range(13))
def test_min_sweep_matches_bfs(n):
    """The naive route's min/max scan over the feasible sets agrees with
    the fast route's level-set BFS on extreme and random families."""
    full = (1 << n) - 1
    rng = Random(n)
    cases = [[0], [full], [0, full], list(range(1 << n))]
    cases.append(sorted(rng.sample(range(1 << n), min(5, 1 << n))))
    cases.append(list(random_delta_matroid(n, rng).feasible))
    for fam in cases:
        d = SetSystem.from_masks(n, fam)
        assert twist_polynomial_fast(d) == twist_polynomial_naive(d), (n, fam)


@pytest.mark.parametrize("n", [7, 8])
def test_fast_kernels_agree_at_the_threshold(n):
    """Fast and naive routes agree on random delta-matroids at n = 7 and 8,
    the sizes around which the fast route once switched distance kernels."""
    rng = Random(200 + n)
    for _ in range(3):
        d = random_delta_matroid(n, rng)
        assert twist_polynomial_fast(d) == twist_polynomial_naive(d)


@st.composite
def set_systems(draw, max_n):
    n = draw(st.integers(0, max_n))
    fam = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    return SetSystem.from_masks(n, fam)


@settings(deadline=None)
@given(set_systems(8))
def test_fast_matches_naive_on_drawn_set_systems(d):
    assert twist_polynomial_fast(d) == twist_polynomial_naive(d)


def test_fast_rejects_an_empty_family():
    with pytest.raises(ValueError):
        twist_polynomial_fast(SetSystem(3, ()))
    with pytest.raises(ValueError):
        twist_polynomial_fast(SetSystem(9, ()))
    with pytest.raises(ValueError):
        twist_polynomial_naive(SetSystem(3, ()))
