"""The output containers: h-Laurent polynomials, truncated Novikov series,
and t-polynomials, with the products that build and compare them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import (
    HLaurent,
    NovikovSeries,
    TPoly,
    format_ratio,
    format_rational,
    rational,
)


# -- oracle data -------------------------------------------------------------

# (1 + h)^4 expanded by hand: binomial coefficients 1 4 6 4 1.
BINOMIAL_4 = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


def test_rational_coercion_and_format():
    assert rational("3/6") == Fraction(1, 2)
    assert rational(7) == Fraction(7)
    assert format_rational(Fraction(-22, 4)) == "-11/2"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(TypeError):
        rational(1.5)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(min_value=1))
def test_format_ratio_prints_the_reduced_fraction(n, den):
    assert format_ratio(n, den) == str(Fraction(n, den))
    assert format_ratio(n * den, den) == str(n)


def test_hlaurent_binomial_oracle():
    one_plus_h = HLaurent({0: 1, 1: 1})
    power = one_plus_h * one_plus_h * one_plus_h * one_plus_h
    assert power.c == {k: Fraction(v) for k, v in BINOMIAL_4.items()}


def test_hlaurent_product_difference_of_squares():
    a = HLaurent({0: 1, 1: 1})
    b = HLaurent({0: 1, 1: -1})
    assert a * b == HLaurent({0: 1, 2: -1})


def test_hlaurent_zero_terms_dropped():
    x = HLaurent({0: 1, 3: 0})
    assert x.c == {0: Fraction(1)}
    assert not (x + (-1) * x)
    assert (x + (-1) * x).c == {}


def test_hlaurent_json_round_trip():
    x = HLaurent({-2: Fraction(-5, 7), 0: 1, 4: Fraction(3)})
    data = x.to_json()
    assert data == [[-2, "-5/7"], [0, "1"], [4, "3"]]
    assert HLaurent(dict(data)) == x


def test_hlaurent_str_round_trippable_form():
    x = HLaurent({2: 1, 0: -3, -1: Fraction(1, 2)})
    assert str(x) == "h^2 - 3 + 1/2*h^-1"


def test_novikov_truncation_at_order():
    q = NovikovSeries(1, 3, {(1,): 1})
    assert (q * q * q).c == {(3,): Fraction(1)}
    assert not q * q * q * q  # degree 4 > order 3 is dropped entirely


def test_novikov_geometric_series_product():
    # (1 - q)(1 + q + q^2 + q^3) == 1 truncated at order 3
    order = 3
    one_minus_q = NovikovSeries(1, order, {(0,): 1, (1,): -1})
    geom = NovikovSeries(1, order, {(k,): 1 for k in range(order + 1)})
    assert one_minus_q * geom == NovikovSeries(1, order, {(0,): 1})


def test_novikov_rejects_bad_degrees():
    with pytest.raises(ValueError):
        NovikovSeries(2, 4, {(1,): 1})
    with pytest.raises(ValueError):
        NovikovSeries(1, 4, {(-1,): 1})
    a = NovikovSeries(1, 3, {(0,): 1})
    b = NovikovSeries(1, 4, {(0,): 1})
    with pytest.raises(ValueError):
        a * b


def test_novikov_hlaurent_coefficients():
    h = HLaurent.term(1, 1)
    s = NovikovSeries(1, 2, {(1,): h})
    assert (s * s).c == {(2,): HLaurent.term(1, 2)}


def test_tpoly_multiplication_and_truncation():
    s = TPoly(2, {(1, 0): 1, (0, 1): 1})  # t1 + t2
    p = s.mul(s)
    assert p.c == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }


def test_tpoly_items_sorted_by_total_degree_then_lex():
    p = TPoly(2, {(2, 0): 1, (0, 1): 2, (1, 1): 3})
    assert [e for e, _ in p.items_sorted()] == [(0, 1), (1, 1), (2, 0)]


_COEFFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_HLAURENT = st.dictionaries(st.integers(-4, 4), _COEFFS, max_size=4).map(HLaurent)


@settings(max_examples=100, deadline=None)
@given(_HLAURENT, _HLAURENT, _HLAURENT)
def test_random_ring_axioms_hlaurent(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
