"""Cohomology-valued Novikov series and the gauge-normalized theta action."""

from fractions import Fraction
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import HLaurent, NovikovSeries
from qcoh.model import CohClass, builtin_model, load_model
from qcoh.sections import closed_form
from qcoh.series import (
    CohSeries,
    GaugeSeries,
    _add_term,
    _flat,
    _from_flat,
    _pruned,
    _same,
    _theta_flat,
)

RESCALED = Path(__file__).resolve().parent / "golden" / "f3-rescaled.model"


def _unit_series(model, order):
    cls = model.basis_class(0).lifted()
    return GaugeSeries(model, order, {(0,) * model.rank: cls})


def test_theta_on_constant_term_is_cup():
    # On the q^0 coefficient, theta_i acts as cup multiplication by b_i.
    model = builtin_model("cp2")
    s = _unit_series(model, 3)
    t = s.theta(1)
    assert set(t.c) == {(0,)}
    assert t.c[(0,)] == model.basis_class(1).lifted()
    # twice: x cup x = x^2
    tt = t.theta(1)
    assert tt.c[(0,)] == model.basis_class(2).lifted()
    # three times: x^3 = 0 classically, so the term disappears
    assert not tt.theta(1).c


def test_theta_adds_degree_weighted_h():
    # On a q^d coefficient, theta_1 acts as (x cup + d h).
    model = builtin_model("cp1")
    cls = model.basis_class(0).lifted()
    s = GaugeSeries(model, 3, {(2,): cls})
    t = s.theta(1)
    got = t.c[(2,)]
    # x + 2h on the unit: coefficient 2h on basis 1, coefficient 1 on x
    assert got.coords[0] == HLaurent.term(2, 1)
    assert got.coords[1] == HLaurent.const(1)


# -- theta against its definition, on ungraded sections --------------------------
# Each coordinate is a Laurent polynomial with several powers of h, negative
# ones included, so no grading holds.  The definition is built slice by slice:
# the h^x slice of the q^D coefficient, a rational class, goes to its cup
# product with b_i at h^x plus d_i times itself at h^(x+1).

_MODELS = {name: builtin_model(name) for name in ("cp2", "f3", "sigma1", "gr24")}
_ORDER = 2

_laurents = st.dictionaries(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    max_size=3,
).map(HLaurent)


@st.composite
def ungraded_theta_case(draw):
    model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    degree = st.sampled_from(
        [D for D in product(range(_ORDER + 1), repeat=model.rank) if sum(D) <= _ORDER]
    )
    coefficients = st.lists(_laurents, min_size=model.size, max_size=model.size)
    terms = draw(st.dictionaries(degree, coefficients.map(CohClass), max_size=4))
    return GaugeSeries(model, _ORDER, terms), draw(st.integers(1, model.rank))


def theta_by_definition(s, i):
    model = s.model
    generator = model.basis_class(i)
    out = {}
    for D, cls in s.c.items():
        coords = [HLaurent() for _ in range(model.size)]
        for x in sorted({x for a in cls.coords for x in a.c}):
            part = CohClass(tuple(a.coeff(x) for a in cls.coords))
            cup = model.cup(generator, part)
            for k in range(model.size):
                coords[k] = coords[k] + HLaurent.term(cup.coords[k], x)
                coords[k] = coords[k] + HLaurent.term(D[i - 1] * part.coords[k], x + 1)
        out[D] = CohClass(coords)
    return GaugeSeries(model, s.order, out)


@settings(max_examples=100, deadline=None)
@given(ungraded_theta_case())
def test_theta_matches_its_definition_on_ungraded_sections(case):
    s, i = case
    assert s.theta(i).c == theta_by_definition(s, i).c


def test_theta_monomial_matches_iterated_theta():
    model = builtin_model("f3")
    cls = model.basis_class(0).lifted()
    s = GaugeSeries(model, 2, {(1, 1): cls})
    assert s.theta_monomial((2, 1)).c == s.theta(1).theta(1).theta(2).c


def test_shifted_drops_terms_past_order():
    model = builtin_model("cp1")
    cls = model.basis_class(0).lifted()
    s = CohSeries(model, 2, {(2,): cls, (0,): cls})
    moved = s.shifted((1,))
    assert set(moved.c) == {(1,)}


def test_scaled_and_mul_scalar_series():
    model = builtin_model("cp1")
    cls = model.basis_class(1).lifted()
    s = CohSeries(model, 3, {(0,): cls})
    doubled = s.scaled(Fraction(2))
    assert doubled.c[(0,)].coords[1] == HLaurent.const(2)
    ns = NovikovSeries(1, 3, {(1,): Fraction(3)})
    moved = s.mul_scalar_series(ns)
    assert set(moved.c) == {(1,)}
    assert moved.c[(1,)].coords[1] == HLaurent.const(3)


def test_series_json_sorted_by_degree():
    model = builtin_model("f3")
    cls = model.basis_class(0).lifted()
    s = CohSeries(model, 3, {(2, 0): cls, (0, 1): cls, (1, 1): cls})
    degrees = [rec["degree"] for rec in s.to_json()]
    assert degrees == [[0, 1], [1, 1], [2, 0]]


def test_subclass_preserved_by_arithmetic():
    model = builtin_model("cp1")
    cls = model.basis_class(0).lifted()
    s = GaugeSeries(model, 2, {(0,): cls})
    assert isinstance(s + s, GaugeSeries)
    assert isinstance(s.scaled(2), GaugeSeries)
    assert isinstance(s.shifted((1,)), GaugeSeries)


# -- flat exact coordinates: int numerators over one denominator ---------------
# A Fraction numerator gives the same values as an int one, only slower, so
# no output test can tell them apart; these tests look at the types.


def _all_int(flat):
    return all(type(n) is int for terms in flat.values() for n in terms.values())


def test_flat_form_holds_only_int_numerators():
    model = builtin_model("f3")
    J = closed_form(model, 4)
    flat, den = _flat(J)
    assert type(den) is int and den > 1 and _all_int(flat)
    assert _from_flat(model, 4, (flat, den)).c == J.c
    stepped, sden = _theta_flat(model, (flat, den), 1)
    assert sden == den and _all_int(stepped)
    acc = {}
    _add_term(acc, flat, 3, 1, (1, 0), 4)
    _add_term(acc, stepped, -2, 0, (0, 0), 4)
    summed, _ = _pruned(acc, den)
    assert summed and _all_int(summed)


def test_theta_on_rational_cup_table_is_integral_over_a_common_denominator():
    # f3 in the basis 2 a^2, -3 b^2, 5 z: b_1 cup b_j has denominators 2, 3, 5
    model = load_model(RESCALED)
    J = closed_form(model, 3)
    flat = _flat(J)
    stepped = _theta_flat(model, flat, 1)
    assert stepped[1] == 30 * flat[1] and _all_int(stepped[0])
    assert _from_flat(model, 3, stepped).c == theta_by_definition(J, 1).c
    # the same series over a larger denominator is equal by cross-products
    num, den = stepped
    doubled = {D: {key: 2 * n for key, n in terms.items()} for D, terms in num.items()}
    assert _same(stepped, (doubled, 2 * den))
    assert not _same(stepped, flat)
