"""Cohomology-valued Novikov series and the gauge-normalized theta action."""

import copy
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh import sections
from qcoh.algebra import HLaurent, monomial_text
from qcoh.model import CohClass, builtin_model, load_model
from qcoh.operators import apply_gauge, parse_operator
from qcoh.quantum import QElem
from qcoh.sections import (
    asymptotic_H,
    asymptotic_J,
    closed_form,
    hypergeometric_factors,
    solve_fundamental,
)
from qcoh.series import (
    CohSeries,
    GaugeSeries,
    _add_term,
    _by_weight,
    _canonical,
    _degrees_upto,
    _graded,
    _theta_at_one,
)

RESCALED = Path(__file__).resolve().parent / "golden" / "f3-rescaled.model"


def _unit_series(model, order):
    cls = model.basis_class(0)
    return GaugeSeries(model, order, {(0,) * model.rank: cls})


def test_theta_on_constant_term_is_cup():
    # On the q^0 coefficient, theta_i acts as cup multiplication by b_i.
    model = builtin_model("cp2")
    s = _unit_series(model, 3)
    t = s.theta(1)
    assert set(t.c) == {(0,)}
    assert t.c[(0,)] == model.basis_class(1)
    # twice: x cup x = x^2
    tt = t.theta(1)
    assert tt.c[(0,)] == model.basis_class(2)
    # three times: x^3 = 0 classically, so the term disappears
    assert not tt.theta(1).c


def test_theta_adds_degree_weighted_h():
    # On a q^d coefficient, theta_1 acts as (x cup + d h).
    model = builtin_model("cp1")
    cls = model.basis_class(0)
    s = GaugeSeries(model, 3, {(2,): cls})
    t = s.theta(1)
    got = t.c[(2,)]
    # x + 2h on the unit: coefficient 2h on basis 1, coefficient 1 on x
    assert got.coords[0] == HLaurent.term(2, 1)
    assert got.coords[1] == HLaurent.const(1)


def test_theta_refuses_an_index_outside_the_generators():
    # the kernel trusts its index: it reads theta_0 as cup-by-unit plus a D_r h weight
    model = builtin_model("f3")
    s = _unit_series(model, 2)
    assert s.theta(2).c[(0, 0)] == model.basis_class(2)
    for i in (0, -1, 3):
        with pytest.raises(ValueError, match="generators are 1..2"):
            s.theta(i)


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
            part = CohClass(tuple(a.c.get(x, 0) for a in cls.coords))
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


def test_shifted_drops_terms_past_order():
    model = builtin_model("cp1")
    cls = model.basis_class(0)
    s = GaugeSeries(model, 2, {(2,): cls, (0,): cls})
    moved = apply_gauge(parse_operator("q1", 1), s)
    assert set(moved.c) == {(1,)}


def test_scaled_multiplies_every_coefficient():
    model = builtin_model("cp1")
    cls = model.basis_class(1)
    s = CohSeries(model, 3, {(0,): cls})
    doubled = s.scaled(Fraction(2))
    assert doubled.c[(0,)].coords[1] == HLaurent.const(2)


def test_scaled_refuses_a_float():
    # 0.1 was scaled by its binary value, 3602879701896397/36028797018963968
    s = CohSeries(builtin_model("cp1"), 3, {(0,): builtin_model("cp1").basis_class(1)})
    assert s.scaled("1/10") == s.scaled(Fraction(1, 10))
    with pytest.raises(TypeError, match="rational"):
        s.scaled(0.1)


def test_constructor_refuses_a_fractional_degree():
    # the degree (1.7,) was stored as (1,)
    model = builtin_model("cp1")
    cls = model.basis_class(0)
    assert CohSeries(model, 2, {(1.0,): cls}) == CohSeries(model, 2, {(1,): cls})
    for kind in (CohSeries, QElem):
        with pytest.raises(ValueError, match="not integral"):
            kind(model, 2, {(1.7,): cls})


def test_series_json_sorted_by_degree():
    model = builtin_model("f3")
    cls = model.basis_class(0)
    s = CohSeries(model, 3, {(2, 0): cls, (0, 1): cls, (1, 1): cls})
    degrees = [rec["degree"] for rec in s.to_json()]
    assert degrees == [[0, 1], [1, 1], [2, 0]]


def test_subclass_preserved_by_arithmetic():
    model = builtin_model("cp1")
    cls = model.basis_class(0)
    s = GaugeSeries(model, 2, {(0,): cls})
    assert isinstance(s + s, GaugeSeries)
    assert isinstance(s.scaled(2), GaugeSeries)
    assert isinstance(s - s, GaugeSeries)
    # a plain CohSeries of the same pair mixes with it, the left type winning
    c = CohSeries(model, 2, {(0,): cls})
    assert type(s + c) is GaugeSeries and type(c + s) is CohSeries
    assert s == c and c == s
    # a quantum-ring element is another type: never equal, never summed
    q, z = QElem.zero(model, 2), CohSeries(model, 2)
    assert q != z and z != q
    for a, b in ((QElem.unit(model, 2), c), (c, QElem.unit(model, 2))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    with pytest.raises(TypeError):
        q - 1


def test_constructor_rejects_a_class_of_the_wrong_size():
    # a third coordinate on cp1 would be a key past the basis, unequal to
    # the pair without it though its coefficients read the same
    model = builtin_model("cp1")
    for kind in (CohSeries, QElem):
        with pytest.raises(ValueError, match="class of size 3, model size 2"):
            kind(model, 2, {(0,): CohClass([1, 0, 7])})


# -- flat exact coordinates: int numerators over one denominator ---------------
# A Fraction numerator gives the same values as an int one, only slower, so
# no output test can tell them apart; these tests look at the types.


def _all_int(flat):
    return all(type(n) is int for terms in flat.values() for n in terms.values())


def test_flat_form_holds_only_int_numerators():
    model = builtin_model("f3")
    J = closed_form(model, 4)
    flat, den = J.flat, J.den
    assert type(den) is int and den > 1 and _all_int(flat)
    assert GaugeSeries(model, 4, J.c) == J
    # J has one weight u; theta_1 steps it at h = 1 and `_graded` writes it at u + 2
    [(u, part)] = _by_weight(model, flat).items()
    rows, sden = _theta_at_one(model, (part, den), 1)
    stepped = _graded(model, {u + 2: {D: (v, sden) for D, v in rows.items()}})[0]
    assert sden == den and _all_int(stepped)
    acc = {}
    _add_term(acc, flat, 3, 1, (1, 0), 4)
    _add_term(acc, stepped, -2, 0, (0, 0), 4)
    summed, _ = _canonical(acc, den)
    assert summed and _all_int(summed)


def test_theta_on_rational_cup_table_is_integral_over_a_common_denominator():
    # f3 in the basis 2 a^2, -3 b^2, 5 z: b_1 cup b_j has denominators 2, 3, 5
    model = load_model(RESCALED)
    J = closed_form(model, 3)
    flat = J.flat, J.den
    [(u, part)] = _by_weight(model, J.flat).items()
    rows, sden = _theta_at_one(model, (part, J.den), 1)
    stepped = _graded(model, {u + 2: {D: (v, sden) for D, v in rows.items()}})
    assert stepped[1] == 30 * flat[1] and _all_int(stepped[0])
    assert GaugeSeries._stored(model, 3, *stepped) == theta_by_definition(J, 1)
    # the same series over a larger denominator has the same canonical form
    num, den = stepped
    doubled = {D: {key: 2 * n for key, n in terms.items()} for D, terms in num.items()}
    assert _canonical(doubled, 2 * den) == _canonical(num, den)
    assert _canonical(num, den) != flat


# -- the stored form ---------------------------------------------------------------
# Coordinates are Fractions or HLaurent values with denominators up to 7 and
# h-exponents from -3 to 3, zeros included; the reference JSON is built from
# the HLaurent coordinates themselves.

_STORED_MODELS = {
    **{name: _MODELS[name] for name in ("cp2", "f3", "sigma1")},
    "f3-rescaled": load_model(RESCALED),
}
_ratios = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))
_coordinates = st.one_of(
    _ratios, st.dictionaries(st.integers(-3, 3), _ratios, max_size=3).map(HLaurent)
)


@st.composite
def stored_case(draw):
    model = _STORED_MODELS[draw(st.sampled_from(sorted(_STORED_MODELS)))]
    degree = st.sampled_from(
        [D for D in product(range(_ORDER + 1), repeat=model.rank) if sum(D) <= _ORDER]
    )
    coefficients = st.lists(_coordinates, min_size=model.size, max_size=model.size)
    return model, draw(st.dictionaries(degree, coefficients.map(CohClass), max_size=4))


def json_by_definition(model, terms):
    out = []
    for D in sorted(terms, key=lambda d: (sum(d), d)):
        coords = [HLaurent() + a for a in terms[D].coords]
        coeffs = {lab: a.to_json() for lab, a in zip(model.labels, coords) if a}
        if coeffs:
            out.append({"degree": list(D), "coeffs": coeffs})
    return out


def _assert_stored(s):
    numerators = [n for terms in s.flat.values() for n in terms.values()]
    assert type(s.den) is int and s.den > 0 and _all_int(s.flat)
    assert all(numerators) and all(s.flat.values())
    assert gcd(s.den, *numerators) == 1


@settings(max_examples=100, deadline=None)
@given(stored_case())
def test_stored_form_is_canonical_and_round_trips(case):
    model, terms = case
    s = CohSeries(model, _ORDER, terms)
    _assert_stored(s)
    assert CohSeries(model, _ORDER, s.c) == s
    assert s.to_json() == json_by_definition(model, terms)
    there = s.scaled(Fraction(2, 3))
    _assert_stored(there)
    assert there.scaled(Fraction(3, 2)) == s
    zero = s - s
    assert not zero and zero.c == {} and (zero.flat, zero.den) == ({}, 1)


def _canonical_by_rebuilding(rows, den):
    """The reference `_canonical`: every row rebuilt, then the gcd divided out."""
    rows = {D: r for D, row in rows.items() if (r := {k: v for k, v in row.items() if v})}
    if den == 1:
        return rows, den
    g = gcd(den, *(v for row in rows.values() for v in row.values()))
    if g > 1:
        den //= g
        rows = {D: {k: v // g for k, v in row.items()} for D, row in rows.items()}
    return rows, den


@st.composite
def raw_pair(draw):
    """Numerators with zeros and empty rows, over a den that is 1 or shares
    the factor g with every numerator."""
    g = draw(st.integers(1, 6))
    den = draw(st.one_of(st.just(1), st.integers(1, 12).map(lambda d: d * g)))
    key = st.tuples(st.integers(0, 2), st.integers(-2, 2))
    row = st.dictionaries(key, st.integers(-9, 9).map(lambda n: n * g), max_size=4)
    return draw(st.dictionaries(st.tuples(st.integers(0, 3)), row, max_size=4)), den


@settings(max_examples=300, deadline=None)
@given(raw_pair())
def test_canonical_matches_rebuilding_and_keeps_canonical_rows(pair):
    rows, den = pair
    before = copy.deepcopy(rows)
    got = _canonical(rows, den)
    assert got == _canonical_by_rebuilding(before, den)
    assert rows == before
    # an already canonical pair comes back as the same objects
    again = _canonical(*got)
    assert again == got and again[0] is got[0]
    assert all(again[0][D] is row for D, row in got[0].items())


@pytest.mark.parametrize("name", ["f3", "sigma1"])
def test_closed_form_leaves_the_factor_data_unchanged(name):
    model = builtin_model(name)
    before = copy.deepcopy(hypergeometric_factors(model))
    closed_form(model, 4)
    assert copy.deepcopy(hypergeometric_factors(model)) == before


# -- one writer that puts h back, one describe: against the code they replaced --
# Each owner is compared with a local copy of the parent code it replaced:
# `sections._graded_series` (the closed form's writer), the solver's row
# builder (every row, not only J's), `asymptotic_J`'s key loop, and the
# `describe` methods of CohSeries and QElem.

OWNER_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp12", "f3", "sigma1", RESCALED.name)


def _owner_model(name):
    return load_model(RESCALED.parent / name) if name.endswith(".model") else builtin_model(name)


def _parent_graded_series(model, order, terms):
    degrees, den = model.degrees, lcm(*(d for _, d in terms.values()))
    flat = {}
    for D, (vec, d) in terms.items():
        qdeg, m = model.qdegree(D), den // d
        flat[D] = {(k, -(degrees[k] + qdeg) // 2): m * n for k, n in enumerate(vec) if n}
    return GaugeSeries._stored(model, order, flat, den)


def _parent_solver_rows(model, order):
    """Every row of the fundamental solution: G_D solved along j* as the
    solver does (without its checks), and the rows written from G_D by the
    parent's row builder, h^e per (i, l, D)."""
    size, rank, degrees = model.size, model.rank, model.degrees
    area = size * size
    qden = model.quantum_rows()[0]
    commutator, mparts, duals, dual_den = sections._solver_maps(model)[:4]
    G = {(0,) * rank: ([int(e % (size + 1) == 0) for e in range(area)], 1)}
    for D in _degrees_upto(rank, order)[1:]:
        j = next(j for j in range(1, rank + 1) if D[j - 1] > 0)
        parts = [
            (lmap, *G[rest])
            for Dp, lmap in mparts[j]
            if min(rest := tuple(a - b for a, b in zip(D, Dp))) >= 0
        ]
        term, den = [0] * area, qden * lcm(*(d for _, _, d in parts))
        for lmap, num, d in parts:
            sections._flat_apply(lmap, num, term, den // (qden * d))
        step, den = D[j - 1] * qden, den * D[j - 1]
        total, depth = [0] * area, 0
        while any(term):
            total = [a * step + b for a, b in zip(total, term)]
            term = sections._flat_apply(commutator[j], term, [0] * area)
            depth += 1
        G[D] = total, den * step ** max(depth - 1, 0)
    den = lcm(*(d for _, d in G.values()))

    def row(i):
        flat = {}
        for D, (mat, d) in G.items():
            coords = flat[D] = {}
            qdeg = model.qdegree(D)
            for l, v in enumerate(mat[i * size : (i + 1) * size]):
                v *= den // d
                exp = (degrees[l] - degrees[i] - qdeg) // 2
                for k, a in duals[l]:
                    key = (k, exp)
                    coords[key] = coords.get(key, 0) + a * v
        return GaugeSeries._stored(model, order, flat, den * dual_den)

    return tuple(map(row, range(size)))


def _parent_describe(s, bare):
    """CohSeries.describe with bare "(%s)", QElem.describe with "%s"."""
    if not s.flat:
        return "0"
    parts = []
    for D, cls in s.items_sorted():
        mono = monomial_text("q", D)
        body = cls.describe(s.model.labels)
        parts.append("(%s)*%s" % (body, mono) if mono else bare % body)
    return " + ".join(parts)


@pytest.mark.parametrize("name", OWNER_MODELS)
def test_graded_writes_the_closed_form_as_the_parent_writer_did(name, monkeypatch):
    model = _owner_model(name)
    seen = []

    def spy(model, parts):
        seen.append(parts)
        return _graded(model, parts)

    monkeypatch.setattr(sections, "_graded", spy)
    for order in range(7):
        seen.clear()
        J = closed_form(model, order)
        [parts] = seen
        [(weight, rows)] = parts.items()
        assert weight == 0
        assert J == _parent_graded_series(model, order, rows), order


@pytest.mark.parametrize("name", OWNER_MODELS + ("gr24",))
def test_solver_rows_match_the_parent_row_builder(name):
    model = _owner_model(name)
    for order in range(7):
        assert solve_fundamental(model, order).rows == _parent_solver_rows(model, order), order


# The denominator of each G_D times the dual basis' dual_den, as the row
# builder hands them to `_graded`, recorded from the Neumann-loop solver
# that this solver's in-place pass replaced; both reduce each G_D by its gcd.
SOLVER_DENOMINATORS = {
    ("cp5", 8): {
        (0,): 1, (1,): 1, (2,): 512, (3,): 10077696, (4,): 1320903770112,
        (5,): 64497254400000000000, (6,): 3009183901286400000000000,
        (7,): 850019971802667260313600000000000,
        (8,): 7130484335623629001204747468800000000000,
    },
    ("f3", 6): {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 16, (1, 1): 1, (2, 0): 16,
        (0, 3): 1296, (1, 2): 16, (2, 1): 16, (3, 0): 1296, (0, 4): 165888,
        (1, 3): 1296, (2, 2): 32, (3, 1): 1296, (4, 0): 165888,
        (0, 5): 518400000, (1, 4): 165888, (2, 3): 2592, (3, 2): 2592,
        (4, 1): 165888, (5, 0): 518400000, (0, 6): 6220800000,
        (1, 5): 518400000, (2, 4): 331776, (3, 3): 7776, (4, 2): 331776,
        (5, 1): 518400000, (6, 0): 6220800000,
    },
    (RESCALED.name, 4): {
        (0, 0): 30, (0, 1): 900, (1, 0): 900, (0, 2): 4800, (1, 1): 900,
        (2, 0): 7200, (0, 3): 388800, (1, 2): 14400, (2, 1): 14400,
        (3, 0): 194400, (0, 4): 4976640, (1, 3): 1166400, (2, 2): 28800,
        (3, 1): 388800, (4, 0): 14929920,
    },
}


@pytest.mark.parametrize("name, order", sorted(SOLVER_DENOMINATORS))
def test_solver_hands_the_row_builder_reduced_denominators(name, order, monkeypatch):
    # the stored rows are canonical whatever the solver's denominators, so
    # only these pin the gcd that reduces each G_D
    model = _owner_model(name)
    seen = []

    def spy(model, parts):
        seen.append({D: d for part in parts.values() for D, (_, d) in part.items()})
        return _graded(model, parts)

    monkeypatch.setattr(sections, "_graded", spy)
    solve_fundamental(model, order).rows
    assert seen == [SOLVER_DENOMINATORS[name, order]] * model.size


@pytest.mark.parametrize("name", OWNER_MODELS)
def test_asymptotic_J_matches_the_parent_key_loop(name):
    model = _owner_model(name)
    E = asymptotic_H(model)
    zero = (0,) * model.rank
    want = {
        e: CohSeries._stored(
            model, 0, {zero: {(k, -sum(e)): n for k, n in enumerate(mat[: model.size])}}, den
        )
        for e, (mat, den) in E.items()
    }
    assert asymptotic_J(model, E).c == {e: s for e, s in want.items() if s}


@pytest.mark.parametrize("name", OWNER_MODELS)
def test_describe_writes_as_the_parent_methods_did(name):
    model = _owner_model(name)
    for order in range(7):
        J = closed_form(model, order)
        rows = solve_fundamental(model, order).rows
        for s in (J, J - _unit_series(model, order), J.scaled(0), *rows):
            assert s.describe() == _parent_describe(s, "(%s)")
        for j in range(model.size):
            for k in range(model.size):
                x = QElem.basis(model, order, j).times(k)
                assert x.describe() == repr(x) == _parent_describe(x, "%s")
