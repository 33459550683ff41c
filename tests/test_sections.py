"""Flat sections: closed-form series, the degree-by-degree solver, row
assembly, Q-factorization, classical limits, and descendent extraction."""

from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import HLaurent, NovikovSeries, format_rational
from qcoh.model import (
    BUILTIN_NAMES,
    CohClass,
    InvalidModel,
    ModelSpec,
    builtin_model,
    cp_dimension,
    load_model,
    save_model,
)
from qcoh import sections
from qcoh.operators import (
    apply_gauge_many,
    builtin_operators,
    builtin_rowspec,
    parse_operator,
)
from qcoh.quantum import QElem
from qcoh.series import GaugeSeries, _degrees_upto
from qcoh.sections import (
    CheckFailure,
    HMatrix,
    asymptotic_H,
    asymptotic_J,
    build_H_from_J,
    closed_form,
    descendent_level,
    extract_descendents,
    hypergeometric_factors,
    q_factorize,
    solve_fundamental,
    tpoly_matrix_json,
    verify_annihilated,
)

ORDER = 6


def _check_system(hm):
    """The first-order-system report of a solution matrix's rows."""
    return sections._system_report(hm.model, hm.order, hm.rows)


def harmonic(d):
    return sum((Fraction(1, k) for k in range(1, d + 1)), Fraction(0))


# -- closed-form oracles ------------------------------------------------------
# CP^1: J_d = prod_{k=1..d} (x + kh)^{-2} with x^2 = 0, so the coefficient
# of 1 is 1/(d!)^2 h^{2d} and the coefficient of x is -2 H_d/(d!)^2 h^{2d+1}.


def test_closed_form_cp1_coefficients():
    J = closed_form(builtin_model("cp1"), ORDER)
    for d in range(0, ORDER + 1):
        cls = J.c[(d,)]
        scalar = Fraction(1, factorial(d) ** 2)
        assert cls.coords[0] == HLaurent.term(scalar, -2 * d)
        want_x = HLaurent.term(-2 * harmonic(d) * scalar, -(2 * d + 1))
        assert cls.coords[1] == want_x


def test_closed_form_cp2_degree_one():
    # 1/(x+h)^3 with x^3 = 0: h^{-3}(1 - 3x/h + 6x^2/h^2)
    J = closed_form(builtin_model("cp2"), 3)
    cls = J.c[(1,)]
    assert cls.coords[0] == HLaurent.term(1, -3)
    assert cls.coords[1] == HLaurent.term(-3, -4)
    assert cls.coords[2] == HLaurent.term(6, -5)


def test_closed_form_f3_unit_coefficient():
    # coefficient of 1 at q^(d1,d2) is (d1+d2)!/((d1!)^3 (d2!)^3) h^{-2(d1+d2)}
    J = closed_form(builtin_model("f3"), 4)
    for (d1, d2), cls in J.c.items():
        want = Fraction(
            factorial(d1 + d2), factorial(d1) ** 3 * factorial(d2) ** 3
        )
        assert cls.coords[0] == HLaurent.term(want, -2 * (d1 + d2))


def test_closed_form_sigma1_hand_expanded_degrees():
    # basis (1, x1, x4, z); relations x1^2 = 0, x4^2 = z, x1 x4 = z
    J = closed_form(builtin_model("sigma1"), 3)
    # degree (1,0): (x4 - x1)/(x1 + h)^2 = (x4 - x1)/h^2 - 2z/h^3
    cls = J.c[(1, 0)]
    assert not cls.coords[0]
    assert cls.coords[1] == HLaurent.term(-1, -2)
    assert cls.coords[2] == HLaurent.term(1, -2)
    assert cls.coords[3] == HLaurent.term(-2, -3)
    # degree (0,1): 1/((x4+h)(x4-x1+h)) = (1 + x1/h - 2 x4/h)/h^2
    cls = J.c[(0, 1)]
    assert cls.coords[0] == HLaurent.term(1, -2)
    assert cls.coords[1] == HLaurent.term(1, -3)
    assert cls.coords[2] == HLaurent.term(-2, -3)
    assert not cls.coords[3]
    # degree (1,1): 1/((x1+h)^2 (x4+h)) = (1 - 2x1/h - x4/h + 3z/h^2)/h^3
    cls = J.c[(1, 1)]
    assert cls.coords[0] == HLaurent.term(1, -3)
    assert cls.coords[1] == HLaurent.term(-2, -4)
    assert cls.coords[2] == HLaurent.term(-1, -4)
    assert cls.coords[3] == HLaurent.term(3, -5)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_closed_form_cp_matches_sympy_expansion(m):
    """Independent oracle: expand prod_{k<=d} 1/(x+kh)^(m+1) in x with
    sympy and truncate at x^(m+1); coordinate j of J_d is the x^j
    coefficient, since the CP^m basis is 1, x, ..., x^m."""
    import sympy

    x, h = sympy.symbols("x h")
    J = closed_form(builtin_model("cp%d" % m), 4)
    for d in range(5):
        f = sympy.Mul(*[(x + k * h) ** -(m + 1) for k in range(1, d + 1)])
        for j in range(m + 1):
            want = sympy.diff(f, x, j).subs(x, 0) / sympy.factorial(j)
            got = sum(
                (sympy.Rational(v.numerator, v.denominator) * h**e
                 for e, v in J.c[(d,)].coords[j].c.items()),
                sympy.Integer(0),
            )
            assert sympy.cancel(want - got) == 0, (m, d, j)


@pytest.mark.parametrize("name", ["f3", "sigma1"])
def test_factor_values_match_sympy_expansion(name):
    """Independent oracle for each factor (x, charge, p): expand
    [prod_{k<=0}(x+k) / prod_{k<=n}(x+k)]^p in x with sympy at h = 1 and
    compare its x^j coefficients with the returned ones, for every
    n = <charge, D> with |D| <= 4, in Z[x]/(x^m) with x^m the first power
    of x that vanishes under the model's cup.  Covers n < 0 (sigma1) and
    p = -1 (f3)."""
    import sympy

    model = builtin_model(name)
    order = 4
    x = sympy.symbols("x")
    compiled = model.compiled(sections._factor_actions)
    for factor, (_, _, _, m) in zip(hypergeometric_factors(model), compiled, strict=True):
        row, charge, power = factor
        cls = CohClass(Fraction(row.get(k, 0)) for k in range(model.size))
        pows = [CohClass(Fraction(int(k == 0)) for k in range(model.size))]
        while pows[-1]:
            pows.append(model.cup(pows[-1], cls))
        values = sections._factor_values(charge, power, m, order)
        assert m == len(pows) - 1
        lo, hi = order * min(0, *charge), order * max(0, *charge)
        assert sorted(values) == list(range(lo, hi + 1))
        for n, (coeffs, den) in values.items():
            ks = range(n + 1, 1) if n < 0 else range(1, n + 1)
            f = sympy.Mul(*[(x + k) ** (power if n < 0 else -power) for k in ks])
            want = []
            for j in range(m):
                a = sympy.diff(f, x, j).subs(x, 0) / sympy.factorial(j)
                want.append(Fraction(int(a.p), int(a.q)))
            assert [Fraction(c, den) for c in coeffs] == want, (factor, n)


def _class_product_closed_form(model, order):
    """The closed form as the class-product builder computed it before the
    Horner build: each factor value turned into a class (QElem of Novikov
    order 0) over the powers of x, and J_D the product of the classes."""
    zero = (0,) * model.rank
    values = []
    for row, charge, power in hypergeometric_factors(model):
        x = QElem._stored(model, 0, {zero: dict(row)}, 1)
        pows = [QElem.unit(model, 0)]
        for _ in range(model.dim + 1):
            p = pows[-1] * x
            if not p:
                break
            pows.append(p)
        m = len(pows)

        def step(value, k, e, m=m):
            c, den = value
            for _ in range(e):
                c = [k * a + b for a, b in zip(c, [0, *c])]
            for _ in range(-e):
                o, out = 0, []
                for j, a in enumerate(c):
                    o = a * k**j - o
                    out.append(o * k ** (m - 1 - j))
                c, den = out, den * k**m
            g = gcd(den, *c)
            return [a // g for a in c], den // g

        vals = {0: ([1] + [0] * (m - 1), 1)}
        for n in range(1, order * max(0, *charge) + 1):
            vals[n] = step(vals[n - 1], n, -power)
        for n in range(-1, order * min(0, *charge) - 1, -1):
            vals[n] = step(vals[n + 1], n + 1, power)
        classes = {}
        for n, (c, den) in vals.items():
            total = QElem.zero(model, 0)
            for a, xj in zip(c, pows):
                total = total + xj.scaled(Fraction(a, den))
            classes[n] = total
        values.append((charge, classes))
    den, flat, terms = 1, {}, {}
    for D in _degrees_upto(model.rank, order):
        first, *rest = [v[sum(c * d for c, d in zip(charge, D))] for charge, v in values]
        terms[D] = prod(rest, start=first)
        den = lcm(den, terms[D].den)
    for D, v in terms.items():
        e = model.qdegree(D)
        flat[D] = {(k, -(model.degrees[k] + e) // 2): n * (den // v.den)
                   for k, n in v.flat.get(zero, {}).items()}
    return GaugeSeries._stored(model, order, flat, den)


@pytest.mark.parametrize(
    "name", ["cp1", "cp2", "cp3", "cp4", "cp5", "cp12", "f3", "sigma1", "f3-rescaled"]
)
def test_closed_form_matches_the_class_product_builder(name):
    # f3-rescaled has qden 30, so its Horner steps carry powers of qden
    if name == "f3-rescaled":
        model = load_model(Path(__file__).resolve().parent / "golden" / "f3-rescaled.model")
        assert model.quantum_rows()[0] == 30
    else:
        model = builtin_model(name)
    for order in range(9):
        J = closed_form(model, order)
        want = _class_product_closed_form(model, order)
        assert (J.flat, J.den) == (want.flat, want.den), order


@pytest.mark.parametrize("build", [closed_form, solve_fundamental])
@pytest.mark.parametrize("name", ["cp1", "f3"])
def test_negative_order_is_refused(build, name):
    # the closed form gave the zero series and the solver q^0 alone in a
    # series of order -1; an empty result is never a valid answer
    for order in (-1, -3):
        with pytest.raises(ValueError, match="negative order"):
            build(builtin_model(name), order)


def test_a_generator_that_is_not_nilpotent_is_refused():
    # b1 . b1 = b1 makes x^k = x for every k, so the closed form's Z[x]/(x^m)
    # would have no m; the grading refuses the table before any series
    data = builtin_model("cp1").to_json()
    data["cup"].append({"i": 1, "j": 1, "k": 1, "c": 1})
    data["quantum"].append({"i": 1, "j": 1, "k": 1, "D": [0], "c": "1"})
    with pytest.raises(InvalidModel) as info:
        ModelSpec.from_json(data)
    assert info.value.problems == [
        "cup product b_1.b_1 has a component of wrong degree (b_1)",
        "term q^(0,) b_1 in b_1 o b_1 violates the grading",
    ]


@pytest.mark.parametrize(
    "name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"]
)
def test_closed_form_entries_are_graded_monomials(name):
    # the b_k coordinate of J_D is c * h^e, e = -deg b_k / 2 - <c1, D>; the
    # matrix assembled from J by the row operators over HLaurent then obeys
    # the solver's rule (deg b_k - deg b_i)/2 - <c1, D>
    model = builtin_model(name)
    J = closed_form(model, ORDER)
    assert len(J.c) > 1
    for D, cls in J.c.items():
        c1 = sum(c * d for c, d in zip(model.chern, D))
        for k, v in enumerate(cls.coords):
            if v:
                assert set(v.c) == {-model.degrees[k] // 2 - c1}, (D, k, v)
    mats = build_H_from_J(model, J, builtin_rowspec(model)).gauge_matrices()
    for D, mat in mats.items():
        c1 = sum(c * d for c, d in zip(model.chern, D))
        for i, row in enumerate(mat):
            for k, v in enumerate(row):
                if v:
                    e = (model.degrees[k] - model.degrees[i]) // 2 - c1
                    assert set(v.c) == {e}, (D, i, k, v)


def test_closed_form_unavailable_for_gr24():
    with pytest.raises(LookupError):
        closed_form(builtin_model("gr24"), 2)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hypergeometric_factor_table(name):
    # a negative power inverts the finite product of a negative charge,
    # which holds the bare factor x, so it needs charges >= 0
    model = builtin_model(name)
    if name == "gr24":
        with pytest.raises(LookupError):
            hypergeometric_factors(model)
        return
    for x, charge, power in hypergeometric_factors(model):
        assert len(charge) == model.rank
        assert x and {model.degrees[k] for k in x} == {2}
        assert power > 0 or min(charge) >= 0


@pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"])
def test_factor_list_has_degree_c1(name):
    # sum of p * class over the factors is c_1 = sum_i chern_i b_i, which
    # makes each J_D homogeneous of degree -deg q^D
    model = builtin_model(name)
    total = [0] * model.size
    for row, _, power in hypergeometric_factors(model):
        for k, c in row.items():
            total[k] += power * c
    assert total == [0, *model.chern] + [0] * (model.size - model.rank - 1)


# -- solver vs closed form ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"]
)
def test_solver_reproduces_closed_form(name):
    model = builtin_model(name)
    closed = closed_form(model, ORDER)
    solved = solve_fundamental(model, ORDER).jrow()
    assert solved.c == closed.c


@pytest.mark.parametrize(
    "name, order",
    [("f3", 10), ("sigma1", 10), ("cp5", 12), ("cp1", 40), ("cp12", 8)],
)
def test_solver_reproduces_closed_form_at_high_order(name, order):
    # past ORDER the commutator series and the numerators of each G_D run
    # longest, and the rows are compared exactly, as stored.  On a model of
    # rank 1 the solver checks nothing itself, so this is its oracle there.
    model = builtin_model(name)
    assert solve_fundamental(model, order).jrow() == closed_form(model, order)


def test_solver_runs_for_gr24():
    # gr24 has rank 1 and no closed form: the first-order system is the
    # oracle of its solve
    Hm = solve_fundamental(builtin_model("gr24"), 8)
    assert _check_system(Hm)["status"] == "pass"


@pytest.mark.parametrize(
    "record, witness",
    [
        # q^(1,0) is solved along q_1 and fails along q_2, above it
        (
            ((1, 1, 0), [1, 0]),
            {"degree": [1, 0], "direction": 2, "entry": [2, 0], "expected": [], "got": [[-2, "1"]]},
        ),
        # q^(0,1) is solved along q_2 and fails along q_1, below it
        (
            ((2, 2, 0), [0, 1]),
            {"degree": [0, 1], "direction": 1, "entry": [1, 0], "expected": [], "got": [[-2, "1"]]},
        ),
    ],
    ids=["q1-record", "q2-record"],
)
def test_solver_detects_non_integrable_deformation(record, witness):
    ijk, D = record
    data = builtin_model("f3").to_json()
    (rec,) = [r for r in data["quantum"] if (r["i"], r["j"], r["k"]) == ijk and r["D"] == D]
    rec["c"] = format_rational(2 * Fraction(rec["c"]))
    with pytest.raises(CheckFailure) as info:
        solve_fundamental(ModelSpec.from_json(data), 4)
    report = info.value.report
    assert report["check"] == "solver-consistency"
    assert report["witnesses"] == [witness]


@pytest.mark.parametrize("path, qden", [(None, 1), ("f3-rescaled.model", 30)])
def test_solver_consistency_witness_in_the_second_direction(path, qden):
    # doubling b_1 o b_5 at q^(1, 1) leaves a valid table; the degree is
    # solved along q_1 and must fail the check along q_2, with the same
    # reduced witness over the rational table
    model = builtin_model("f3") if path is None else load_model(
        Path(__file__).resolve().parent / "golden" / path
    )
    data = model.to_json()
    (rec,) = [
        r for r in data["quantum"]
        if r["D"] == [1, 1] and (r["i"], r["j"], r["k"]) == (1, 5, 0)
    ]
    rec["c"] = str(2 * Fraction(rec["c"]))
    broken = ModelSpec.from_json(data)
    assert broken.quantum_rows()[0] == qden
    with pytest.raises(CheckFailure) as info:
        solve_fundamental(broken, 4)
    report = info.value.report
    assert report["check"] == "solver-consistency"
    assert report["witnesses"] == [
        {
            "degree": [1, 1],
            "direction": 2,
            "entry": [0, 0],
            "expected": [[-3, "1"]],
            "got": [[-3, "2"]],
        }
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_solver_satisfies_first_order_system(name):
    # _system_report applies theta_j on exact coordinates that keep every power
    # of h, an oracle independent of the solver's h = 1 arithmetic
    report = _check_system(solve_fundamental(builtin_model(name), ORDER))
    assert report["status"] == "pass", report["witnesses"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_solver_entries_are_graded_monomials(name):
    # entry (i, k) of G_D is c * h^e, e = (deg b_k - deg b_i)/2 - <c1, D>
    model = builtin_model(name)
    mats = solve_fundamental(model, ORDER).gauge_matrices()
    assert len(mats) > 1
    for D, mat in mats.items():
        c1 = sum(c * d for c, d in zip(model.chern, D))
        for i, row in enumerate(mat):
            for k, v in enumerate(row):
                if v:
                    e = (model.degrees[k] - model.degrees[i]) // 2 - c1
                    assert set(v.c) == {e}, (D, i, k, v)


def test_ungraded_quantum_table_is_refused():
    # x * x^2 = q retargeted onto x: the solver's h = 1 arithmetic needs the
    # grading, and construction refuses the table in both orders of the pair
    data = builtin_model("cp2").to_json()
    for rec in data["quantum"]:
        if rec["D"] == [1] and rec["i"] == 1 and rec["j"] == 2:
            rec["k"] = 1
    with pytest.raises(InvalidModel) as info:
        ModelSpec.from_json(data)
    assert info.value.problems == [
        "term q^(1,) b_1 in b_1 o b_2 violates the grading",
        "term q^(1,) b_1 in b_2 o b_1 violates the grading",
    ]


def _rescaled(model, lam):
    """The model in the basis b'_k = lam_k b_k (lam_k = 1 where not given),
    read back from its JSON records: structure constants become
    c lam_i lam_j / lam_k, pairings g lam_i lam_j (integral lam)."""
    scale = [Fraction(lam.get(k, 1)) for k in range(model.size)]
    data = model.to_json()
    for rec in data["cup"] + data["quantum"]:
        c = Fraction(rec["c"]) * scale[rec["i"]] * scale[rec["j"]] / scale[rec["k"]]
        rec["c"] = format_rational(c)
    data["pairing"] = [
        [int(g * scale[i] * scale[j]) for j, g in enumerate(row)]
        for i, row in enumerate(data["pairing"])
    ]
    return ModelSpec.from_json(data)


# every builtin table is integral; rescaling the non-divisor classes by
# integers gives cup and quantum entries with denominators 2, 3, 5 and 7
RESCALED = [
    ("f3", {3: 2, 4: -3, 5: 5}),
    ("sigma1", {3: 7}),
    ("gr24", {2: 2, 3: 3, 4: -5, 5: 7}),
    ("cp3", {2: 3, 3: -2}),
]


@pytest.mark.parametrize("name, lam", RESCALED)
def test_solver_on_rescaled_basis_with_rational_tables(name, lam):
    model = builtin_model(name)
    scaled = _rescaled(model, lam)
    data = scaled.to_json()
    records = data["cup"] + [rec for rec in data["quantum"] if any(rec["D"])]
    assert {Fraction(rec["c"]).denominator for rec in records} > {1}
    # the classical J starts at the unit, not at the dual of b'_top
    zero = (0,) * model.rank
    assert asymptotic_J(scaled).c[zero].coeff(zero) == scaled.basis_class(0)
    Hm = solve_fundamental(scaled, ORDER)
    assert _check_system(Hm)["status"] == "pass"
    # J = sum_k J^k b_k = sum_k J^k / lam_k b'_k, although the unit pairs
    # to lam_top with b'_top = lam_top b_top
    want = solve_fundamental(model, ORDER).jrow().c
    got = Hm.jrow().c
    assert set(got) == set(want)
    for D, cls in got.items():
        for k, v in enumerate(cls.coords):
            assert v * lam.get(k, 1) == want[D].coords[k]


@pytest.mark.parametrize(
    "name, lam", [(name, {}) for name in BUILTIN_NAMES] + RESCALED
)
def test_jrow_builds_only_the_rows_that_pair_with_the_unit(name, lam):
    # on the rescaled models qden > 1, so each commutator step is not 1,
    # and the unit pairs to lam_top with b'_top, so jrow scales its row
    model = _rescaled(builtin_model(name), lam) if lam else builtin_model(name)
    Hm = solve_fundamental(model, 4)
    J = Hm.jrow()
    assert set(Hm._built) == {i for i, g in enumerate(model.pairing[0]) if g}
    assert _check_system(Hm)["status"] == "pass"
    assert set(Hm._built) == set(range(model.size))
    full = solve_fundamental(model, 4)
    assert len(full.rows) == model.size
    assert _check_system(full)["status"] == "pass"
    assert full.jrow() == J
    assert full.to_json() == Hm.to_json()


def test_hmatrix_builds_each_row_once():
    model = builtin_model("f3")
    rows = solve_fundamental(model, 3).rows
    built = []

    def row(i):
        built.append(i)
        return rows[i]

    Hm = HMatrix(model, 3, row)
    assert built == []
    assert Hm.jrow() == rows[-1]
    assert Hm.rows == rows
    assert _check_system(Hm)["status"] == "pass"
    assert sorted(built) == list(range(model.size))


def test_hmatrix_rejects_the_wrong_number_of_rows():
    model = builtin_model("cp1")
    rows = solve_fundamental(model, 2).rows
    for bad in (rows[:1], rows + rows[:1], ()):
        with pytest.raises(ValueError):
            HMatrix(model, 2, bad)
    assert HMatrix(model, 2, list(rows)).rows == rows


def test_hmatrix_rejects_rows_of_another_order():
    # q_factorize reads every degree of the rows and solves Q only up to
    # the matrix's order, so rows of a higher order would pass a wrong Q
    model = builtin_model("cp2")
    rows = solve_fundamental(model, 4).rows
    for order in (2, 6):
        with pytest.raises(ValueError, match="^expected rows of order %d$" % order):
            HMatrix(model, order, rows)
    assert HMatrix(model, 4, rows).rows == rows


def test_hmatrix_row_refuses_an_index_outside_the_basis():
    # on both construction paths, and nothing out of range is kept
    model = builtin_model("f3")
    solved = solve_fundamental(model, 2)
    for Hm in (solved, HMatrix(model, 2, solved.rows)):
        for i in (-1, 6):
            with pytest.raises(IndexError, match="outside 0..5"):
                Hm.row(i)
        assert Hm.row(5) == solved.rows[5]
    assert set(solved._built) == set(range(model.size))


def test_solver_on_a_direction_without_quantum_terms():
    # QH(P^1) tensor the classical H(P^1): q_2 never appears, so every
    # G_D with D_2 > 0 has an empty commutator series and vanishes, and
    # J is the J-function of P^1 in the first factor
    data = load_model(Path(__file__).resolve().parent / "golden" / "p1xp1-no-q2.model").to_json()
    data["quantum"] = [rec for rec in data["quantum"] if rec["D"][1] == 0]
    model = ModelSpec.from_json(data)
    Hm = solve_fundamental(model, 4)
    assert _check_system(Hm)["status"] == "pass"
    J, cp1 = Hm.jrow().c, closed_form(builtin_model("cp1"), 4).c
    assert set(J) == {(d, 0) for d in range(5)}
    for (d, _), cls in J.items():
        assert cls.coords[:2] == cp1[(d,)].coords
        assert not any(cls.coords[2:])


def test_solver_matches_closed_form_on_f3_rescaled():
    # qden = 30, so G_D is summed over den * (D_j * 30)^N
    model = load_model(Path(__file__).resolve().parent / "golden" / "f3-rescaled.model")
    assert model.quantum_rows()[0] == 30
    assert solve_fundamental(model, 6).jrow() == closed_form(model, 6)


@pytest.mark.parametrize("name, lam", [r for r in RESCALED if r[0] != "gr24"])
def test_closed_form_on_rescaled_basis_with_rational_tables(name, lam):
    # the closed form is a class, J = sum_k J^k b_k = sum_k J^k / lam_k b'_k
    model = builtin_model(name)
    want = closed_form(model, ORDER).c
    got = closed_form(_rescaled(model, lam), ORDER).c
    assert set(got) == set(want)
    for D, cls in got.items():
        for k, v in enumerate(cls.coords):
            assert v * lam.get(k, 1) == want[D].coords[k]


@pytest.mark.parametrize("name, lam", RESCALED)
def test_rescaled_model_round_trips_through_json(tmp_path, name, lam):
    # rational cup entries such as 1/2 and -1/3 must survive the model file
    scaled = _rescaled(builtin_model(name), lam)
    path = tmp_path / "scaled.model"
    save_model(scaled, path)
    for again in (ModelSpec.from_json(scaled.to_json()), load_model(path)):
        assert again.quantum_rows() == scaled.quantum_rows()
        assert again.to_json() == scaled.to_json()


# -- annihilation ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"]
)
def test_all_shipped_operators_annihilate_closed_form(name):
    model = builtin_model(name)
    J = closed_form(model, ORDER)
    ops = builtin_operators(model)
    report = verify_annihilated(J, ops)
    assert report["status"] == "pass", report["witnesses"]


def test_wrong_operator_leaves_residual():
    model = builtin_model("cp1")
    J = closed_form(model, 4)
    report = verify_annihilated(J, [parse_operator("D1^2 - 2*q1", 1)])
    assert report["status"] == "fail"
    assert report["witnesses"][0]["nonzero_degrees"]


# -- row assembly and Q-factorization --------------------------------------------


@pytest.mark.parametrize("name", ["cp1", "cp3", "f3", "sigma1"])
def test_build_H_from_J_satisfies_first_order_system(name):
    model = builtin_model(name)
    J = closed_form(model, 4)
    Hm = build_H_from_J(model, J, builtin_rowspec(model))
    assert Hm.jrow().c == J.c
    assert _check_system(Hm)["status"] == "pass"


def _basis_multiple(model, k, x):
    """x b_k, for a rational or HLaurent x."""
    return CohClass(x if j == k else 0 for j in range(model.size))


def test_first_order_system_witness_names_entry():
    model = builtin_model("f3")
    solved = solve_fundamental(model, 3)
    D, k = (1, 0), 2
    bump = GaugeSeries(model, 3, {D: _basis_multiple(model, k, HLaurent.term(5, -1))})
    broken = HMatrix(model, 3, (solved.rows[0] + bump,) + solved.rows[1:])
    report = _check_system(broken)
    assert report["status"] == "fail"
    witness = report["witnesses"][0]
    assert (witness["direction"], witness["row"]) == (1, 0)
    assert witness["degree"] == [1, 0]
    i, k = witness["entry"]
    assert i == 0
    assert witness["expected"] != witness["got"]
    got = broken.rows[0].theta(1).coeff(witness["degree"]).coords[k]
    assert witness["got"] == got.to_json()
    assert witness["detail"]


def test_first_order_system_witness_on_rational_tables_is_reduced():
    # f3 in the basis 2 a^2, -3 b^2, 5 z: the check runs on int numerators
    # over denominators multiplied by 30 per theta_1 step, and the witness
    # still reports reduced Fractions
    model = load_model(Path(__file__).resolve().parent / "golden" / "f3-rescaled.model")
    solved = solve_fundamental(model, 3)
    assert _check_system(solved)["status"] == "pass"
    D, k = (1, 0), 3
    bump = GaugeSeries(model, 3, {D: _basis_multiple(model, k, Fraction(7, 6))})
    broken = HMatrix(model, 3, (solved.rows[0] + bump,) + solved.rows[1:])
    report = _check_system(broken)
    assert report["status"] == "fail"
    witness = report["witnesses"][0]
    assert (witness["direction"], witness["row"], witness["degree"]) == (1, 0, [1, 0])
    i, k = witness["entry"]
    want = broken.rows[0].theta(1).coeff(witness["degree"]).coords[k]
    assert witness["got"] == want.to_json()
    values = [v for side in ("expected", "got") for _, v in witness[side]]
    assert any("/" in v for v in values)
    assert all(str(Fraction(v)) == v for v in values)


def test_build_H_rejects_wrong_rowspec():
    model = builtin_model("cp1")
    J = closed_form(model, 3)
    bad = [parse_operator("D1 + 1", 1), parse_operator("1", 1)]
    with pytest.raises(CheckFailure):
        build_H_from_J(model, J, bad)
    with pytest.raises(ValueError):
        build_H_from_J(model, J, [parse_operator("D1", 1)])


def test_q_factorization_identity_models():
    for name in ("cp1", "cp2", "sigma1"):
        model = builtin_model(name)
        J = closed_form(model, 4)
        rowspec = builtin_rowspec(model)
        Hm = build_H_from_J(model, J, rowspec)
        Q, H0 = q_factorize(model, Hm, rowspec)
        size = model.size
        for i in range(size):
            for k in range(size):
                if i == k:
                    assert Q[i][k] == NovikovSeries(model.rank, 4, {(0,) * model.rank: 1}), name
                else:
                    assert not Q[i][k], (name, i, k)


def test_q_factorization_f3_matches_printed_matrix():
    model = builtin_model("f3")
    J = closed_form(model, 4)
    rowspec = builtin_rowspec(model)
    Hm = build_H_from_J(model, J, rowspec)
    Q, H0 = q_factorize(model, Hm, rowspec)
    expected_offdiag = {
        (0, 3): {(1, 0): Fraction(-1)},
        (1, 5): {(1, 0): Fraction(1)},
        (2, 5): {(1, 0): Fraction(-1)},
    }
    for i in range(6):
        for k in range(6):
            if i == k:
                assert Q[i][k] == NovikovSeries(2, 4, {(0, 0): 1})
            elif (i, k) in expected_offdiag:
                assert Q[i][k] == NovikovSeries(2, 4, expected_offdiag[(i, k)])
            else:
                assert not Q[i][k], (i, k)
    # H0 satisfies the h-free-head property implicitly; its top row is J's
    # theta-free image, i.e. J itself for the identity row
    assert H0.jrow().c == J.c


def _q_factorization_witness(info):
    report = info.value.report
    assert report["check"] == "q-factorization" and report["status"] == "fail"
    (witness,) = report["witnesses"]
    return witness


def test_q_factorization_wrong_rowspec_names_entry():
    model = builtin_model("sigma1")
    J = closed_form(model, 3)
    Hm = build_H_from_J(model, J, builtin_rowspec(model))
    # row 2 should be D1: with D2 the q^0 part of Q is not the identity
    wrong = [parse_operator(t, 2) for t in ("D1*D2", "D2 - D1", "D2", "1")]
    with pytest.raises(CheckFailure) as info:
        q_factorize(model, Hm, wrong)
    witness = _q_factorization_witness(info)
    assert witness["degree"] == [0, 0] and witness["entry"] == [2, 1]
    assert witness["expected"] == [] and witness["got"] == [[0, "-1"]]


def test_q_factorization_h_dependent_head_names_entry():
    model = builtin_model("cp1")
    one_plus_h = HLaurent({0: 1, 1: 1})
    J = closed_form(model, 2)
    J = GaugeSeries(
        model, 2, {D: CohClass(a * one_plus_h for a in cls.coords) for D, cls in J.c.items()}
    )
    Hm = HMatrix(model, 2, [J, J])
    with pytest.raises(CheckFailure) as info:
        q_factorize(model, Hm, builtin_rowspec(model))
    witness = _q_factorization_witness(info)
    assert witness["degree"] == [0] and witness["entry"] == [0, 0]
    assert witness["expected"] == [[0, "1"]]
    assert witness["got"] == [[0, "1"], [1, "1"]]


def test_q_factorization_off_grade_entry_names_entry():
    # the head stays h-free; a constant added to the unit coordinate of
    # row 0 at q^1 lands in entry (0, 1), where the grading predicts h^-1
    model = builtin_model("cp1")
    rowspec = builtin_rowspec(model)
    Hm = build_H_from_J(model, closed_form(model, 2), rowspec)
    extra = GaugeSeries(model, 2, {(1,): _basis_multiple(model, 0, 5)})
    bad = HMatrix(model, 2, [Hm.rows[0] + extra, Hm.rows[1]])
    with pytest.raises(CheckFailure) as info:
        q_factorize(model, bad, rowspec)
    witness = _q_factorization_witness(info)
    assert witness["degree"] == [1] and witness["entry"] == [0, 1]
    assert [0, "5"] in witness["got"]
    assert witness["expected"] != witness["got"]
    assert all(e == -1 for e, _ in witness["expected"])


def test_q_factorization_singular_head_is_a_check_failure():
    model = builtin_model("sigma1")
    J = closed_form(model, 2)
    rows = [parse_operator(t, 2) for t in ("D1*D2", "D1", "D1", "1")]
    Hm = HMatrix(model, 2, apply_gauge_many(rows, J))
    with pytest.raises(CheckFailure) as info:
        q_factorize(model, Hm, rows)
    assert _q_factorization_witness(info)["degree"] == [0, 0]


def _perturbed_quotient_witness(monkeypatch, index):
    """The q-factorization witness of f3 at order 1 when 1 is added to the
    flat entry `index` of the q^(1, 0) part of Q."""
    model = builtin_model("f3")
    rowspec = builtin_rowspec(model)
    Hm = build_H_from_J(model, closed_form(model, 1), rowspec)
    divide = sections._qmat_divide

    def perturbed(*args):
        out, den = divide(*args)
        # matrices are flat int lists over den at h = 1
        D = (1, 0)
        mat = list(out.get(D, [0] * model.size**2))
        mat[index] += den
        return {**out, D: mat}, den

    monkeypatch.setattr(sections, "_qmat_divide", perturbed)
    with pytest.raises(CheckFailure) as info:
        q_factorize(model, Hm, rowspec)
    return _q_factorization_witness(info)


def test_q_factorization_h_dependent_entry_witness(monkeypatch):
    """Entry (0, 5), flat index 5, of the q^(1, 0) part of a graded matrix
    carries h^1 for f3 ((6 - 0 - 4) / 2), so a wrong Q there depends on
    h; the witness names that entry with its h power."""
    assert _perturbed_quotient_witness(monkeypatch, 5) == {
        "degree": [1, 0],
        "entry": [0, 5],
        "expected": [],
        "got": [[1, "1"]],
        "detail": "entry depends on h: h",
    }


@st.composite
def qmat_case(draw):
    """A model, an order, a random sparse q-matrix series B with
    denominators up to 7 whose q^0 head, a row permutation of an upper
    triangular matrix with nonzero diagonal, is invertible, and a second
    such series A with any head."""
    model = builtin_model(draw(st.sampled_from(["cp2", "sigma1", "f3"])))
    size, order = model.size, draw(st.integers(1, 3))
    ratio = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 7))
    entries = st.dictionaries(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), ratio, max_size=4
    )
    perm = draw(st.permutations(range(size)))
    head = [{} for _ in range(size)]
    for i in range(size):
        head[perm[i]][i] = draw(ratio.filter(bool))
    for (i, k), v in draw(entries).items():
        if i < k:
            head[perm[i]][k] = v
    zero = (0,) * model.rank
    B, A = {zero: head}, {}
    for D in sections._degrees_upto(model.rank, order):
        for series in (B, A) if any(D) else (A,):
            mat = [{} for _ in range(size)]
            for (i, k), v in draw(entries).items():
                mat[i][k] = v
            series[D] = mat
    return model, order, B, A


def _flat_over_den(series, size):
    """A qmat_case series as (flat int matrices, den) over the lcm of its
    denominators, entry (i, k) at i * size + k."""
    den = lcm(*(v.denominator for m in series.values() for r in m for v in r.values()))
    flat = {
        D: [int(row.get(k, 0) * den) for row in m for k in range(size)]
        for D, m in series.items()
    }
    return flat, den


@settings(max_examples=60, deadline=None)
@given(qmat_case())
def test_qmat_divide_solves_q_times_b_equals_a_to_the_truncation(case):
    model, order, B, A = case
    size, zero = model.size, (0,) * model.rank

    def product(X, Y):
        """Numerator of the product of two q-matrix series, truncated at
        `order`, its zero degrees dropped."""
        out = {}
        for Dx, x in X.items():
            for Dy, y in Y.items():
                D = tuple(a + b for a, b in zip(Dx, Dy))
                if sum(D) <= order:
                    sections._flat_mul(x, y, size, out.setdefault(D, [0] * len(x)))
        return {D: m for D, m in out.items() if any(m)}

    (B, bden), (A, aden) = _flat_over_den(B, size), _flat_over_den(A, size)
    head = B[zero]
    head_inverse = sections._integral(
        sections._invert_rational_matrix([head[i : i + size] for i in range(0, len(head), size)])
    )
    Q, qden = sections._qmat_divide(model, (A, aden), (B, bden), head_inverse, order)
    # Q * B over qden * bden against A over aden, cross-multiplied
    assert {D: [v * aden for v in m] for D, m in product(Q, B).items()} == {
        D: [v * qden * bden for v in m] for D, m in A.items() if any(m)
    }
    # with A the unit series, Q is B's two-sided inverse to the truncation
    unit = {zero: [int(e % (size + 1) == 0) for e in range(size * size)]}
    inverse, iden = sections._qmat_divide(model, (unit, 1), (B, bden), head_inverse, order)
    identity = {zero: [bden * iden * v for v in unit[zero]]}
    assert product(B, inverse) == identity
    assert product(inverse, B) == identity


# -- classical limit ----------------------------------------------------------------

# The constant-coefficient solution matrices, hand-typed from the closed form
# e^{t/h} acting by cup product (rows indexed by the dual basis).
F3_ASYMPTOTIC = {
    (1, 0): [([1, 0], -1, 1)],
    (2, 0): [([0, 1], -1, 1)],
    (3, 0): [([1, 1], -2, 1), ([2, 0], -2, Fraction(1, 2))],
    (3, 1): [([0, 1], -1, 1), ([1, 0], -1, 1)],
    (3, 2): [([1, 0], -1, 1)],
    (4, 0): [([0, 2], -2, Fraction(1, 2)), ([1, 1], -2, 1)],
    (4, 1): [([0, 1], -1, 1)],
    (4, 2): [([0, 1], -1, 1), ([1, 0], -1, 1)],
    (5, 0): [([1, 2], -3, Fraction(1, 2)), ([2, 1], -3, Fraction(1, 2))],
    (5, 1): [([0, 2], -2, Fraction(1, 2)), ([1, 1], -2, 1)],
    (5, 2): [([1, 1], -2, 1), ([2, 0], -2, Fraction(1, 2))],
    (5, 3): [([0, 1], -1, 1)],
    (5, 4): [([1, 0], -1, 1)],
}
SIGMA1_ASYMPTOTIC = {
    (1, 0): [([1, 0], -1, 1)],
    (2, 0): [([0, 1], -1, 1)],
    (3, 0): [([0, 2], -2, Fraction(1, 2)), ([1, 1], -2, 1)],
    (3, 1): [([0, 1], -1, 1)],
    (3, 2): [([0, 1], -1, 1), ([1, 0], -1, 1)],
}


def _expected_matrix_json(size, offdiag):
    out = []
    for i in range(size):
        row = []
        for k in range(size):
            if i == k:
                row.append([{"t": [0, 0], "h": [[0, "1"]]}])
            else:
                terms = offdiag.get((i, k), [])
                row.append(
                    [
                        {"t": e, "h": [[p, str(Fraction(c))]]}
                        for e, p, c in terms
                    ]
                )
        out.append(row)
    return out


@pytest.mark.parametrize(
    "name,size,offdiag",
    [("f3", 6, F3_ASYMPTOTIC), ("sigma1", 4, SIGMA1_ASYMPTOTIC)],
)
def test_asymptotic_matrix_matches_printed_table(name, size, offdiag):
    model = builtin_model(name)
    got = tpoly_matrix_json(asymptotic_H(model))
    assert got == _expected_matrix_json(size, offdiag)


def test_asymptotic_fixture_files_agree():
    import json

    from qcoh.model import data_path

    for name in ("f3", "sigma1"):
        stored = json.loads(
            data_path("%s.classical.json" % name).read_text(encoding="utf-8")
        )
        got = tpoly_matrix_json(asymptotic_H(builtin_model(name)))
        assert stored["entries"] == got


@pytest.mark.parametrize("name", ["cp1", "cp3", "f3", "sigma1"])
def test_classical_operators_annihilate_asymptotic_row(name):
    from qcoh.operators import apply_classical

    model = builtin_model(name)
    aj = asymptotic_J(model)
    for op in builtin_operators(model, defining_only=True):
        residual = apply_classical(op.q_free_part(), aj, model)
        assert not residual.c, (name, str(op))


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name", BUILTIN_NAMES + ("f3-rescaled.model", "f3-nonintegrable.model")
)
def test_asymptotic_J_is_last_row(name):
    """Entry (i, k) of the constant-coefficient matrix, as printed, is the
    b_i coordinate of e^{t/h} cup b_k, so its column 0 is the asymptotic J,
    and its last row, times <1, b_top>, is the pairing of J with b_k.
    `asymptotic_H` stores the transpose: row k holds e^{t/h} cup b_k."""
    model = load_model(GOLDEN / name) if name.endswith(".model") else builtin_model(name)
    E = asymptotic_H(model)
    aj = asymptotic_J(model)
    top = model.pairing[0][model.top]
    assert top and not any(model.pairing[0][:-1])
    zero = (0,) * model.rank
    assert set(aj.c) <= set(E)
    size = model.size
    for e, (mat, den) in E.items():
        cls = aj.c[e].coeff(zero) if e in aj.c else CohClass((0,) * size)
        for k in range(size):
            entry = HLaurent.term(Fraction(mat[k], den), -sum(e))
            assert entry == cls.coords[k], (e, k)
            want = HLaurent()
            for m, lau in enumerate(cls.coords):
                if lau and model.pairing[m][k]:
                    want = want + lau * model.pairing[m][k]
            got = HLaurent.term(Fraction(mat[k * size + model.top], den) * top, -sum(e))
            assert got == want, (e, k)


@pytest.mark.parametrize(
    "name", BUILTIN_NAMES + tuple(sorted(p.name for p in GOLDEN.glob("*.model")))
)
def test_solver_commutators_are_nilpotent(name):
    """B_j raises degree by 2, so (ad B_j)^(2 size - 1) sends every basis
    matrix to 0 and the solver's geometric sum stops by then; the bound is
    reached on cp<m>, whose b_1^m is the top class."""
    model = load_model(GOLDEN / name) if name.endswith(".model") else builtin_model(name)
    size = model.size
    steps = 0
    for commutator in sections._solver_maps(model)[0].values():
        for e in range(size * size):
            X, depth = [int(k == e) for k in range(size * size)], 0
            while any(X) and depth < 2 * size:
                X, depth = sections._flat_apply(commutator, X, [0] * (size * size)), depth + 1
            assert depth <= 2 * size - 1, (name, e)
            steps = max(steps, depth)
    assert steps == 2 * size - 1 or not cp_dimension(name), steps


@pytest.mark.parametrize(
    "name", BUILTIN_NAMES + ("cp12",) + tuple(sorted(p.name for p in GOLDEN.glob("*.model")))
)
def test_solver_resolvents_invert_step_minus_commutator(name):
    """Each pair of the commutator C_j lowers the grade
    e(i, k) = (deg b_k - deg b_i) / 2 by exactly 1, the premise of the
    scalings; then Y = post(K(pre(R))) solves (step - C_j) Y = step^(span+1) R
    exactly, for every unit vector R and step c * qden, c = 1, 2, 3."""
    model = load_model(GOLDEN / name) if name.endswith(".model") else builtin_model(name)
    area, degrees = model.size * model.size, model.degrees
    grade = [(degrees[e % model.size] - degrees[e // model.size]) // 2 for e in range(area)]
    assert max(grade) - min(grade) == max(degrees) - min(degrees)
    qden = model.quantum_rows()[0]
    commutators = sections._solver_maps(model)[0]
    resolvents = sections._resolvents(model)
    assert sorted(resolvents) == sorted(commutators) == list(range(1, model.rank + 1))
    for j, (pre, K, post, span) in resolvents.items():
        assert span == max(grade) - min(grade)
        for s, pairs in commutators[j]:
            assert all(grade[t] == grade[s] - 1 for t, _ in pairs), (j, s)
        for step, e in product((qden, 2 * qden, 3 * qden), range(area)):
            R = [int(k == e) for k in range(area)]
            Y = sections._flat_apply(K, [a * step ** p for a, p in zip(R, pre)], [0] * area)
            Y = [a * step ** p for a, p in zip(Y, post)]
            lhs = sections._flat_apply(commutators[j], Y, [step * a for a in Y], -1)
            assert lhs == [step ** (span + 1) * a for a in R], (j, step, e)


# -- descendent extraction ---------------------------------------------------------


def test_descendent_table_cp1_exact_values():
    model = builtin_model("cp1")
    Hm = solve_fundamental(model, ORDER)
    records = extract_descendents(model, Hm, ORDER)
    table = {(tuple(r["degree"]), r["level"], r["j"]): r["value"] for r in records}
    for d in range(1, ORDER + 1):
        scalar = Fraction(1, factorial(d) ** 2)
        assert table[((d,), 2 * d - 1, 1)] == scalar
        assert table[((d,), 2 * d, 0)] == -2 * harmonic(d) * scalar
    # those are the only nonzero slots
    assert len(table) == 2 * ORDER


def test_descendent_records_all_satisfy_degree_axiom():
    for name in ("cp2", "f3", "sigma1", "gr24"):
        model = builtin_model(name)
        Hm = solve_fundamental(model, 3)
        records = extract_descendents(model, Hm, 3)
        assert records, name
        for r in records:
            # deg b_j + 2n = 2(dim - 1) + 2<c_1, D>
            c1 = sum(d * c for d, c in zip(r["degree"], model.chern))
            assert model.degrees[r["j"]] + 2 * r["level"] == 2 * (model.dim - 1) + 2 * c1
            assert set(r) == {"degree", "level", "label", "j", "value"}


def test_degree_axiom_forces_known_zeros():
    model = builtin_model("cp1")
    # the only allowed two-point levels with a fundamental-class second slot
    # at degree d are n = 2d-1 (point) and n = 2d (fundamental class)
    for d in (1, 2, 3):
        assert descendent_level(model, 1, (d,)) == 2 * d - 1
        assert descendent_level(model, 0, (d,)) == 2 * d
    # deg b_1 = 2 exceeds 2(dim - 1) + deg q^0 = 0: no level at all
    assert descendent_level(model, 1, (0,)) is None


def _descendent_witness(e):
    """The witness of extract_descendents on cp1 once 3 h^e q x is added
    to J, row 1 of the solved matrix."""
    model = builtin_model("cp1")
    Hm = solve_fundamental(model, 2)
    extra = GaugeSeries(model, 2, {(1,): CohClass([HLaurent.term(3, e), 0])})
    rows = (Hm.row(0), Hm.row(1) + extra)
    with pytest.raises(CheckFailure) as info:
        extract_descendents(model, HMatrix(model, 2, rows), 2)
    assert info.value.report["check"] == "descendent-extraction"
    (witness,) = info.value.report["witnesses"]
    return witness


def test_descendent_extraction_rejects_a_nonnegative_h_power():
    assert _descendent_witness(0) == {
        "degree": [1],
        "component": "x",
        "detail": "nonnegative h power 0",
    }


def test_descendent_extraction_rejects_a_value_the_degree_axiom_forbids():
    # h^-5 is level 4 along a_1 = 1 at q^1, where the axiom allows only level 1
    assert _descendent_witness(-5) == {
        "degree": [1],
        "component": "x",
        "level": 4,
        "value": "3",
        "detail": "nonzero value where the degree axiom forces zero",
    }


def test_descendent_extraction_checks_levels_above_every_allowed_level():
    # h^-9 is level 8, above the largest level the axiom allows up to |D| = 2
    # (4, for 1 at q^2): every entry is checked, none is cut by level
    assert _descendent_witness(-9) == {
        "degree": [1],
        "component": "x",
        "level": 8,
        "value": "3",
        "detail": "nonzero value where the degree axiom forces zero",
    }
