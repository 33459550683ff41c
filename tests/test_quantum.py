"""Quantum products, multiplication matrices, flatness/associativity, ring
relations, and the quantum exponential."""

import itertools
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import HLaurent, NovikovSeries, TPoly, format_rational
from qcoh.model import (
    BUILTIN_NAMES,
    CohClass,
    InvalidModel,
    ModelSpec,
    builtin_model,
    load_model,
)
from qcoh.operators import RelPoly, builtin_relations, parse_relation
from qcoh.quantum import (
    QElem,
    check_associativity,
    check_flatness,
    eval_relation,
    exp_quantum,
)
from qcoh.sections import hypergeometric_factors
from qcoh.series import CohSeries
from reference_tables import model_json, product_tables

ORDER = 6
GOLDEN = Path(__file__).resolve().parent / "golden"

# -- oracle data ---------------------------------------------------------------
# Multiplication matrices of the two degree-2 generators of the flag manifold,
# basis (1, a, b, a^2, b^2, z); entry (row k, col i) = coefficient of basis k
# in generator o basis_i, as {q-degree: coefficient}.
F3_M1 = {
    (0, 1): {(1, 0): 1},
    (0, 5): {(1, 1): 1},
    (1, 0): {(0, 0): 1},
    (2, 3): {(1, 0): 1},
    (3, 1): {(0, 0): 1},
    (3, 2): {(0, 0): 1},
    (4, 2): {(0, 0): 1},
    (4, 5): {(1, 0): 1},
    (5, 4): {(0, 0): 1},
}
F3_M2 = {
    (0, 2): {(0, 1): 1},
    (0, 5): {(1, 1): 1},
    (1, 4): {(0, 1): 1},
    (2, 0): {(0, 0): 1},
    (3, 1): {(0, 0): 1},
    (3, 5): {(0, 1): 1},
    (4, 1): {(0, 0): 1},
    (4, 2): {(0, 0): 1},
    (5, 3): {(0, 0): 1},
}

# Hirzebruch surface, basis (1, x1, x4, z); note the -q1 diagonal entry.
SIGMA1_M1 = {
    (0, 3): {(1, 1): 1},
    (1, 0): {(0, 0): 1},
    (1, 1): {(1, 0): -1},
    (2, 1): {(1, 0): 1},
    (3, 2): {(0, 0): 1},
}
SIGMA1_M2 = {
    (0, 2): {(0, 1): 1},
    (0, 3): {(1, 1): 1},
    (1, 3): {(0, 1): 1},
    (2, 0): {(0, 0): 1},
    (3, 1): {(0, 0): 1},
    (3, 2): {(0, 0): 1},
}


def generator_matrix(model, j):
    """b_j o -, as {(k, i): {D: c}} for the b_k coefficient of b_j o b_i."""
    qden, table = model.quantum_rows()
    got = {}
    for i, terms in enumerate(table[j]):
        for _, D, coords in terms:
            for k, n in coords:
                got.setdefault((k, i), {})[D] = Fraction(n, qden)
    return got


@pytest.mark.parametrize(
    "name,oracles",
    [("f3", (F3_M1, F3_M2)), ("sigma1", (SIGMA1_M1, SIGMA1_M2))],
)
def test_generator_matrices_match_printed_tables(name, oracles):
    model = builtin_model(name)
    for j, oracle in enumerate(oracles, start=1):
        assert generator_matrix(model, j) == oracle, (name, j)


# -- the quantum Monk rule (Fomin, Gelfand and Postnikov, J. AMS 10, 1997) -----
# f3's basis (1, a, b, a^2, b^2, z) as Schubert classes of permutations of
# S_3 in one-line notation; b_r is the class of s_r, and q_r goes with s_r.
F3_SCHUBERT = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1))


def _length(w):
    return sum(1 for x, y in itertools.combinations(w, 2) if x > y)


def monk_matrix(perms, r):
    """sigma_{s_r} o -, as {(k, i): {D: c}}: sigma_{s_r} sigma_w is the sum
    of sigma_{w t_ab} over a <= r < b, with coefficient 1 when
    l(w t_ab) = l(w) + 1 and q_a ... q_{b-1} when l(w t_ab) = l(w) - 2(b - a) + 1."""
    n = len(perms[0])
    out = {}
    for i, w in enumerate(perms):
        for a, b in itertools.product(range(1, r + 1), range(r + 1, n + 1)):
            v = list(w)
            v[a - 1], v[b - 1] = v[b - 1], v[a - 1]
            if _length(v) == _length(w) + 1:
                D = (0,) * (n - 1)
            elif _length(v) == _length(w) - 2 * (b - a) + 1:
                D = tuple(int(a <= c < b) for c in range(1, n))
            else:
                continue
            cell = out.setdefault((perms.index(tuple(v)), i), {})
            cell[D] = cell.get(D, 0) + 1
    return out


@pytest.mark.parametrize("r", [1, 2])
def test_f3_generator_rows_follow_the_quantum_monk_rule(r):
    assert generator_matrix(builtin_model("f3"), r) == monk_matrix(F3_SCHUBERT, r)


# -- Gr_2(C^4) product chain -----------------------------------------------------


def _gr24_elem(model, coeffs, qdeg=(0,)):
    """Element sum coeffs[label] * q^qdeg * b_label."""
    out = QElem.zero(model, ORDER)
    for label, c in coeffs.items():
        k = model.labels.index(label)
        out = out + QElem.basis(model, ORDER, k).shifted(qdeg).scaled(Fraction(c))
    return out


def test_gr24_products_of_the_degree_two_class():
    model = builtin_model("gr24")
    a = QElem.basis(model, ORDER, 1)
    aa = a * a
    aaa = aa * a
    # a o a o a = 2 d
    assert aaa == _gr24_elem(model, {"d": 2})
    # a o a o b = z + q and a o a o c = z + q
    b = QElem.basis(model, ORDER, 2)
    c = QElem.basis(model, ORDER, 3)
    zq = _gr24_elem(model, {"z": 1}) + _gr24_elem(model, {"1": 1}, qdeg=(1,))
    assert aa * b == zq
    assert aa * c == zq
    # a o d = z + q
    d = QElem.basis(model, ORDER, 4)
    assert a * d == zq
    # a o a o a o a = 2 z + 2 q
    assert aaa * a == zq.scaled(Fraction(2))


def test_gr24_fifth_power_two_ways():
    model = builtin_model("gr24")
    a = QElem.basis(model, ORDER, 1)
    want = _gr24_elem(model, {"a": 4}, qdeg=(1,))  # 4 q a
    # direct left multiplication
    direct = a
    for _ in range(4):
        direct = a * direct
    assert direct == want
    # through the degree-6 class: a^{o3} = 2d, then (2d) o (a o a)
    aaa = (a * a) * a
    assert aaa * (a * a) == want


def test_gr24_relation_from_file():
    model = builtin_model("gr24")
    (rel,) = builtin_relations(model)
    assert not eval_relation(model, rel, ORDER).c


# -- general structure ------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flatness(name):
    report = check_flatness(builtin_model(name), ORDER)
    assert report["status"] == "pass", report["witnesses"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_associativity(name):
    report = check_associativity(builtin_model(name), ORDER)
    assert report["status"] == "pass", report["witnesses"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_relations_vanish(name):
    model = builtin_model(name)
    for rel in builtin_relations(model):
        value = eval_relation(model, rel, ORDER)
        assert not value.c, (name, str(rel), value.describe())


# Batyrev's relations, read from the charges of the hypergeometric factors
# (x, c, p) alone: for each q_r, the product of x^(c_r p) over the factors
# with c_r p > 0 equals q_r times the product of x^(-c_r p) over those with
# c_r p < 0.  They read no table and no .rel file, so they check the table.


def charge_relations(model):
    rank = model.rank
    zero = (0,) * rank

    def unit(r):
        return tuple(int(j == r) for j in range(rank))

    rels = []
    for r in range(rank):
        lhs = RelPoly(rank, {(zero, zero): 1})
        rhs = RelPoly(rank, {(unit(r), zero): 1})
        for row, charge, power in hypergeometric_factors(model):
            # the class row {i: c} of the factor is sum_i c b_i, b_i = basis[i]
            x = RelPoly(rank, {(zero, unit(i - 1)): c for i, c in row.items()})
            e = charge[r] * power
            if e > 0:
                lhs = lhs * x**e
            elif e < 0:
                rhs = rhs * x**-e
        rels.append(lhs - rhs)
    return rels


@pytest.mark.parametrize(
    "name, texts",
    [
        ("cp3", ["b1^4 - q1"]),
        ("f3", ["b1^3 - q1*b1 - q1*b2", "b2^3 - q2*b1 - q2*b2"]),
        ("sigma1", ["b1^2 + q1*b1 - q1*b2", "b2^2 - b1*b2 - q2"]),
    ],
)
def test_charge_relations_read_from_the_factors(name, texts):
    model = builtin_model(name)
    assert charge_relations(model) == [parse_relation(t, model.rank) for t in texts]


@pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"])
def test_charge_relations_vanish(name):
    model = builtin_model(name)
    for rel in charge_relations(model):
        value = eval_relation(model, rel, ORDER)
        assert not value.c, (name, str(rel), value.describe())


def _q1_doubled(data):
    for rec in data["quantum"]:
        rec["c"] = format_rational(Fraction(rec["c"]) * 2 ** rec["D"][0])


def _q1_q2_swapped(data):
    for rec in data["quantum"]:
        rec["D"] = rec["D"][::-1]


@pytest.mark.parametrize(
    "name, mutate",
    [("sigma1", _q1_doubled), ("f3", _q1_doubled), ("f3", _q1_q2_swapped)],
)
def test_charge_relations_fail_on_valid_table_mutants(name, mutate):
    data = builtin_model(name).to_json()
    mutate(data)
    model = ModelSpec.from_json(data)
    assert any(eval_relation(model, rel, ORDER) for rel in charge_relations(model))


def test_flatness_fails_on_deformed_product():
    from qcoh.model import ModelSpec

    data = builtin_model("f3").to_json()
    for rec in data["quantum"]:
        if rec["D"] == [1, 0] and rec["c"] == "1":
            rec["c"] = "2"
            break
    broken = ModelSpec.from_json(data)
    bad_flat = check_flatness(broken, 4)["status"] == "fail"
    bad_assoc = check_associativity(broken, 4)["status"] == "fail"
    assert bad_flat or bad_assoc


# -- flatness against the dense matrix reference ----------------------------------


def _mult_matrix(model, quantum, j, order):
    """The multiplication matrix of b_j as dense NovikovSeries entries:
    column i holds the q-expansion of b_j o b_i from the reference quantum
    table (`product_tables`)."""
    size = model.size
    entries = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for D, coords in quantum[(j, i)].items():
            for k, v in coords.items():
                entries[k][i][D] = v
    return [[NovikovSeries(model.rank, order, c) for c in row] for row in entries]


def _series_sum(rank, order, terms):
    c = {}
    for s in terms:
        for d, v in s.c.items():
            c[d] = c.get(d, 0) + v
    return NovikovSeries(rank, order, c)


def _mat_mul(a, b, rank, order):
    return [
        [
            _series_sum(rank, order, (x * b[u][i] for u, x in enumerate(row) if x and b[u][i]))
            for i in range(len(b))
        ]
        for row in a
    ]


def _weighted(s, i):
    """The q^d term of s times d_i: the Euler field d/dt_i on q^d."""
    return NovikovSeries(s.rank, s.order, {d: d[i - 1] * v for d, v in s.c.items()})


def _reference_flatness(model, data, order):
    """The flatness report computed on dense matrices of series, read from
    the model's JSON `data`: the products M_i M_j and M_j M_i entry by
    entry, then the q-derivatives."""
    size, rank = model.size, model.rank
    quantum = product_tables(data)[1]
    mats = {j: _mult_matrix(model, quantum, j, order) for j in range(1, rank + 1)}
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    witnesses = []
    for i, j in pairs:
        ab = _mat_mul(mats[i], mats[j], rank, order)
        ba = _mat_mul(mats[j], mats[i], rank, order)
        for k, l in itertools.product(range(size), repeat=2):
            if ab[k][l] != ba[k][l]:
                detail = "%s vs %s" % (ab[k][l], ba[k][l])
                witnesses.append({"identity": "[M%d, M%d]" % (i, j), "entry": [k, l], "detail": detail})
    for i, j in pairs:
        for k, l in itertools.product(range(size), repeat=2):
            lhs, rhs = _weighted(mats[j][k][l], i), _weighted(mats[i][k][l], j)
            if lhs != rhs:
                witnesses.append(
                    {
                        "identity": "d_%d M_%d = d_%d M_%d" % (i, j, j, i),
                        "entry": [k, l],
                        "detail": "%s vs %s" % (lhs, rhs),
                    }
                )
    status = "pass" if not witnesses else "fail"
    return {"check": "flatness", "model": model.name, "order": order, "status": status, "witnesses": witnesses}


def _deformed_f3():
    """The JSON of f3 with the first q1-coefficient 1 doubled, as in
    test_flatness_fails_on_deformed_product."""
    data = model_json("f3")
    rec = next(r for r in data["quantum"] if r["D"] == [1, 0] and r["c"] == "1")
    rec["c"] = "2"
    return data


def test_noncommutative_table_is_refused():
    # f3 whose b_2 o b_1 has the graded term q1 b_0 that b_1 o b_2 lacks
    data = model_json("f3")
    swapped = [dict(r, i=r["j"], j=r["i"]) for r in data["quantum"] if (r["i"], r["j"]) == (1, 2)]
    swapped.append({"i": 2, "j": 1, "k": 0, "D": [1, 0], "c": "1"})
    data["quantum"] += swapped
    with pytest.raises(InvalidModel) as info:
        ModelSpec.from_json(data)
    assert info.value.problems == [
        "quantum product not commutative at (1,2)",
        "quantum product not commutative at (2,1)",
    ]


FLATNESS_CASES = [(name, n) for name in BUILTIN_NAMES for n in (3, 4, 5)] + [
    (name + ".model", 4)
    for name in ("f3-rescaled", "f3-nonintegrable", "f3-q1-doubled", "p1xp1-no-q2")
] + [("deformed-f3", 4)]


@pytest.mark.parametrize("name,order", FLATNESS_CASES)
def test_flatness_report_matches_the_dense_reference(name, order):
    if name.endswith(".model"):
        model, data = load_model(GOLDEN / name), model_json(name[: -len(".model")])
    elif name == "deformed-f3":
        data = _deformed_f3()
        model = ModelSpec.from_json(data)
    else:
        model, data = builtin_model(name), model_json(name)
    assert check_flatness(model, order) == _reference_flatness(model, data, order)


def test_quantum_product_commutes_and_unit():
    model = builtin_model("sigma1")
    basis = [QElem.basis(model, ORDER, i) for i in range(model.size)]
    one = QElem.unit(model, ORDER)
    for x, y in itertools.product(basis, repeat=2):
        assert x * y == y * x
    for x in basis:
        assert one * x == x


def test_quantum_monomial_with_q_shift():
    model = builtin_model("cp1")
    # q1 * x in the ring: x^3 = q1 x, and q1 o x is x shifted by q1
    q = QElem.unit(model, ORDER).shifted((1,))
    qx = QElem.basis(model, ORDER, 1).shifted((1,))
    assert q * QElem.basis(model, ORDER, 1) == qx
    assert eval_relation(model, parse_relation("b1^3", 1), ORDER) == qx
    assert eval_relation(model, parse_relation("q1*b1", 1), ORDER) == qx


def test_shifted_refuses_a_shift_that_is_not_a_multidegree():
    # a negative entry stored q^(-1, 0), a short shift a rank-1 key and a
    # long one dropped its extra entries
    f3, cp1 = builtin_model("f3"), builtin_model("cp1")
    assert QElem.unit(f3, 2).shifted((1, 1)).coeff((1, 1)) == f3.basis_class(0)
    for model, shift in ((f3, (-1, 0)), (f3, (1,)), (cp1, (1, 5)), (cp1, (1.0,))):
        with pytest.raises(ValueError, match="bad multidegree"):
            QElem.unit(model, 2).shifted(shift)


def test_basis_refuses_an_index_outside_the_basis():
    # -1 would name no class in the output but multiply like the top class
    model = builtin_model("f3")
    assert QElem.basis(model, 2, 5).coeff((0, 0)) == model.basis_class(5)
    for i in (-1, 6):
        with pytest.raises(ValueError, match="basis element"):
            QElem.basis(model, 2, i)


def test_open_connection_form_is_a_check_failure():
    # b_1 o b_5 = 2 q1 q2 instead of q1 q2: graded and commutative, so the
    # model validates, but the connection form is not closed at q1 q2 (d_1
    # M_2 and d_2 M_1 differ at entry (0, 5)), M_1 and M_2 do not commute,
    # and the product is not associative
    data = builtin_model("f3").to_json()
    (rec,) = [r for r in data["quantum"] if (r["i"], r["j"], r["D"]) == (1, 5, [1, 1])]
    rec["c"] = "2"
    model = ModelSpec.from_json(data)
    report = check_flatness(model, ORDER)
    assert report["status"] == "fail"
    first, *_, closed = report["witnesses"]
    assert (first["identity"], first["entry"]) == ("[M1, M2]", [0, 3])
    assert (closed["identity"], closed["entry"]) == ("d_1 M_2 = d_2 M_1", [0, 5])
    assert closed["detail"] == "1*q1*q2 vs 2*q1*q2"
    report = check_associativity(model, ORDER)
    assert report["status"] == "fail"
    assert report["witnesses"][0]["triple"] == [1, 1, 4]


def test_exp_quantum_cp1_coefficients():
    model = builtin_model("cp1")
    tp = exp_quantum(model, 4, ORDER)
    # t^2/2: x o x = q, so the coefficient is q/(2 h^2) on the unit
    cs = tp.c[(2,)]
    lau = cs.c[(1,)].coords[0]
    assert lau.c == {-2: Fraction(1, 2)}
    # t^3/6: x o x o x = q x, so q/(6 h^3) on x
    cs = tp.c[(3,)]
    lau = cs.c[(1,)].coords[1]
    assert lau.c == {-3: Fraction(1, 6)}
    # t^0 coefficient is the unit itself
    cs = tp.c[(0,)]
    assert cs.c[(0,)].coords[0].c == {0: Fraction(1)}


def test_exp_quantum_f3_mixed_term():
    model = builtin_model("f3")
    tp = exp_quantum(model, 3, 4)
    # t1 t2 coefficient: (a o b)/h^2; a o b = a^2 + b^2 at q^0
    cs = tp.c[(1, 1)]
    cls = cs.c[(0, 0)]
    assert cls.coords[3].c == {-2: Fraction(1)}
    assert cls.coords[4].c == {-2: Fraction(1)}


def exp_quantum_from_scratch(model, torder, order, gens_order):
    """sum_e (1 o g^e) t^e / (e! h^|e|), each product multiplied out from
    the unit, left to right, with the generators in `gens_order`."""
    rank = model.rank
    coeffs = {}
    for e in itertools.product(range(torder + 1), repeat=rank):
        if sum(e) > torder:
            continue
        elem = QElem.unit(model, order)
        for i in gens_order:
            for _ in range(e[i - 1]):
                elem = elem * QElem.basis(model, order, i)
        scale = HLaurent.term(Fraction(1, prod(map(factorial, e))), -sum(e))
        coeffs[e] = CohSeries(
            model, order, {D: CohClass(scale * a for a in cls.coords) for D, cls in elem.c.items()}
        )
    return TPoly(rank, coeffs)


def test_exp_quantum_keeps_the_product_order_of_a_non_associative_model():
    # f3 with one quantum coefficient doubled: valid, but not associative,
    # so the products for t^e depend on how they are bracketed
    path = Path(__file__).resolve().parent / "golden" / "f3-nonintegrable.model"
    model = load_model(path)
    assert check_associativity(model, 4)["status"] == "fail"
    got = exp_quantum(model, 5, 4)
    assert got == exp_quantum_from_scratch(model, 5, 4, (1, 2))
    assert got != exp_quantum_from_scratch(model, 5, 4, (2, 1))


# -- the fraction-free product against the dense Fraction product --------------

# f3-rescaled has quantum structure constants with denominators 2, 3 and 5
PRODUCT_MODELS = ("cp2", "f3", "sigma1", "gr24", "f3-rescaled")


def _product_model(name):
    if name == "f3-rescaled":
        return load_model(GOLDEN / "f3-rescaled.model")
    return builtin_model(name)


def _dense_product(name, model, order, x, y):
    """x o y for x, y of the form {D: [Fraction] * size}: for every pair of
    nonzero coordinates, every q-term of b_i o b_j in the quantum table of
    the model's JSON scaled and added over all coordinates, truncated at
    `order`; zero classes left out."""
    quantum = product_tables(model_json(name))[1]
    out = {}
    for (D1, c1), (D2, c2) in itertools.product(x.items(), y.items()):
        for (i, xi), (j, yj) in itertools.product(enumerate(c1), enumerate(c2)):
            if not (xi and yj):
                continue
            for Dq, coords in quantum[(i, j)].items():
                nd = tuple(a + b + c for a, b, c in zip(D1, D2, Dq))
                if sum(nd) > order:
                    continue
                acc = out.setdefault(nd, [Fraction(0)] * model.size)
                for k, c in coords.items():
                    acc[k] += xi * yj * c
    return {D: CohClass(v) for D, v in out.items() if any(v)}


def _assert_canonical(elem):
    nums = [v for row in elem.flat.values() for v in row.values()]
    assert all(type(v) is int and v for v in nums)
    assert type(elem.den) is int and elem.den > 0
    assert gcd(elem.den, *nums) == 1
    assert elem.den == 1 or nums


@st.composite
def product_case(draw):
    name = draw(st.sampled_from(PRODUCT_MODELS))
    model = _product_model(name)
    order = draw(st.integers(0, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def element():
        out = {}
        degree = st.tuples(*[st.integers(0, order)] * model.rank)
        for D, k, c in draw(
            st.lists(
                st.tuples(degree, st.integers(0, model.size - 1), coeff), max_size=4
            )
        ):
            if sum(D) <= order:
                out.setdefault(D, [Fraction(0)] * model.size)[k] += c
        return out

    return name, model, order, element(), element()


@settings(max_examples=150, deadline=None)
@given(product_case())
def test_product_matches_the_dense_fraction_product(case):
    name, model, order, x, y = case
    ex, ey = (
        QElem(model, order, {D: CohClass(v) for D, v in e.items()}) for e in (x, y)
    )
    got = ex * ey
    assert got.c == _dense_product(name, model, order, x, y)
    for elem in (ex, ey, got):
        _assert_canonical(elem)


@pytest.mark.parametrize("name", PRODUCT_MODELS)
def test_qelem_is_canonical(name):
    model = _product_model(name)
    gen, top = QElem.basis(model, 4, 1), QElem.basis(model, 4, model.top)
    x = gen * top + gen.scaled(Fraction(2, 3)) + top.shifted((1,) * model.rank)
    _assert_canonical(x)
    assert x.scaled(6).scaled(Fraction(1, 6)) == x
    assert x.scaled(Fraction(1, 5)) * gen.scaled(5) == x * gen
    zero = x - x
    assert not zero and zero == QElem.zero(model, 4) and zero.den == 1
    # b_1 o b_top has only q-terms: at order 0 the truncated product is 0
    assert gen * top
    low = QElem.basis(model, 0, 1) * QElem.basis(model, 0, model.top)
    assert not low and low == QElem.zero(model, 0)
