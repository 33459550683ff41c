"""Operator application by one walk over shared theta prefixes: the walk
against termwise application of theta from its definition (cup by b_i on
HLaurent classes plus d_i * h, without the dense theta kernel), on inputs
of two weights against a copy of the earlier walk over (k, x)-keyed
dicts, the first-order-system check on rows of two weights against a copy
of the earlier check on those dicts, the number of theta steps the walk
takes, and the number of quantum products the same walk
takes for the word table and the relations, and the ring checks for
theirs; the refusal of an operator of another rank; and the one exponent
shift on t-series (apply_constq, apply_classical, and tilde's residuals
read from the quantum word table) against termwise differentiation in t,
and with `_add_term` against copies of the earlier code.  f3-rescaled
is f3 in a basis with cup denominators 2, 3 and 5, so its generator
action is integral only over a common denominator."""

import json
from fractions import Fraction
from math import factorial, lcm, prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import HLaurent, TPoly
from qcoh import operators, sections
from qcoh.model import CohClass, builtin_model, load_model
from qcoh.operators import (
    QDEOperator,
    apply_classical,
    apply_constq,
    apply_gauge,
    apply_gauge_many,
    builtin_operators,
    builtin_relations,
    builtin_rowspec,
    parse_operator,
    parse_relation,
)
from qcoh.quantum import (
    QElem,
    _exp_words,
    _report,
    check_associativity,
    check_flatness,
    eval_relation,
    exp_quantum,
)
from qcoh.sections import (
    asymptotic_J,
    build_H_from_J,
    closed_form,
    solve_fundamental,
    verify_annihilated,
)
from qcoh.series import (
    CohSeries,
    GaugeSeries,
    _add_term,
    _degrees_upto,
    _prefix_walk,
    _shift_t,
)

CLOSED_FORM_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1", "f3-rescaled")
ORDER = 4
RESCALED = Path(__file__).resolve().parent / "golden" / "f3-rescaled.model"


def model_named(name):
    """A builtin, or f3-rescaled (named f3, in the basis 2 a^2, -3 b^2, 5 z)."""
    return load_model(RESCALED) if name == "f3-rescaled" else builtin_model(name)


def reference_theta(s, i):
    """theta_i from its definition: on the q^D coefficient c, the cup
    product b_i c by ModelSpec.cup on HLaurent classes plus d_i * h * c."""
    model = s.model
    b = model.basis_class(i)
    terms = {}
    for D, cls in s.c.items():
        dh = HLaurent.term(D[i - 1], 1)
        terms[D] = CohClass(x + dh * a for x, a in zip(model.cup(b, cls).coords, cls.coords))
    return GaugeSeries(model, s.order, terms)


def reference_times(s, qdeg, scale):
    """q^qdeg * scale * s for an HLaurent scale, through the CohSeries
    constructor, which drops the degrees past the order."""
    terms = {
        tuple(a + b for a, b in zip(D, qdeg)): CohClass(scale * x for x in cls.coords)
        for D, cls in s.c.items()
    }
    return type(s)(s.model, s.order, terms)


_MONOMIALS = {}


def reference_monomial(name, word):
    """theta_{w_1} ... theta_{w_n} of the closed-form J of a model, one
    reference_theta per letter; each word is computed once per test run."""
    key = (name, word)
    if key not in _MONOMIALS:
        if word:
            _MONOMIALS[key] = reference_theta(reference_monomial(name, word[:-1]), word[-1])
        else:
            _MONOMIALS[key] = closed_form_J(name)
    return _MONOMIALS[key]


def reference_apply(op, name):
    """The termwise definition on the closed-form J of a model: theta^E
    letter by letter, theta_1 first, then the q-shift and the h-scale."""
    out = GaugeSeries(closed_form_J(name).model, ORDER, {})
    for (hexp, qdeg, thexp), v in op.c.items():
        word = tuple(i for i, e in enumerate(thexp, start=1) for _ in range(e))
        part = reference_monomial(name, word)
        out = out + reference_times(part, qdeg, HLaurent.term(v, hexp))
    return out


def theta_words(ops):
    """Every distinct nonempty prefix of the words 1^e1 2^e2 ... of the
    theta exponents of the operators' terms."""
    prefixes = set()
    for op in ops:
        for _, _, thexp in op.c:
            word = [i for i, e in enumerate(thexp, start=1) for _ in range(e)]
            prefixes.update(tuple(word[:n]) for n in range(1, len(word) + 1))
    return prefixes


_J = {}


def closed_form_J(name):
    if name not in _J:
        _J[name] = closed_form(model_named(name), ORDER)
    return _J[name]


@pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
def test_walk_matches_termwise_application_on_shipped_operators(name):
    J = closed_form_J(name)
    model = J.model
    ops = builtin_operators(model) + [op.theta_part() for op in builtin_operators(model)]
    if model.name in ("f3", "sigma1"):
        # as operators; the rows themselves are written for the builtin basis
        ops += builtin_rowspec(builtin_model(model.name))
    got = apply_gauge_many(ops, J)
    assert len(got) == len(ops)
    for op, series in zip(ops, got):
        assert isinstance(series, GaugeSeries)
        assert series.c == reference_apply(op, name).c, str(op)
        assert apply_gauge(op, J).c == series.c


def test_walk_of_no_operators_is_empty():
    assert apply_gauge_many([], closed_form_J("cp1")) == []


def test_walk_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        apply_gauge_many([parse_operator("D1", 1)], closed_form_J("f3"))


# -- (P)*(A) operators --------------------------------------------------------
# P is a constant, a term in D_i or h*D_i, and a term in q_j, q_j*D_k or
# h*q_j, with small rational coefficients; A is a shipped operator, so P*A
# annihilates J exactly, while P and A*P in general do not.

@st.composite
def coefficients(draw):
    """A nonzero p/q with q in [1, 4] and |p/q| <= 4."""
    q = draw(st.integers(1, 4))
    return Fraction(draw(st.integers(-4 * q, 4 * q).filter(bool)), q)


@st.composite
def inhomogeneous_factor(draw, rank):
    """P = c0 + c1*theta + c2*qterm, built from its drawn terms."""
    h = QDEOperator.gen_h(rank)
    i, j, k = (draw(st.integers(1, rank)) for _ in range(3))
    theta = QDEOperator.gen_theta(rank, i)
    theta = draw(st.sampled_from((theta, h * theta)))
    q = QDEOperator.gen_q(rank, j)
    qterm = draw(st.sampled_from((q, q * QDEOperator.gen_theta(rank, k), h * q)))
    c0, c1, c2 = (draw(coefficients()) for _ in range(3))
    return QDEOperator.const(rank, c0) + theta * c1 + qterm * c2


_OPERATORS = {}


def shipped_operators(name):
    if name not in _OPERATORS:
        _OPERATORS[name] = builtin_operators(closed_form_J(name).model)
    return _OPERATORS[name]


@st.composite
def model_and_operators(draw):
    name = draw(st.sampled_from(("cp1", "cp2", "f3", "sigma1", "f3-rescaled")))
    A = draw(st.sampled_from(shipped_operators(name)))
    P = draw(inhomogeneous_factor(closed_form_J(name).model.rank))
    return name, P, A


@settings(max_examples=30, deadline=None)
@given(model_and_operators())
def test_walk_matches_termwise_application_on_random_operators(case):
    name, P, A = case
    J = closed_form_J(name)
    ops = [P * A, P, A * P]
    got = apply_gauge_many(ops, J)
    assert not got[0]
    for op, series in zip(ops, got):
        assert series.c == reference_apply(op, name).c, str(op)


# -- inputs of more than one weight ----------------------------------------------
# The walk splits its input by weight u = 2x + deg b_k + deg q^D.  A J has
# one weight; J plus c*h^a*J (which every shipped operator still
# annihilates) or plus c*h*q_j*J has two, so a walk that assumed one input
# weight fails here.


def theta_flat(model, flat, i):
    """The earlier theta kernel on stored (k, x)-keyed numerators, over
    den * qden: the numerator a at (j, x) of degree D adds a * n at (k, x)
    for each (k, n) of b_i cup b_j in `ModelSpec.integral_action`, and
    a * d_i * qden at (j, x + 1) where d_i = D[i - 1]."""
    flat, den = flat
    action = model.integral_action(i)
    qden = model.quantum_rows()[0]
    out = {}
    for D, terms in flat.items():
        d = D[i - 1] * qden
        acc = {}
        for (j, x), a in terms.items():
            for k, n in action[j]:
                acc[(k, x)] = acc.get((k, x), 0) + a * n
            if d:
                acc[(j, x + 1)] = acc.get((j, x + 1), 0) + a * d
        acc = {key: n for key, n in acc.items() if n}
        if acc:
            out[D] = acc
    return out, den * qden


def dict_walk(ops, s):
    """The earlier `apply_gauge_many`, which walks the stored (k, x)-keyed
    numerators with the theta kernel `theta_flat` and adds each term by
    `_add_term`, keeping every power of h."""
    model, order = s.model, s.order
    qden = model.quantum_rows()[0]
    dens, groups = [], {}
    for pos, op in enumerate(ops):
        den = s.den
        for (hexp, qdeg, E), v in op.c.items():
            den = lcm(den, s.den * v.denominator * qden ** sum(E))
            groups.setdefault(E, []).append((pos, hexp, qdeg, v))
        dens.append(den)
    acc = [{} for _ in dens]
    walk = _prefix_walk(groups, (s.flat, s.den), lambda flat, i: theta_flat(model, flat, i))
    for E, (prefix, den) in walk:
        for pos, hexp, qdeg, v in groups[E]:
            n = v.numerator * (dens[pos] // (v.denominator * den))
            _add_term(acc[pos], prefix, n, hexp, qdeg, order)
    return [GaugeSeries._stored(model, order, out, den) for out, den in zip(acc, dens)]


def weights(s):
    degrees, qdegree = s.model.degrees, s.model.qdegree
    return {2 * x + degrees[k] + qdegree(D) for D, row in s.flat.items() for k, x in row}


@st.composite
def mixed_weight_case(draw):
    """A model, a series of two weights built from its J, whether it is
    J + c*h^a*J, and operators of mixed weight: P*A and A, which annihilate
    J + c*h^a*J, P and A*P."""
    name = draw(st.sampled_from(CLOSED_FORM_MODELS))
    J = closed_form_J(name)
    rank, c = J.model.rank, draw(coefficients())
    if central := draw(st.booleans()):
        a, qdeg = draw(st.sampled_from((-1, 1, 2))), (0,) * rank
    else:
        j = draw(st.integers(1, rank))
        a, qdeg = 1, tuple(int(i == j) for i in range(1, rank + 1))
    extra = reference_times(J, qdeg, HLaurent.term(c, a))
    A = draw(st.sampled_from(shipped_operators(name)))
    P = draw(inhomogeneous_factor(rank))
    return name, J + extra, central, [P * A, A, P, A * P]


@settings(max_examples=40, deadline=None)
@given(mixed_weight_case())
def test_walk_on_inputs_of_mixed_weight_matches_the_dict_walk(case):
    name, s, central, ops = case
    assert len(weights(s)) == 2
    got, want = apply_gauge_many(ops, s), dict_walk(ops, s)
    assert not central or not (got[0] or got[1])
    assert [(r.flat, r.den) for r in got] == [(r.flat, r.den) for r in want]
    report = json.dumps(verify_annihilated(s, ops), indent=1)
    with patch.object(sections, "apply_gauge_many", dict_walk):
        assert report == json.dumps(verify_annihilated(s, ops), indent=1)


def test_walk_on_inputs_of_mixed_weight_passes_and_fails():
    # J + h*J is still annihilated by f3's shipped operators, J + h*q1*J is not
    J = closed_form_J("f3")
    ops = shipped_operators("f3")
    for extra, status in (
        (reference_times(J, (0, 0), HLaurent.term(1, 1)), "pass"),
        (reference_times(J, (1, 0), HLaurent.term(1, 1)), "fail"),
    ):
        s = J + extra
        assert len(weights(s)) == 2
        assert verify_annihilated(s, ops)["status"] == status
        assert [r.flat for r in apply_gauge_many(ops, s)] == [r.flat for r in dict_walk(ops, s)]


# -- the first-order-system check on rows of mixed weight ---------------------
# `sections._system_report` splits each row by weight and compares both sides
# at h = 1.  Its reference is the earlier check on the stored (k, x)-keyed
# numerators: `theta_flat` on the left, the right side summed by `_add_term`.
# H + c*h^a*H solves the system and has two weights per row; one row
# bumped by c*h^a*q^B*b_k does not solve it.

SYSTEM_MODELS = CLOSED_FORM_MODELS + ("gr24",)
_H = {}


def dict_system_report(model, order, rows):
    """The earlier `_system_report`, on the stored numerators of the rows."""
    qden, table = model.quantum_rows()
    witnesses = []
    for j in range(1, model.rank + 1):
        terms = [[] for _ in rows]  # terms[k]: (D, row u, n) for each b_k coordinate of b_j o b_u
        for u, parts in enumerate(table[j]):
            for total, D, coords in parts:
                if total <= order:
                    for k, n in coords:
                        terms[k].append((D, rows[u], n))
        for i, row in enumerate(rows):
            den = qden * lcm(*(r.den for _, r, _ in terms[i]))
            rhs = {}
            for D, r, n in terms[i]:
                _add_term(rhs, r.flat, n * (den // (qden * r.den)), 0, D, order)
            want = GaugeSeries._stored(model, order, rhs, den)
            got = GaugeSeries._stored(model, order, *theta_flat(model, (row.flat, row.den), j))
            if got != want:
                witnesses.append(sections._system_witness(j, i, want, got))
    return _report("first-order-system", model, order, witnesses)


def solution_rows(name):
    """The rows of the solution matrix at ORDER: `build_H_from_J` on the
    closed form, or the solver's rows for gr24 (no closed form) and for
    f3-rescaled (the shipped row operators are written for the builtin
    basis, and its identity row is 5 times the row of the top class)."""
    if name not in _H:
        model = model_named(name)
        if name in ("gr24", "f3-rescaled"):
            _H[name] = solve_fundamental(model, ORDER).rows
        else:
            _H[name] = build_H_from_J(model, closed_form_J(name), builtin_rowspec(model)).rows
    return _H[name]


@st.composite
def mixed_weight_rows(draw):
    """The rows H + c*h^a*H, which pass, or H with row i bumped by
    c*h^a*q^B*b_k, which fails."""
    rows = solution_rows(draw(st.sampled_from(SYSTEM_MODELS)))
    model = rows[0].model
    scale = HLaurent.term(draw(coefficients()), draw(st.sampled_from((-2, -1, 1, 2, 3))))
    if draw(st.booleans()):
        zero = (0,) * model.rank
        return [row + reference_times(row, zero, scale) for row in rows], "pass"
    i, k = draw(st.integers(0, model.size - 1)), draw(st.integers(0, model.size - 1))
    B = draw(st.tuples(*[st.integers(0, 2)] * model.rank).filter(lambda B: sum(B) <= ORDER))
    bump = CohClass(scale if j == k else 0 for j in range(model.size))
    rows = list(rows)
    rows[i] += GaugeSeries(model, ORDER, {B: bump})
    return rows, "fail"


@settings(max_examples=60, deadline=None)
@given(mixed_weight_rows())
def test_system_report_on_rows_of_mixed_weight_matches_the_dict_check(case):
    rows, status = case
    model = rows[0].model
    assert status == "fail" or all(len(weights(row)) == 2 for row in rows)
    report = sections._system_report(model, ORDER, rows)
    assert report["status"] == status
    want = dict_system_report(model, ORDER, rows)
    assert json.dumps(report, indent=1) == json.dumps(want, indent=1)


# -- one theta-kernel call per distinct prefix ---------------------------------


def test_verify_annihilated_takes_one_theta_step_per_prefix(monkeypatch):
    # one dense step per distinct prefix per weight of J, and f3's J has one
    J = closed_form_J("f3")
    ops = builtin_operators(J.model)
    ops += [
        parse_operator(t, 2) * ops[0]
        for t in ("1/2 + D1 + q2*D1", "-3 + 2*h*D2 + h*q1", "1 + D2 - q1")
    ]
    calls = []
    kernel = operators._theta_at_one

    def counting(model, rows, i):
        calls.append(i)
        return kernel(model, rows, i)

    monkeypatch.setattr(operators, "_theta_at_one", counting)
    report = verify_annihilated(J, ops)
    assert report["status"] == "pass"
    assert len(calls) == len(theta_words(ops))
    assert len(calls) < sum(sum(e) for op in ops for _, _, e in op.c)


@pytest.fixture
def products(monkeypatch):
    """The list that gets one entry per QElem product: a product of two
    elements (`QElem.__mul__`) or by one basis element (`QElem.times`)."""
    calls = []
    for name in ("__mul__", "times"):
        method = getattr(QElem, name)

        def counting(a, b, method=method):
            calls.append(1)
            return method(a, b)

        monkeypatch.setattr(QElem, name, counting)
    return calls


def test_word_table_takes_one_product_per_word(products):
    # every nonzero e with |e| <= t-order is a distinct prefix
    for name, torder, want in (("f3", 8, 44), ("sigma1", 9, 54), ("gr24", 10, 10)):
        products.clear()
        _exp_words(builtin_model(name), 3, torder)
        assert len(products) == want, name


def test_ring_checks_take_one_product_per_column_and_per_side(products):
    # f3 (rank 2, size 6): associativity 15 pairs b_j o b_k (1 <= j <= k)
    # and two products for each of the 35 triples; flatness 12 columns
    # b_j o b_l and 12 columns of the one commutator
    model = builtin_model("f3")
    for check, want in ((check_associativity, 85), (check_flatness, 24)):
        for order in (0, 3, 6):
            products.clear()
            assert check(model, order)["status"] == "pass"
            assert len(products) == want, (check.__name__, order)


@pytest.mark.parametrize("name", ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1", "gr24"))
def test_relation_takes_one_product_per_prefix(name, products):
    model = builtin_model(name)
    factor = parse_relation("1/2 + b1 + q%d" % model.rank, model.rank)
    for rel in builtin_relations(model):
        for r in (rel, factor * rel):
            products.clear()
            assert not eval_relation(model, r, 4), str(r)
            assert len(products) == len(theta_words([r])), str(r)


# operators of rank 1 and 3, neither the rank 2 of f3: a relation, a q-free
# operator and one with a q-shift
OTHER_RANK = {
    1: ("b1^2 - q1", "D1^2", "D1^2 - q1*D1"),
    3: ("b1^2 - q1*b3", "D1^2 - D3", "D1^2 - q1*D3"),
}


@pytest.mark.parametrize(
    "entry", ("eval_relation", "apply_classical", "apply_constq")
)
@pytest.mark.parametrize("rank", (1, 3))
def test_word_and_t_series_appliers_refuse_another_rank(rank, entry):
    model = builtin_model("f3")
    rel, classical, constq = OTHER_RANK[rank]
    calls = {
        "eval_relation": lambda: eval_relation(model, parse_relation(rel, rank), 3),
        "apply_classical": lambda: apply_classical(
            parse_operator(classical, rank), asymptotic_J(model), model
        ),
        "apply_constq": lambda: apply_constq(
            parse_operator(constq, rank), exp_quantum(model, 4, 3), model
        ),
    }
    with pytest.raises(ValueError, match="rank mismatch"):
        calls[entry]()


# -- the exponent shift on t-series ------------------------------------------


def termwise_t(op, tp):
    """The termwise definition on a t-polynomial: theta_i = h d/dt_i by
    polynomial differentiation and a product by h for every letter, then
    the q-shift and the scale by HLaurent.term(v, hexp)."""
    zero = (0,) * tp.nvars
    out = {}
    for (hexp, qdeg, thexp), v in op.c.items():
        part = tp.c
        for i, e in enumerate(thexp, start=1):
            for _ in range(e):
                part = {
                    t[: i - 1] + (n - 1,) + t[i:]: reference_times(cs, zero, HLaurent.term(n, 1))
                    for t, cs in part.items()
                    if (n := t[i - 1])
                }
        for t, cs in part.items():
            cs = reference_times(cs, qdeg, HLaurent.term(v, hexp))
            out[t] = out[t] + cs if t in out else cs
    return TPoly(tp.nvars, out)


T_ORDER, T_NOVIKOV = 5, 2
_T_SERIES = {}


def t_series(name):
    """exp_quantum and asymptotic_J of a builtin, built once per name."""
    if name not in _T_SERIES:
        model = model_named(name)
        _T_SERIES[name] = (
            model,
            exp_quantum(model, T_ORDER, T_NOVIKOV),
            asymptotic_J(model),
        )
    return _T_SERIES[name]


@st.composite
def t_operator(draw, rank, q_free):
    """An operator of one to four drawn terms v * h^a * q^Q * theta^E with
    a in [0, 3], theta letters repeated up to 3 times and, unless q-free,
    q-shifts up to T_NOVIKOV + 1, so some land past the truncation."""
    top = 0 if q_free else T_NOVIKOV + 1
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (
            draw(st.integers(0, 3)),
            tuple(draw(st.integers(0, top)) for _ in range(rank)),
            tuple(draw(st.integers(0, 3)) for _ in range(rank)),
        )
        terms[key] = draw(coefficients())
    return QDEOperator(rank, terms)


@st.composite
def t_case(draw, q_free):
    name = draw(st.sampled_from(("cp1", "cp3", "f3", "sigma1", "gr24", "f3-rescaled")))
    return name, draw(t_operator(t_series(name)[0].rank, q_free))


@settings(max_examples=40, deadline=None)
@given(t_case(q_free=False))
def test_constq_walk_matches_termwise_application(case):
    name, op = case
    model, tp, _ = t_series(name)
    got = apply_constq(op, tp, model)
    assert got == termwise_t(op, tp), str(op)
    assert all(type(cs) is CohSeries for cs in got.c.values())


@settings(max_examples=40, deadline=None)
@given(t_case(q_free=True))
def test_classical_walk_matches_termwise_application(case):
    name, op = case
    model, _, aj = t_series(name)
    assert apply_classical(op, aj, model) == termwise_t(op, aj), str(op)


# operators that annihilate no quantum exponential, with h, q-shifts past
# the truncation, rational coefficients and mixed theta words
NON_ANNIHILATING = {
    1: ("D1", "D1^2 - 1/3*h*q1*D1 + 2", "h^2*D1^3 + q1^3 - 5/2*D1 + q1*D1^4"),
    2: (
        "D1*D2 - 2*q2*D1^2 + h",
        "3/4*D2^3 - h*q1*D2 + 1/5*D1 - 7",
        "D1^2*D2^2 + q1*q2*D1 - 1/6*h^3*D2",
    ),
}


@pytest.mark.parametrize("name", ("cp1", "cp5", "f3", "sigma1", "gr24", "f3-rescaled"))
def test_tilde_word_table_residuals_match_termwise_application(name):
    # the call of `qcoh tilde`: the shift on the word table, up to the bound
    model = model_named(name)
    words = _exp_words(model, T_NOVIKOV, T_ORDER)
    tp = exp_quantum(model, T_ORDER, T_NOVIKOV)
    for text in NON_ANNIHILATING[model.rank]:
        op = parse_operator(text, model.rank)
        bound = T_ORDER - op.theta_degree()
        targets = _degrees_upto(model.rank, bound)
        got = _shift_t(op.c.items(), words, targets, model, T_NOVIKOV)
        want = {e: cs for e, cs in termwise_t(op, tp).c.items() if sum(e) <= bound}
        assert got and got == want, text
        assert list(got) == sorted(got, key=lambda e: (sum(e), e))


# -- the t-shift and `_add_term` against the code they replaced -----------------


def reference_add_term(acc, flat, n, hexp, qdeg, order):
    """The earlier `_add_term`: acc += n * h^hexp * q^qdeg * flat on
    numerators, zeros kept, degrees past the order dropped."""
    for D, terms in flat.items():
        if any(qdeg):
            D = tuple(a + b for a, b in zip(D, qdeg))
            if sum(D) > order:
                continue
        out = acc.setdefault(D, {})
        for (k, x), a in terms.items():
            key = (k, x + hexp)
            out[key] = out[key] + a * n if key in out else a * n
    return acc


def reference_shift_t(terms, ft, targets, model, order):
    """The earlier `_shift_t`: every target stored, then kept when the
    stored series is not zero."""
    terms = [(a + sum(E), Q, E, v) for (a, Q, E), v in terms]
    out = {}
    for f in targets:
        parts = [
            (pair, a, Q, v)
            for a, Q, E, v in terms
            if (pair := ft.get(tuple(x + y for x, y in zip(f, E))))
        ]
        den = lcm(*(d * v.denominator for (_, d), _, _, v in parts))
        acc = {}
        for (flat, d), a, Q, v in parts:
            reference_add_term(acc, flat, v.numerator * (den // (d * v.denominator)), a, Q, order)
        if cs := CohSeries._stored(model, order, acc, den * prod(map(factorial, f))):
            out[f] = cs
    return out


def reference_constq(op, tp, model):
    """The earlier `apply_constq`, through the two copies above."""
    order = next((cs.order for cs in tp.c.values()), 0)
    ft = {
        e: (reference_add_term({}, cs.flat, prod(map(factorial, e)), 0, (), order), cs.den)
        for e, cs in tp.c.items()
    }
    thetas = {E for _, _, E in op.c}
    targets = {
        tuple(x - y for x, y in zip(e, E))
        for e in ft for E in thetas if all(x >= y for x, y in zip(e, E))
    }
    return TPoly(tp.nvars, reference_shift_t(op.c.items(), ft, targets, model, order))


@st.composite
def shift_case(draw, q_free):
    """A model and an operator: a drawn one (which annihilates nothing in
    general), a shipped defining operator, or, q-free, the q-free part of
    one times a drawn q-free factor (which annihilates the classical J)."""
    name = draw(st.sampled_from(("cp1", "cp3", "f3", "sigma1", "gr24", "f3-rescaled")))
    model = t_series(name)[0]
    kind = draw(st.sampled_from(("drawn", "shipped", "factor")))
    if kind == "drawn" or name == "gr24":  # gr24 ships no operators
        return name, draw(t_operator(model.rank, q_free))
    op = draw(st.sampled_from(builtin_operators(model, defining_only=True)))
    if q_free:
        op = op.q_free_part()
    if kind == "factor":
        op = draw(t_operator(model.rank, True)) * op
    return name, op


@settings(max_examples=40, deadline=None)
@given(shift_case(q_free=False))
def test_constq_matches_the_reference_shift(case):
    name, op = case
    model, tp, _ = t_series(name)
    got = apply_constq(op, tp, model)
    assert got == reference_constq(op, tp, model), str(op)
    assert all(got.c.values())


@settings(max_examples=40, deadline=None)
@given(shift_case(q_free=True))
def test_classical_matches_the_reference_shift(case):
    name, op = case
    model, _, aj = t_series(name)
    got = apply_classical(op, aj, model)
    assert got == reference_constq(op, aj, model), str(op)
    assert all(got.c.values())


@settings(max_examples=40, deadline=None)
@given(shift_case(q_free=False))
def test_shift_t_on_the_word_table_stores_no_zero(case):
    # every target up to the t-order, so the residuals of a shipped
    # operator cancel below its bound and not above it
    name, op = case
    model = t_series(name)[0]
    words = _exp_words(model, T_NOVIKOV, T_ORDER)
    targets = _degrees_upto(model.rank, T_ORDER)
    got = _shift_t(op.c.items(), words, targets, model, T_NOVIKOV)
    assert got == reference_shift_t(op.c.items(), words, targets, model, T_NOVIKOV), str(op)
    assert all(got.values())
    assert all(cs.flat and all(all(row.values()) for row in cs.flat.values()) for cs in got.values())


def test_shipped_operators_leave_no_residual_below_their_bound():
    for name in ("cp1", "cp3", "f3", "sigma1", "f3-rescaled"):
        model = t_series(name)[0]
        words = _exp_words(model, T_NOVIKOV, T_ORDER)
        for op in builtin_operators(model, defining_only=True):
            low = _degrees_upto(model.rank, T_ORDER - op.theta_degree())
            assert _shift_t(op.c.items(), words, low, model, T_NOVIKOV) == {}, str(op)


flat_rows = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(-2, 2)), st.integers(-3, 3), max_size=4
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    flat_rows,
    flat_rows,
    st.integers(-4, 4),
    st.integers(-2, 2),
    st.sampled_from(((), (0, 0), (1, 0), (0, 2), (1, 1))),
    st.integers(0, 4),
)
def test_add_term_matches_the_reference(acc, flat, n, hexp, qdeg, order):
    # zeros included, in acc, in flat and as n: both keep them
    want = reference_add_term({D: dict(row) for D, row in acc.items()}, flat, n, hexp, qdeg, order)
    got = _add_term(acc, flat, n, hexp, qdeg, order)
    assert got is acc and got == want
