"""Differential-operator algebra: parsing, normal ordering, application to
sections, and `eval_relation` of operators to ring relations."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoh
from qcoh.algebra import HLaurent
from qcoh.cli import main
from qcoh.model import CP_MAX, builtin_model, load_model, resolve_model
from qcoh.operators import (
    MAX_EXPONENT,
    ParseError,
    QDEOperator,
    RelPoly,
    apply_classical,
    apply_gauge,
    builtin_operators,
    builtin_relations,
    builtin_rowspec,
    load_operators,
    load_relations,
    load_rowspec,
    parse_operator,
    parse_relation,
    read_expression_lines,
)
from qcoh.quantum import eval_relation
from qcoh.sections import closed_form
from qcoh.series import GaugeSeries


# -- oracle: hand-computed normal ordering -------------------------------------
# theta q = q (theta + h) gives theta^2 q = q theta^2 + 2 h q theta + h^2 q.


def test_normal_ordering_theta_squared_q():
    rank = 1
    th = QDEOperator.gen_theta(rank, 1)
    q = QDEOperator.gen_q(rank, 1)
    got = th * th * q
    want = {
        (0, (1,), (2,)): Fraction(1),
        (1, (1,), (1,)): Fraction(2),
        (2, (1,), (0,)): Fraction(1),
    }
    assert got.c == want
    assert str(got) == "q1*D1^2 + 2*h*q1*D1 + h^2*q1"


def test_normal_ordering_q_through_theta_is_trivial():
    rank = 1
    th = QDEOperator.gen_theta(rank, 1)
    q = QDEOperator.gen_q(rank, 1)
    # q theta is already normal-ordered
    assert (q * th).c == {(0, (1,), (1,)): Fraction(1)}


def test_normal_ordering_multivariate_cross_terms():
    rank = 2
    th1 = QDEOperator.gen_theta(rank, 1)
    q2 = QDEOperator.gen_q(rank, 2)
    # theta_1 and q_2 commute
    assert th1 * q2 == q2 * th1


def test_parse_canonical_string_round_trip():
    cases = [
        "D1^2 - q1",
        "D1^2*D2 - q1*D2",
        "D1^3 - q1*D1 - q1*D2 - h*q1",
        "D1*D2^2 - q2*D1 - q1*q2",
        "1/2*D1 + 7",
        "h^2*q1*D1 - 3/4",
    ]
    for text in cases:
        op = parse_operator(text, 2)
        assert parse_operator(str(op), 2) == op


def test_parser_precedence_and_unary_minus():
    op = parse_operator("-(D1 - 2)*D1", 1)
    assert op == parse_operator("2*D1 - D1^2", 1)
    op = parse_operator("3/6*D1", 1)
    assert op == parse_operator("1/2*D1", 1)
    # unary minus binds looser than ^ and tighter than * and /, wherever it
    # stands, and a divisor is a whole factor
    assert parse_relation("2*-b1^2", 1) == RelPoly(1, {((0,), (2,)): -2})
    assert parse_relation("q1 - -b1^2", 1) == RelPoly(1, {((1,), (0,)): 1, ((0,), (2,)): 1})
    assert parse_relation("3/4^2*b1", 1) == RelPoly(1, {((0,), (1,)): Fraction(3, 16)})


@pytest.mark.parametrize(
    "text, value",
    [("D1/2", "1/2*D1"), ("1/2/3", "1/6"), ("2/-3", "-2/3"), ("q1/(1 + 1)^2", "1/4*q1")],
)
def test_division_by_a_constant(text, value):
    assert str(parse_operator(text, 1)) == value


@pytest.mark.parametrize("text", ["1/D1", "1/0", "D1/(q1 - q1)", "1/h"])
def test_divisor_must_be_a_nonzero_constant(text):
    with pytest.raises(ParseError, match="^divisor must be a nonzero constant"):
        parse_operator(text, 1)


def test_parser_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_operator("D1 D2", 2)  # implicit product
    with pytest.raises(ParseError):
        parse_operator("D1^D1", 1)  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse_operator("(D1", 1)  # unbalanced
    with pytest.raises(ParseError):
        parse_operator("D3", 2)  # index out of range
    with pytest.raises(ParseError):
        parse_operator("b1", 1)  # basis symbol is a relation-only name
    with pytest.raises(ParseError):
        parse_relation("h*b1", 1)  # h is an operator-only name
    with pytest.raises(ParseError):
        parse_relation("D1", 1)


def test_exponent_is_at_most_the_largest_shipped_one():
    # cp64's shipped files raise D1 and b1 to m + 1 = 65, and nothing more
    model = resolve_model("cp%d" % CP_MAX)
    assert str(builtin_operators(model)[0]) == "D1^%d - q1" % MAX_EXPONENT
    assert str(builtin_relations(model)[0]) == "b1^%d - q1" % MAX_EXPONENT
    assert parse_operator("D1^0065", 1) == parse_operator("D1^65", 1)
    for text in ("D1^66", "D1^1000000000", "D1^" + "9" * 5000):
        with pytest.raises(ParseError, match="^exponent too large: at most 65 "):
            parse_operator(text, 1)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_operator("D1 + $", 1)
    assert err.value.pos == 5


@pytest.mark.parametrize(
    "load, line", [(load_operators, "D1^2 + zz"), (load_relations, "b1^2 + zz")]
)
def test_parse_error_in_a_file_names_path_and_line(tmp_path, load, line):
    # comment and blank lines count; the position stays within the line
    path = tmp_path / "bad.txt"
    path.write_text("# first\n\n%s  # third\n" % line)
    with pytest.raises(ParseError) as err:
        load(path, 1)
    exc = err.value
    assert (exc.path, exc.line, exc.message, exc.pos) == (path, 3, "unknown symbol 'zz'", 7)
    assert str(exc) == "%r, line 3: unknown symbol 'zz' (at position 7)" % str(path)


def test_bytes_that_are_not_utf8_name_path_and_line(tmp_path):
    # lines end as the file's text reads them: \r\n counts once
    path = tmp_path / "bad.txt"
    path.write_bytes(b"D1\r\n\r\nD1 \xff\n")
    with pytest.raises(ParseError) as err:
        load_operators(path, 1)
    assert str(err.value) == "%r, line 3: not valid UTF-8: invalid start byte" % str(path)


def test_negative_h_power_rejected():
    with pytest.raises(ValueError):
        QDEOperator(1, {(-1, (0,), (0,)): Fraction(1)})


def test_fractional_exponents_rejected():
    # the q-degree (1.5,) became (1,) and the h exponent 0.9 became 0
    for key in ((0, (1.5,), (0,)), (0, (0,), (0.5,)), (0.9, (0,), (0,))):
        with pytest.raises(ValueError, match="not integral"):
            QDEOperator(1, {key: Fraction(1)})


def test_rowspec_requires_trailing_identity(tmp_path):
    good = tmp_path / "rows.txt"
    good.write_text("D1\n1\n")
    ops = load_rowspec(good, 1)
    assert len(ops) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("D1\nD1^2\n")
    with pytest.raises(ValueError):
        load_rowspec(bad, 1)


def test_expression_files_skip_comments(tmp_path):
    f = tmp_path / "ops.txt"
    f.write_text("# header\n\nD1^2 - q1  # trailing note\n")
    from qcoh.operators import load_operators

    (op,) = load_operators(f, 1)
    assert op == parse_operator("D1^2 - q1", 1)


# -- shipped files -----------------------------------------------------------------


@pytest.mark.parametrize("name,count", [("cp1", 1), ("cp3", 1), ("f3", 5), ("sigma1", 4)])
def test_builtin_operator_files_parse(name, count):
    model = builtin_model(name)
    ops = builtin_operators(model)
    assert len(ops) == count
    defining = {"cp1": 1, "cp3": 1, "f3": 2, "sigma1": 2}[name]
    assert builtin_operators(model, defining_only=True) == ops[:defining]


def test_builtin_rowspec_shapes():
    for name in ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"):
        model = builtin_model(name)
        rows = builtin_rowspec(model)
        assert len(rows) == model.size
        assert rows[-1] == QDEOperator.const(model.rank, 1)


def test_builtin_rowspec_refuses_a_model_in_another_basis():
    # f3 in the basis 2 a^2, -3 b^2, 5 z: the shipped f3.rows are written
    # for the builtin basis, so they would fail the first-order system
    path = Path(__file__).resolve().parent / "golden" / "f3-rescaled.model"
    with pytest.raises(LookupError, match="'f3'"):
        builtin_rowspec(load_model(path))
    with pytest.raises(LookupError, match="gr24"):
        builtin_rowspec(builtin_model("gr24"))


def test_builtin_rowspec_accepts_a_rational_quantum_table_in_the_builtin_basis():
    # f3 with every q^D term scaled by 2^-d1 (q_1 -> q_1 / 2): the quantum
    # table has denominator 2, but the pairing and cup table are the
    # builtin's, so the shipped rows apply
    path = Path(__file__).resolve().parent / "golden" / "f3-q1-halved.model"
    model = load_model(path)
    assert model.quantum_rows()[0] == 2
    assert builtin_rowspec(model) == builtin_rowspec(builtin_model("f3"))


SHIPPED_EXPRESSIONS = sorted(
    path
    for path in (Path(qcoh.__file__).resolve().parent / "data").iterdir()
    if path.suffix in (".ops", ".rel", ".rows")
)


@pytest.mark.parametrize("path", SHIPPED_EXPRESSIONS, ids=lambda p: p.name)
def test_loaded_expressions_equal_parse_of_every_shipped_line(path):
    if path.stem == "cpm":
        cases = [(1, {"M1": str(m + 1)}) for m in range(1, 6)]
    else:
        cases = [(builtin_model(path.stem).rank, None)]
    relations = path.suffix == ".rel"
    parse = parse_relation if relations else parse_operator
    load = load_relations if relations else load_operators
    for rank, subs in cases:
        want = [parse(line, rank) for line in read_expression_lines(path, subs)]
        assert want
        # the first call may parse the file, the second reuses it
        assert load(path, rank, subs) == want
        assert load(path, rank, subs) == want


def test_loaders_hand_out_fresh_lists():
    model = builtin_model("f3")
    ops = builtin_operators(model)
    want = [str(op) for op in ops]
    ops.reverse()
    ops.append(ops[0])
    assert [str(op) for op in builtin_operators(model)] == want
    rels = builtin_relations(model)
    rels.clear()
    assert builtin_relations(model)


def test_operator_file_edited_between_main_calls_is_reloaded(capsys, tmp_path):
    path = tmp_path / "edited.ops"
    argv = ["jfun", "--model", "cp1", "--closed-form", "--verify", str(path), "--n", "3"]
    # each edit but the syntax error keeps the file's length
    for text, code in [
        ("D1^2 - q1\n", 0),
        ("D1^2 + q1\n", 1),
        ("D1^2 - \n", 2),
        ("D1^2 - q1\n", 0),
    ]:
        path.write_text(text)
        assert main(argv) == code
    capsys.readouterr()


def test_builtin_operators_missing_for_gr24():
    with pytest.raises(LookupError):
        builtin_operators(builtin_model("gr24"))


def test_f3_relations_are_the_quantum_toda_relations():
    """Givental-Kim: the quantum ring of F3 is cut out by the coefficients
    of det(lambda + A), A the tridiagonal Toda matrix with diagonal (b1,
    b2 - b1, -b2), q1 and q2 above it and -1 below it.  The lambda^2
    coefficient is 0; the lambda^1 and lambda^0 coefficients are minus the
    shipped relations, in order."""
    import sympy

    lam, b1, b2, q1, q2 = sympy.symbols("lam b1 b2 q1 q2")
    A = sympy.Matrix([[b1, q1, 0], [-1, b2 - b1, q2], [0, -1, -b2]])
    top, *coeffs = sympy.Poly((lam * sympy.eye(3) + A).det(), lam).all_coeffs()
    assert top == 1 and sympy.expand(coeffs[0]) == 0
    toda = [parse_relation(str(sympy.expand(-c)).replace("**", "^"), 2) for c in coeffs[1:]]
    assert toda == builtin_relations(builtin_model("f3"))


# -- eval_relation on operators ------------------------------------------------------


@pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"])
def test_symbol_map_of_defining_operators_vanishes(name):
    """eval_relation (h -> 0, theta -> generator) sends every annihilating
    operator to a relation that holds in the quantum ring."""
    model = builtin_model(name)
    for op in builtin_operators(model):
        elem = eval_relation(model, op, 6)
        assert not elem.c, (name, str(op))


@pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"])
def test_defining_operator_symbols_are_the_shipped_relations(name):
    """The h = 0 symbols of the defining operators, the first `rank` in the
    shipped file, are the shipped relations, in order, and no later
    operator's symbol is one."""
    model = builtin_model(name)
    symbols = [
        RelPoly(op.rank, {(q, E): v for (h, q, E), v in op.c.items() if not h})
        for op in builtin_operators(model)
    ]
    rels = builtin_relations(model)
    count = len(builtin_operators(model, defining_only=True))
    assert symbols[:count] == rels
    assert not [s for s in symbols[count:] if s in rels]


def test_eval_relation_drops_h_terms():
    model = builtin_model("cp1")
    op = parse_operator("h*D1 + D1", 1)
    elem = eval_relation(model, op, 4)
    # only the h-free D1 survives: the class x
    assert elem.c == {(0,): model.basis_class(1)}


# A relation is the h = 0 symbol of the operator with the same text, b_i
# written D_i.


@st.composite
def relation_texts(draw, rank, depth=1):
    """A sum of products of q_i, b_i, rational constants and bracketed
    sums (`depth` levels deep), each factor possibly raised to a power and
    negated, and each product possibly divided by a nonzero constant."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from("qbc(" if depth else "qbc"))
            if kind == "c":
                factor = "%d/%d" % (draw(st.integers(0, 6)), draw(st.integers(1, 4)))
            elif kind == "(":
                factor = "(%s)" % draw(relation_texts(rank, depth - 1))
            else:
                factor = "%s%d" % (kind, draw(st.integers(1, rank)))
            if draw(st.booleans()):
                factor += "^%d" % draw(st.integers(0, 2))
            factors.append(draw(st.sampled_from(("", "-"))) + factor)
        product = "*".join(factors)
        if draw(st.booleans()):
            product += "/%s%d" % (draw(st.sampled_from(("", "-"))), draw(st.integers(1, 4)))
        terms.append((draw(st.sampled_from("+-")), product))
    return " ".join("%s %s" % term for term in terms)


@st.composite
def ranked_relation_texts(draw):
    rank = draw(st.sampled_from((1, 2)))
    return rank, draw(relation_texts(rank))


@settings(max_examples=40, deadline=None)
@given(ranked_relation_texts())
def test_relation_is_the_h0_symbol_of_its_operator(case):
    rank, text = case
    rel = parse_relation(text, rank)
    op = parse_operator(text.replace("b", "D"), rank)
    assert all(hexp == 0 for hexp, _, _ in rel.c)
    assert rel.c == {key: v for key, v in op.c.items() if key[0] == 0}
    assert parse_relation(str(rel), rank) == rel


@settings(max_examples=40, deadline=None)
@given(ranked_relation_texts())
def test_relation_parses_as_sympy_reads_it(case):
    """The parser's precedence is Python's, `^` read as `**`."""
    import sympy

    rank, text = case
    got = 0
    for (_, qdeg, bexp), v in parse_relation(text, rank).c.items():
        term = sympy.Rational(v.numerator, v.denominator)
        for i, (d, e) in enumerate(zip(qdeg, bexp), 1):
            term *= sympy.Symbol("q%d" % i) ** d * sympy.Symbol("b%d" % i) ** e
        got += term
    assert sympy.expand(got - sympy.sympify(text.replace("^", "**"))) == 0, text


# -- application soundness ------------------------------------------------------------


# The helpers take integer(lo, hi), a uniform draw from [lo, hi]: a seeded
# random.Random's randint, or a hypothesis draw.


def _random_operator(integer, rank, nterms=3):
    out = QDEOperator.const(rank, 0)
    for _ in range(nterms):
        term = QDEOperator.const(rank, Fraction(integer(-6, 6), integer(1, 4)))
        term = term * QDEOperator.gen_h(rank) ** integer(0, 2)
        for i in range(1, rank + 1):
            term = term * QDEOperator.gen_q(rank, i) ** integer(0, 1)
            term = term * QDEOperator.gen_theta(rank, i) ** integer(0, 2)
        # multiply in a random order too, to exercise commutation
        if integer(0, 1):
            term = QDEOperator.gen_theta(rank, 1) * term
        out = out + term
    return out


def _random_section(integer, model, order):
    from qcoh.model import CohClass

    terms = {}
    for D in _all_degrees(model.rank, order):
        coords = tuple(
            HLaurent({integer(-2, 2): Fraction(integer(-5, 5)) for _ in range(2)})
            for _ in range(model.size)
        )
        cls = CohClass(coords)
        if cls:
            terms[D] = cls
    return GaugeSeries(model, order, terms)


def _all_degrees(rank, order):
    if rank == 1:
        return [(d,) for d in range(order + 1)]
    out = []
    for a in range(order + 1):
        for b in range(order + 1 - a):
            out.append((a, b))
    return out


F3 = builtin_model("f3")


@st.composite
def operator_pair_and_section(draw):
    def integer(lo, hi):
        return draw(st.integers(lo, hi))

    A = _random_operator(integer, F3.rank)
    B = _random_operator(integer, F3.rank)
    # the 144 integers of the section come from a drawn seed, which keeps the
    # number of hypothesis draws per example small
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return A, B, _random_section(rng.randint, F3, 2)


@settings(max_examples=100, deadline=None)
@given(operator_pair_and_section())
def test_operator_product_agrees_with_sequential_application(case):
    """Normal-ordering soundness: (A*B) applied to a random section equals
    A applied after B.  Hypothesis draws every term of A and B and the seed
    of the section, so a failing case is shrunk and replayed."""
    A, B, s = case
    left = apply_gauge(A * B, s)
    right = apply_gauge(A, apply_gauge(B, s))
    assert left.c == right.c


def test_apply_gauge_annihilates_closed_form():
    model = builtin_model("cp2")
    J = closed_form(model, 5)
    (op,) = builtin_operators(model)
    assert not apply_gauge(op, J)


def test_apply_classical_requires_q_free():
    model = builtin_model("cp1")
    from qcoh.sections import asymptotic_J

    aj = asymptotic_J(model)
    with pytest.raises(ValueError):
        apply_classical(parse_operator("D1 - q1", 1), aj, model)
    res = apply_classical(parse_operator("D1^2", 1), aj, model)
    assert not res.c  # x^2 = 0 classically


def test_theta_part_and_q_free_part():
    op = parse_operator("D1^2*D2 - q1*D2 + h*D1 - q1", 2)
    tp = op.theta_part()
    assert tp == parse_operator("D1^2*D2", 2)
    qf = op.q_free_part()
    assert qf == parse_operator("D1^2*D2 + h*D1", 2)
