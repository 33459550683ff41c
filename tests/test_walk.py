"""Operator application by one walk over shared theta prefixes: the walk
against termwise application through theta_monomial, and the number of
theta steps it takes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.algebra import HLaurent
from qcoh import operators
from qcoh.model import builtin_model
from qcoh.operators import (
    QDEOperator,
    apply_gauge,
    apply_gauge_many,
    builtin_operators,
    builtin_rowspec,
    parse_operator,
)
from qcoh.sections import closed_form, verify_annihilated
from qcoh.series import GaugeSeries

CLOSED_FORM_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1")
ORDER = 4


def reference_apply(op, s):
    """The termwise definition: theta^E from scratch for every term, then
    the q-shift and the h-scale."""
    out = GaugeSeries(s.model, s.order, {})
    for (hexp, qdeg, thexp), v in op.c.items():
        part = s.theta_monomial(thexp)
        if any(qdeg):
            part = part.shifted(qdeg)
        out = out + part.scaled(HLaurent.term(v, hexp))
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
        model = builtin_model(name)
        _J[name] = closed_form(model, ORDER)
    return _J[name]


@pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
def test_walk_matches_termwise_application_on_shipped_operators(name):
    J = closed_form_J(name)
    model = J.model
    ops = builtin_operators(model) + [op.theta_part() for op in builtin_operators(model)]
    if name in ("f3", "sigma1"):
        ops += builtin_rowspec(model)
    got = apply_gauge_many(ops, J)
    assert len(got) == len(ops)
    for op, series in zip(ops, got):
        assert isinstance(series, GaugeSeries)
        assert series.c == reference_apply(op, J).c, str(op)
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
    return QDEOperator.const(rank, c0) + c1 * theta + c2 * qterm


_OPERATORS = {}


def shipped_operators(name):
    if name not in _OPERATORS:
        _OPERATORS[name] = builtin_operators(closed_form_J(name).model)
    return _OPERATORS[name]


@st.composite
def model_and_operators(draw):
    name = draw(st.sampled_from(("cp1", "cp2", "f3", "sigma1")))
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
        assert series.c == reference_apply(op, J).c, str(op)


# -- one theta-kernel call per distinct prefix ---------------------------------


def test_verify_annihilated_takes_one_theta_step_per_prefix(monkeypatch):
    J = closed_form_J("f3")
    ops = builtin_operators(J.model)
    ops += [
        parse_operator(t, 2) * ops[0]
        for t in ("1/2 + D1 + q2*D1", "-3 + 2*h*D2 + h*q1", "1 + D2 - q1")
    ]
    calls = []
    kernel = operators._theta_flat

    def counting(model, flat, i):
        calls.append(i)
        return kernel(model, flat, i)

    monkeypatch.setattr(operators, "_theta_flat", counting)
    report = verify_annihilated(J, ops)
    assert report["status"] == "pass"
    assert len(calls) == len(theta_words(ops))
    assert len(calls) < sum(sum(e) for op in ops for _, _, e in op.c)
