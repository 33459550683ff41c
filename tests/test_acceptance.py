"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line and enforces its runtime bound.
All equality assertions are exact (rational arithmetic, no tolerances).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from qcoh.algebra import HLaurent, NovikovSeries
from qcoh.model import BUILTIN_NAMES, CohClass, builtin_model
from qcoh.operators import (
    QDEOperator,
    RelPoly,
    apply_constq,
    apply_classical,
    apply_gauge,
    builtin_operators,
    builtin_relations,
    builtin_rowspec,
)
from qcoh.quantum import (
    QElem,
    check_associativity,
    check_flatness,
    eval_relation,
    exp_quantum,
)
from qcoh.sections import (
    asymptotic_H,
    asymptotic_J,
    build_H_from_J,
    closed_form,
    descendent_level,
    extract_descendents,
    q_factorize,
    solve_fundamental,
    tpoly_matrix_json,
    verify_annihilated,
)
from qcoh.series import GaugeSeries

N = 6
L = 6


@contextmanager
def criterion(num, description, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL - %s" % (num, description))
        raise
    elapsed = time.perf_counter() - start
    print(
        "criterion %d: PASS - %s (%.2fs, bound %gs)"
        % (num, description, elapsed, bound_seconds)
    )
    assert elapsed < bound_seconds, (
        "criterion %d exceeded its %gs bound: %.2fs"
        % (num, bound_seconds, elapsed)
    )


def harmonic(d):
    return sum((Fraction(1, k) for k in range(1, d + 1)), Fraction(0))


def test_criterion_1_cp1_descendent_table():
    with criterion(1, "two-point descendent table of the projective line", 1):
        model = builtin_model("cp1")
        Hm = solve_fundamental(model, N)
        records = extract_descendents(model, Hm, N)
        table = {
            (tuple(r["degree"]), r["level"], r["j"]): r["value"]
            for r in records
        }
        for d in range(1, N + 1):
            base = Fraction(1, factorial(d) ** 2)
            assert table[((d,), 2 * d - 1, 1)] == base
            assert table[((d,), 2 * d, 0)] == -2 * harmonic(d) * base
        assert len(table) == 2 * N  # nothing else is nonzero
        # spot values: d = 2 gives 1/4 and -3/4
        assert table[((2,), 3, 1)] == Fraction(1, 4)
        assert table[((2,), 4, 0)] == Fraction(-3, 4)


def test_criterion_2_cp_quantum_differential_equations():
    with criterion(2, "projective-space differential equation family", 5):
        for m in range(1, 6):
            model = builtin_model("cp%d" % m)
            J = closed_form(model, N)
            (op,) = builtin_operators(model)
            residual = apply_gauge(op, J)
            assert not residual, m


def _operator_as_relation(op):
    terms = {}
    for (hexp, qdeg, thexp), v in op.c.items():
        assert hexp == 0
        terms[(qdeg, thexp)] = v
    return RelPoly(op.rank, terms)


def test_criterion_3_flag_threefold_suite():
    with criterion(3, "flag threefold: equations, solver, symbol map", 10):
        model = builtin_model("f3")
        J = closed_form(model, N)
        ops = builtin_operators(model)  # 2 defining + 3 dependent
        assert len(ops) == 5
        report = verify_annihilated(J, ops)
        assert report["status"] == "pass", report["witnesses"]
        solved = solve_fundamental(model, N).jrow()
        assert solved.c == J.c
        rels = builtin_relations(model)
        for op, rel in zip(ops[:2], rels):
            assert not eval_relation(model, op, N).c
            assert _operator_as_relation(op) == rel
            assert not eval_relation(model, rel, N).c


def test_criterion_4_hirzebruch_suite_and_q_matrices():
    with criterion(4, "Hirzebruch surface suite and Q-factorizations", 10):
        model = builtin_model("sigma1")
        J = closed_form(model, N)
        ops = builtin_operators(model)  # 2 defining + 2 dependent
        assert len(ops) == 4
        assert verify_annihilated(J, ops)["status"] == "pass"
        solved = solve_fundamental(model, N).jrow()
        assert solved.c == J.c
        for op, rel in zip(ops[:2], builtin_relations(model)):
            assert not eval_relation(model, op, N).c
            assert _operator_as_relation(op) == rel
        # Q = identity for the Hirzebruch surface
        rowspec = builtin_rowspec(model)
        Hm = build_H_from_J(model, J, rowspec)
        Q, _ = q_factorize(model, Hm, rowspec)
        one = NovikovSeries(2, N, {(0, 0): 1})
        for i in range(4):
            for k in range(4):
                assert Q[i][k] == (one if i == k else NovikovSeries(2, N))
        # the flag threefold's Q has exactly three off-diagonal entries
        f3 = builtin_model("f3")
        Jf = closed_form(f3, N)
        rowspec_f = builtin_rowspec(f3)
        Qf, _ = q_factorize(f3, build_H_from_J(f3, Jf, rowspec_f), rowspec_f)
        q1 = {(1, 0): Fraction(1)}
        expected = {
            (0, 3): NovikovSeries(2, N, {(1, 0): Fraction(-1)}),
            (1, 5): NovikovSeries(2, N, q1),
            (2, 5): NovikovSeries(2, N, {(1, 0): Fraction(-1)}),
        }
        onef = NovikovSeries(2, N, {(0, 0): 1})
        for i in range(6):
            for k in range(6):
                want = onef if i == k else expected.get((i, k), NovikovSeries(2, N))
                assert Qf[i][k] == want, (i, k)


def test_criterion_5_flatness_and_associativity_everywhere():
    with criterion(5, "flatness and associativity for every model", 10):
        for name in BUILTIN_NAMES:
            model = builtin_model(name)
            assert check_flatness(model, N)["status"] == "pass", name
            assert check_associativity(model, N)["status"] == "pass", name


def test_criterion_6_grassmannian_product_chain():
    with criterion(6, "Grassmannian degree-two power chain", 1):
        model = builtin_model("gr24")
        lab = model.labels.index
        a = QElem.basis(model, N, lab("a"))
        b = QElem.basis(model, N, lab("b"))
        c = QElem.basis(model, N, lab("c"))
        d = QElem.basis(model, N, lab("d"))
        z = QElem.basis(model, N, lab("z"))
        q = QElem.unit(model, N).shifted((1,))
        zq = z + q
        aa = a * a
        assert aa * a == d.scaled(Fraction(2))  # [4]
        assert aa * b == zq  # [8]
        assert aa * c == zq  # [9]
        assert a * d == zq  # [10]
        assert aa * aa == zq.scaled(Fraction(2))  # [11]
        want = a.shifted((1,)).scaled(Fraction(4))  # 4 q a
        # five-fold power, direct left multiplication
        direct = a
        for _ in range(4):
            direct = a * direct
        assert direct == want
        # through the degree-6 class: (a o a o a) o (a o a) = 2 d o (b + c)
        assert (aa * a) * aa == want
        assert d.scaled(Fraction(2)) * (b + c) == want
        # ring relation from file
        (rel,) = builtin_relations(model)
        assert not eval_relation(model, rel, N).c


def test_criterion_7_classical_limits():
    with criterion(7, "constant-coefficient limits match stored tables", 1):
        import json

        from qcoh.model import data_path

        for name in ("f3", "sigma1"):
            model = builtin_model(name)
            got = tpoly_matrix_json(asymptotic_H(model))
            stored = json.loads(
                data_path("%s.classical.json" % name).read_text(
                    encoding="utf-8"
                )
            )
            assert got == stored["entries"], name
            aj = asymptotic_J(model)
            for op in builtin_operators(model, defining_only=True):
                residual = apply_classical(op.q_free_part(), aj, model)
                assert not residual.c, (name, str(op))


def test_criterion_8_constant_coefficient_theory():
    with criterion(8, "quantum exponential solves the constant-q system", 10):
        for name in ("cp1", "f3", "sigma1"):
            model = builtin_model(name)
            tp = exp_quantum(model, L, N)
            for op in builtin_operators(model, defining_only=True):
                bound = L - op.theta_degree()
                res = apply_constq(op, tp, model)
                for e, cs in res.c.items():
                    if sum(e) <= bound:
                        assert not cs, (name, str(op), e)


def test_criterion_9_property_suites():
    with criterion(9, "cross-construction and randomized property suites", 30):
        # dual-construction equality on every closed-form model
        for name in ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1"):
            model = builtin_model(name)
            assert solve_fundamental(model, N).jrow().c == closed_form(model, N).c

        # degree-axiom zero-forcing on extracted invariants
        for name in ("cp2", "f3", "sigma1", "gr24"):
            model = builtin_model(name)
            records = extract_descendents(model, solve_fundamental(model, 3), 3)
            assert records
            for r in records:
                assert r["level"] == descendent_level(model, r["j"], tuple(r["degree"]))

        # normalization soundness on 100 random operator pairs
        rng = random.Random(20240819)
        model = builtin_model("f3")

        def random_op():
            out = QDEOperator.const(2, 0)
            for _ in range(3):
                term = QDEOperator.const(
                    2, Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                )
                term = term * QDEOperator.gen_h(2) ** rng.randint(0, 2)
                for i in (1, 2):
                    term = term * QDEOperator.gen_q(2, i) ** rng.randint(0, 1)
                    term = (
                        term * QDEOperator.gen_theta(2, i) ** rng.randint(0, 2)
                    )
                if rng.random() < 0.5:
                    term = QDEOperator.gen_theta(2, 1) * term
                out = out + term
            return out

        def random_section():
            terms = {}
            for d1 in range(3):
                for d2 in range(3 - d1):
                    coords = tuple(
                        HLaurent(
                            {
                                rng.randint(-2, 2): Fraction(
                                    rng.randint(-5, 5)
                                )
                                for _ in range(2)
                            }
                        )
                        for _ in range(model.size)
                    )
                    cls = CohClass(coords)
                    if cls:
                        terms[(d1, d2)] = cls
            return GaugeSeries(model, 2, terms)

        for trial in range(100):
            A, B = random_op(), random_op()
            s = random_section()
            assert apply_gauge(A * B, s).c == apply_gauge(
                A, apply_gauge(B, s)
            ).c, trial

        # exact-arithmetic round-trips: model files and h-Laurent JSON
        from qcoh.model import ModelSpec

        for name in BUILTIN_NAMES:
            model = builtin_model(name)
            assert (
                ModelSpec.from_json(model.to_json()).to_json()
                == model.to_json()
            )
        lau = HLaurent({-3: Fraction(2, 7), 0: 1, 5: Fraction(-9, 4)})
        assert HLaurent(dict(lau.to_json())) == lau
