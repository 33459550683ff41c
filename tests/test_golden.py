"""Golden outputs: the CLI JSON and exit code of a fixed command corpus.

Each case in CORPUS has a recording tests/golden/<name>.json holding its
argv, exit code, stdout and stderr (both parsed from JSON, or null when
empty).  The replay runs every command in process from tests/golden, so
the expression files in that directory are named by their bare names, and
requires the exact stdout bytes and the exit code.

No command reaches q_factorize, so QFACTOR_CORPUS records the library chain
closed_form -> build_H_from_J -> q_factorize directly: the Q entries and
H_0 of each (model, order), in tests/golden/qfactor-<model>-<order>.json.
VALIDATE_MODELS records the problems InvalidModel lists for single-record
mutants of each model file, in tests/golden/validate-<model>.json.

Re-record only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from qcoh.algebra import format_rational
from qcoh.cli import _dump, main
from qcoh.model import BUILTIN_NAMES, InvalidModel, ModelSpec, builtin_model, load_model
from qcoh.operators import builtin_rowspec
from qcoh.sections import build_H_from_J, closed_form, q_factorize, solve_fundamental

GOLDEN = Path(__file__).resolve().parent / "golden"

CLOSED_FORM_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1")

CORPUS = {
    **{
        "jfun-%s-closed-form-verify" % m: [
            "jfun", "--model", m, "--closed-form", "--verify", "--n", "5"
        ]
        for m in CLOSED_FORM_MODELS
    },
    "jfun-f3-diff": ["jfun", "--model", "f3", "--diff", "--n", "4"],
    # the deep closed forms, with their larger denominators
    "jfun-cp5-closed-form-verify-deep": [
        "jfun", "--model", "cp5", "--closed-form", "--verify", "--n", "8"
    ],
    "jfun-sigma1-closed-form-verify-deep": [
        "jfun", "--model", "sigma1", "--closed-form", "--verify", "--n", "7"
    ],
    "jfun-sigma1-diff-deep": ["jfun", "--model", "sigma1", "--diff", "--n", "7"],
    "jfun-cp5-diff-deep": ["jfun", "--model", "cp5", "--diff", "--n", "8"],
    # f3 in the basis 2 a^2, -3 b^2, 5 z: its tables have rational entries,
    # and the unit pairs to 5 with 5 z; the solved J still equals the closed
    # form
    "jfun-diff-rescaled": [
        "jfun", "--model", "f3-rescaled.model", "--diff", "--n", "2"
    ],
    "jfun-diff-rescaled-deep": [
        "jfun", "--model", "f3-rescaled.model", "--diff", "--n", "4"
    ],
    "jfun-closed-form-verify-rescaled": [
        "jfun", "--model", "f3-rescaled.model", "--closed-form", "--verify", "--n", "4"
    ],
    # the solver's kept operators over qden 30, through the CLI
    "jfun-solve-rescaled": [
        "jfun", "--model", "f3-rescaled.model", "--solve", "--n", "6"
    ],
    "gw-rescaled-max-degree-3": [
        "gw", "--model", "f3-rescaled.model", "--max-degree", "3"
    ],
    # cp1 with labels JSON must escape (a quote, a backslash, non-ASCII
    # text), the unit's label sorting after the hyperplane's
    "gw-quoted-labels-max-degree-3": [
        "gw", "--model", "quoted-labels.model", "--max-degree", "3"
    ],
    "jfun-quoted-labels-solve": [
        "jfun", "--model", "quoted-labels.model", "--solve", "--n", "4"
    ],
    # f3 with every q^D term scaled by 2^d1: a valid, integrable model whose
    # J is not the f3 closed form, so --diff fails with a witness at q^(1,0)
    "jfun-diff-q1-doubled": [
        "jfun", "--model", "f3-q1-doubled.model", "--diff", "--n", "2"
    ],
    # the same failing --diff one order deeper: the first coordinate where
    # the closed form and the solver differ
    "jfun-diff-q1-doubled-deep": [
        "jfun", "--model", "f3-q1-doubled.model", "--diff", "--n", "3"
    ],
    # valid tables under the name of a closed-form model of higher rank:
    # its factor classes use a generator the tables lack, so no closed form
    **{
        "jfun-closed-form-%s" % m: [
            "jfun", "--model", "%s.model" % m, "--closed-form", "--n", "2"
        ]
        for m in ("cp2-named-f3", "cp1-named-sigma1")
    },
    "jfun-f3-verify-inhomogeneous": [
        "jfun", "--model", "f3", "--closed-form", "--verify",
        "inhomogeneous.ops", "--n", "3",
    ],
    "jfun-verify-empty-file": [
        "jfun", "--model", "cp1", "--closed-form", "--verify", "empty.ops"
    ],
    "check-relations-empty-file": [
        "check", "--model", "cp1", "--relations", "empty.rel"
    ],
    **{
        "gw-%s-max-degree-3" % m: ["gw", "--model", m, "--max-degree", "3"]
        for m in BUILTIN_NAMES
    },
    "gw-sigma1-max-degree-4": [
        "gw", "--model", "sigma1", "--max-degree", "4", "--n", "6"
    ],
    "gw-gr24-max-degree-4": ["gw", "--model", "gr24", "--max-degree", "4"],
    **{
        "jfun-%s-solve" % m: ["jfun", "--model", m, "--solve", "--n", "6"]
        for m in ("f3", "sigma1", "gr24")
    },
    "jfun-f3-solve-deep": ["jfun", "--model", "f3", "--solve", "--n", "10"],
    "jfun-sigma1-solve-deep": ["jfun", "--model", "sigma1", "--solve", "--n", "8"],
    # f3 with its first q^(1,0) coefficient doubled: structurally valid, but
    # the system is not integrable, so the solver fails with a witness
    "jfun-solve-nonintegrable": [
        "jfun", "--model", "f3-nonintegrable.model", "--solve", "--n", "4"
    ],
    # f3 with its first q^(0,1) coefficient doubled: q^(0,1) is solved along
    # q_2, so the solver fails the check along q_1, below the solved direction
    "jfun-solve-q2-doubled": [
        "jfun", "--model", "f3-q2-doubled.model", "--solve", "--n", "3"
    ],
    # f3 with b_0 o z = z + q1 a: graded and commutative, and b_0 is still
    # the cup unit, but not the quantum unit, so the model is refused (the
    # files under tests/golden/invalid are well formed but not valid)
    "models-validate-unit-q-term": [
        "models", "validate", "invalid/f3-unit-q-term.model"
    ],
    "jfun-solve-unit-q-term": [
        "jfun", "--model", "invalid/f3-unit-q-term.model", "--solve", "--n", "2"
    ],
    # a parse error in the third line of an expression file, after a
    # comment line and a blank line
    "jfun-verify-unknown-symbol": [
        "jfun", "--model", "cp1", "--closed-form", "--verify", "unknown-symbol.ops"
    ],
    # the ring path: the quantum exponential, the classical limit and the
    # ring checks on every builtin
    **{
        "tilde-%s" % m: ["tilde", "--model", m, "--t-order", "6"]
        for m in BUILTIN_NAMES
    },
    **{"classical-%s" % m: ["classical", "--model", m] for m in BUILTIN_NAMES},
    "tilde-f3-deep": ["tilde", "--model", "f3", "--t-order", "8"],
    "tilde-sigma1-deep": ["tilde", "--model", "sigma1", "--t-order", "9"],
    "tilde-gr24-deep": ["tilde", "--model", "gr24", "--t-order", "10"],
    **{"check-%s" % m: ["check", "--model", m, "--n", "4"] for m in BUILTIN_NAMES},
    "check-gr24-default-n": ["check", "--model", "gr24"],
    "check-sigma1-deep": ["check", "--model", "sigma1", "--n", "6"],
    "check-f3-relations": ["check", "--model", "f3", "--relations", "--n", "6"],
    # the builtin tables, pinned byte for byte
    **{"models-show-%s" % m: ["models", "show", m] for m in BUILTIN_NAMES},
    # cp(<m>) names cp<m>; a name with one parenthesis names no model
    "models-show-cp-of-3": ["models", "show", "cp(3)"],
    "models-show-cp-open-paren": ["models", "show", "cp(3"],
    "models-show-cp-close-paren": ["models", "show", "cp3)"],
    # a cp<m> above the builtin limit is refused before it is built
    "models-show-cp65": ["models", "show", "cp65"],
    # rational entries: cup entries 1/2 and -1/3, and a quantum table over 2
    # with the builtin f3 cup table; and pairs (i, j) filled from (j, i)
    **{
        "models-show-%s" % m: ["models", "show", "%s.model" % m]
        for m in ("f3-rescaled", "f3-q1-halved", "p1xp1-no-q2")
    },
    "check-relations-failing": [
        "check", "--model", "f3", "--relations", "wrong-f3.rel", "--n", "3"
    ],
    # lines that hold only when unary minus binds looser than ^ and tighter
    # than * and /, and a divisor is a whole factor
    "check-relations-signs": [
        "check", "--model", "cp1", "--relations", "signs.rel", "--n", "4"
    ],
    "jfun-closed-form-verify-signs": [
        "jfun", "--model", "cp1", "--closed-form", "--verify", "signs.ops", "--n", "4"
    ],
    # the non-integrable f3 is not associative: tilde fails its constant-q
    # equations, with witnesses written by the shift, and check names the
    # failing triples, with witnesses written by QElem.describe
    "tilde-nonintegrable": [
        "tilde", "--model", "f3-nonintegrable.model", "--t-order", "5"
    ],
    "check-nonintegrable": ["check", "--model", "f3-nonintegrable.model"],
    "check-nonintegrable-n3": [
        "check", "--model", "f3-nonintegrable.model", "--n", "3"
    ],
    # the rescaled f3: quantum structure constants with denominators 2, 3
    # and 5 in the ring checks and the quantum exponential
    "check-rescaled": ["check", "--model", "f3-rescaled.model", "--n", "4"],
    "tilde-rescaled": ["tilde", "--model", "f3-rescaled.model", "--t-order", "6"],
    # the classical fixture is written in the builtin basis, so it is
    # "absent" for the rescaled f3, whose own checks pass
    "classical-rescaled": ["classical", "--model", "f3-rescaled.model"],
    # P^1 x P^1 with the q2 term of b o b dropped: a valid model whose
    # M1 and M2 do not commute; its witnesses are printed as Novikov series,
    # and a witness entry with no products is 0
    "check-flatness-p1xp1-no-q2": [
        "check", "--model", "p1xp1-no-q2.model", "--flatness", "--n", "3"
    ],
    # a model with no shipped expression files: asking for the shipped
    # operators or relations exits 2 naming the model; tilde and classical
    # check no operators and say so
    "jfun-gr24-verify-no-operators": [
        "jfun", "--model", "gr24", "--solve", "--verify", "--n", "2"
    ],
    "check-relations-p1xp1-no-q2": [
        "check", "--model", "p1xp1-no-q2.model", "--relations"
    ],
    "tilde-p1xp1-no-q2": [
        "tilde", "--model", "p1xp1-no-q2.model", "--t-order", "6"
    ],
    "classical-p1xp1-no-q2": ["classical", "--model", "p1xp1-no-q2.model"],
    # malformed model files: each command exits 2 naming the bad field
    **{
        "%s-%s" % (cmd, bad.stem): argv + ["bad/%s" % bad.name]
        for bad in sorted((GOLDEN / "bad").glob("*.model"))
        for cmd, argv in (
            ("models-validate", ["models", "validate"]),
            ("check", ["check", "--model"]),
        )
    },
}

# case name: (model, order); the first four cases are named by the model alone
QFACTOR_CORPUS = {
    "f3": ("f3", 3),
    "sigma1": ("sigma1", 4),
    "cp2": ("cp2", 3),
    "cp3": ("cp3", 4),
    "sigma1-3": ("sigma1", 3),
    "cp4-3": ("cp4", 3),
    "cp5-4": ("cp5", 4),
    "f3-5": ("f3", 5),
    "f3-7": ("f3", 7),
    "sigma1-6": ("sigma1", 6),
    "cp5-6": ("cp5", 6),
}


# Construction on single-record mutants of each model's JSON: every cup and
# quantum record doubled, zeroed, re-targeted to the next basis element and,
# off the diagonal, with i and j swapped; every quantum record also raised
# by one in each coordinate of D.  A mutant that would repeat the entry of
# another record is left out.  Only the problem lists are stored, in
# tests/golden/validate-<model>.json.
VALIDATE_MODELS = ("cp2", "f3", "sigma1", "gr24")


def _entry(rec):
    return rec["i"], rec["j"], rec["k"], tuple(rec.get("D", ()))


def _mutants(data):
    """(label, mutated model JSON) for each single-record mutant."""
    size = len(data["basis"])
    for table in ("cup", "quantum"):
        records = data[table]
        entries = {_entry(rec) for rec in records}
        for n, rec in enumerate(records):
            changes = {
                "double": {"c": format_rational(2 * Fraction(rec["c"]))},
                "zero": {"c": 0},
                "next-k": {"k": (rec["k"] + 1) % size},
            }
            if rec["i"] != rec["j"]:
                changes["swap-ij"] = {"i": rec["j"], "j": rec["i"]}
            for t in range(len(rec.get("D", ()))):
                changes["raise-d%d" % (t + 1)] = {
                    "D": [d + (u == t) for u, d in enumerate(rec["D"])]
                }
            for what, change in changes.items():
                mutant = {**rec, **change}
                if _entry(mutant) != _entry(rec) and _entry(mutant) in entries:
                    continue
                mutated = records[:n] + [mutant] + records[n + 1:]
                yield "%s[%d] %s" % (table, n, what), {**data, table: mutated}


def _problems(data):
    """The problems InvalidModel lists for the model JSON (none if valid)."""
    try:
        ModelSpec.from_json(data)
    except InvalidModel as exc:
        return exc.problems
    return []


def _validate(name):
    problems = {
        label: _problems(mutant) for label, mutant in _mutants(builtin_model(name).to_json())
    }
    return {"model": name, "problems": problems}


def _validate_path(name):
    return GOLDEN / ("validate-%s.json" % name)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _parsed(text):
    return json.loads(text) if text else None


def _qfactor(name, order):
    model = builtin_model(name)
    rows = builtin_rowspec(model)
    Hm = build_H_from_J(model, closed_form(model, order), rows)
    Q, H0 = q_factorize(model, Hm, rows)
    return {
        "model": name,
        "order": order,
        "Q": [
            [
                [{"degree": list(D), "c": format_rational(v)} for D, v in entry.items_sorted()]
                for entry in row
            ]
            for row in Q
        ],
        "H0": H0.to_json(),
    }


def _qfactor_path(name, order):
    return GOLDEN / ("qfactor-%s-%d.json" % (name, order))


def record():
    for name in VALIDATE_MODELS:
        _validate_path(name).write_text(_dump(_validate(name)), encoding="utf-8")
    for name, order in QFACTOR_CORPUS.values():
        _qfactor_path(name, order).write_text(
            _dump(_qfactor(name, order)), encoding="utf-8"
        )
    for name, argv in CORPUS.items():
        code, out, err = _run(argv)
        payload = {
            "argv": argv,
            "exit": code,
            "stdout": _parsed(out),
            "stderr": _parsed(err),
        }
        (GOLDEN / ("%s.json" % name)).write_text(_dump(payload), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_output(name):
    stored = json.loads((GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8"))
    assert stored["argv"] == CORPUS[name]
    # the exit code follows the payload: 2 for an error on stderr, else 1
    # exactly when the stdout "status" is "fail"
    if stored["stderr"] is not None:
        assert stored["exit"] == 2
    else:
        status = stored["stdout"].get("status", "pass")
        assert stored["exit"] == (0 if status == "pass" else 1)
    code, out, err = _run(stored["argv"])
    assert code == stored["exit"]
    assert out == ("" if stored["stdout"] is None else _dump(stored["stdout"]))
    assert _parsed(err) == stored["stderr"]


def test_golden_corpus_replays_the_same_when_warm():
    # the loaded models and files are shared within a process: a second
    # pass, in the reverse order, must not see an entry a command altered
    passes = [sorted(CORPUS), sorted(CORPUS, reverse=True)]
    runs = [{name: _run(CORPUS[name]) for name in names} for names in passes]
    assert runs[1] == runs[0]
    for name, (code, out, _) in runs[1].items():
        stored = json.loads((GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8"))
        assert code == stored["exit"]
        assert out == ("" if stored["stdout"] is None else _dump(stored["stdout"]))


def test_solver_operators_are_kept_per_model_not_per_name():
    # four models named f3, each solved in turn: every solve must read its
    # own model's operators, as a fresh copy of the model (nothing kept)
    # does; then the q1-doubled case still replays after a builtin f3 solve
    models = [
        builtin_model("f3"),
        load_model(GOLDEN / "f3-q1-doubled.model"),
        load_model(GOLDEN / "f3-rescaled.model"),
        builtin_model("f3"),
    ]
    assert {m.name for m in models} == {"f3"}
    fresh = [ModelSpec.from_json(m.to_json()) for m in models]
    want = [solve_fundamental(m, 4).jrow() for m in fresh]
    assert want[0] != want[1] and want[0] != want[2]
    first = [solve_fundamental(m, 4).jrow() for m in models]
    assert first == want
    assert [solve_fundamental(m, 4).jrow() for m in models] == first
    stored = json.loads((GOLDEN / "jfun-diff-q1-doubled.json").read_text(encoding="utf-8"))
    code, out, _ = _run(CORPUS["jfun-diff-q1-doubled"])
    assert (code, out) == (stored["exit"], _dump(stored["stdout"]))


def test_solver_memo_holds_nothing_keyed_by_order():
    # a lower order after a higher one reads the same compiled maps and
    # resolvents, and solves as a fresh copy of the model (nothing kept)
    # does: on f3 and on the rescaled f3, whose qden is 30
    from qcoh.sections import _resolvents, _solver_maps

    for m in (builtin_model("f3"), load_model(GOLDEN / "f3-rescaled.model")):
        m = ModelSpec.from_json(m.to_json())
        assert solve_fundamental(m, 8).order == 8
        assert {_solver_maps, _resolvents} <= set(m._compiled)
        fresh = ModelSpec.from_json(m.to_json())
        assert solve_fundamental(m, 3).rows == solve_fundamental(fresh, 3).rows


def test_closed_forms_are_compiled_per_model_not_per_name():
    # three models named f3 (the builtin, the rescaled one with qden 30 and
    # another cup table, and cp2's tables, which have no f3 closed form),
    # each built in turn: every closed form must read its own model's
    # factor actions, as a fresh copy of the model (nothing kept) does
    from qcoh.sections import _factor_actions

    named_cp2 = load_model(GOLDEN / "cp2-named-f3.model")
    models = [
        builtin_model("f3"),
        load_model(GOLDEN / "f3-rescaled.model"),
        named_cp2,
        builtin_model("f3"),
    ]
    assert {m.name for m in models} == {"f3"}
    for _ in range(2):
        for m in models:
            if m is named_cp2:
                with pytest.raises(LookupError, match="outside b_1..b_1"):
                    closed_form(m, 4)
                assert _factor_actions not in m._compiled
                continue
            fresh = ModelSpec.from_json(m.to_json())
            assert closed_form(m, 4) == closed_form(fresh, 4)
    assert closed_form(models[0], 4) != closed_form(models[1], 4)
    # the memo holds nothing keyed by order: a lower order after a higher one
    f3 = builtin_model("f3")
    assert closed_form(f3, 8).order == 8
    assert closed_form(f3, 3) == closed_form(ModelSpec.from_json(f3.to_json()), 3)


@pytest.mark.parametrize("case", sorted(QFACTOR_CORPUS))
def test_golden_q_factorization(case):
    name, order = QFACTOR_CORPUS[case]
    stored = _qfactor_path(name, order).read_text(encoding="utf-8")
    assert _dump(_qfactor(name, order)) == stored


@pytest.mark.parametrize("name", VALIDATE_MODELS)
def test_golden_validate_on_single_record_mutants(name):
    stored = _validate_path(name).read_text(encoding="utf-8")
    assert _dump(_validate(name)) == stored


if __name__ == "__main__":
    sys.exit(record())
