"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from qcoh.cli import _dump, main
from qcoh.model import builtin_model, save_model
from qcoh.operators import MAX_EXPONENT


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_order_checked(capsys, argv):
    """A negative --n exits 2 naming the flag, with nothing on stdout;
    --n 0 stays valid."""
    code, out, err = run(capsys, argv + ["--n", "-1"])
    assert code == 2 and not out
    assert "--n" in json.loads(err)["error"]
    code, out, _ = run(capsys, argv + ["--n", "0"])
    assert code == 0 and json.loads(out)["N"] >= 0


# -- models -------------------------------------------------------------------


def test_models_list(capsys):
    code, out, _ = run(capsys, ["models", "list"])
    assert code == 0
    assert json.loads(out)["models"] == [
        "cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1", "gr24",
    ]


def test_models_show(capsys):
    code, out, _ = run(capsys, ["models", "show", "f3"])
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 6 and data["rank"] == 2
    assert data["labels"] == ["1", "a", "b", "a^2", "b^2", "z"]


def test_models_show_unknown_exits_2(capsys):
    code, out, err = run(capsys, ["models", "show", "nope"])
    assert code == 2
    assert "error" in json.loads(err)


def test_models_validate_good_file(capsys, tmp_path):
    path = tmp_path / "ok.model"
    save_model(builtin_model("cp2"), path)
    code, out, _ = run(capsys, ["models", "validate", str(path)])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


ROOT = Path(__file__).resolve().parent.parent
MODEL_FILES = sorted(ROOT.glob("src/qcoh/data/*.model")) + sorted(
    ROOT.glob("tests/golden/*.model")
)


@pytest.mark.parametrize(
    "path", MODEL_FILES, ids=[str(p.relative_to(ROOT)) for p in MODEL_FILES]
)
def test_shipped_and_golden_model_files_validate(capsys, path):
    # the malformed files under tests/golden/bad are pinned by the golden corpus
    code, out, _ = run(capsys, ["models", "validate", str(path)])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_models_validate_broken_model_exits_1(capsys, tmp_path):
    data = builtin_model("cp2").to_json()
    data["basis"][1]["degree"] = 4
    path = tmp_path / "broken.model"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["models", "validate", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and report["problems"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check", "--model", "cp1", "--relations", "{tmp}/none.rel"],
            "no such expression file: '{tmp}/none.rel'",
        ),
        (
            ["jfun", "--model", "cp1", "--closed-form", "--verify", "{tmp}/none.ops"],
            "no such expression file: '{tmp}/none.ops'",
        ),
        (
            ["models", "validate", "{tmp}"],
            "cannot read '{tmp}': [Errno 21] Is a directory: '{tmp}'",
        ),
    ],
    ids=["relations", "verify", "validate"],
)
def test_unreadable_input_exits_2_naming_it(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message.format(tmp=tmp_path)


DEEP = {
    "brackets.ops": "(" * 3000 + "D1^2 - q1" + ")" * 3000 + "\n",
    "minus-signs.ops": "-" * 3000 + "D1\n",
    "nested.model": "[" * 100000 + "]" * 100000,
}
VERIFY = ["jfun", "--model", "cp1", "--closed-form", "--verify"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (VERIFY + ["brackets.ops"], "{path!r}, line 1: expression nested too deeply"),
        (VERIFY + ["minus-signs.ops"], "{path!r}, line 1: expression nested too deeply"),
        (["models", "show", "nested.model"], "cannot load model {path!r}: JSON nested too deeply"),
        (["models", "validate", "nested.model"], "{path!r} has JSON nested too deeply"),
    ],
    ids=["brackets", "minus-signs", "show", "validate"],
)
def test_deep_nesting_exits_2(capsys, tmp_path, argv, message):
    """Input nested past the recursion limit is bad input, not a crash."""
    name = argv[-1]
    path = tmp_path / name
    path.write_text(DEEP[name])
    code, out, err = run(capsys, argv[:-1] + [str(path)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message.format(path=str(path))


@pytest.mark.parametrize(
    "argv, line",
    [
        (VERIFY, "D1^1000000000 - q1"),
        (["check", "--model", "cp1", "--relations"], "b1^1000000000 - q1"),
    ],
    ids=["verify", "relations"],
)
def test_exponent_too_large_exits_2(capsys, tmp_path, argv, line):
    """A power is built by repeated products, so an exponent past the
    maximum is refused while parsing, not computed for hours."""
    path = tmp_path / "big.txt"
    path.write_text(line + "\n")
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    message = "%r, line 1: exponent too large: at most %d (at position 3)"
    assert json.loads(err)["error"] == message % (str(path), MAX_EXPONENT)


def test_models_validate_non_json_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["models", "validate", str(path)])
    assert code == 2
    assert "error" in json.loads(err)


NOT_UTF8 = {"bad.ops": b"# a comment\n\xff\n", "bad.model": b'{"name": "\xff"}'}
DECODER = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"


@pytest.mark.parametrize(
    "argv, message",
    [
        (VERIFY + ["bad.ops"], "{path!r}, line 2: not valid UTF-8: invalid start byte"),
        (
            ["check", "--model", "cp1", "--relations", "bad.ops"],
            "{path!r}, line 2: not valid UTF-8: invalid start byte",
        ),
        (
            ["jfun", "--solve", "--n", "1", "--model", "bad.model"],
            "cannot load model {path!r}: not valid JSON: " + DECODER,
        ),
        (["models", "validate", "bad.model"], "{path!r} is not valid JSON: " + DECODER),
    ],
    ids=["verify", "relations", "model", "validate"],
)
def test_input_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, argv, message):
    name = argv[-1]
    path = tmp_path / name
    path.write_bytes(NOT_UTF8[name])
    code, out, err = run(capsys, argv[:-1] + [str(path)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == message.format(path=str(path))


def test_model_path_env_var(capsys, tmp_path, monkeypatch):
    save_model(builtin_model("cp3"), tmp_path / "local.model")
    monkeypatch.setenv("QCOH_MODEL_PATH", str(tmp_path))
    code, out, _ = run(capsys, ["models", "show", "local"])
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_builtin_name_wins_over_directory_of_that_name(capsys, tmp_path, monkeypatch):
    (tmp_path / "cp1").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["jfun", "--model", "cp1", "--closed-form", "--n", "2"])
    assert code == 0 and not err
    assert json.loads(out)["model"] == "cp1"


def test_bad_builtin_dimension_reports_its_cause(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["jfun", "--model", "cp0", "--closed-form"])
    assert code == 2 and not out
    message = json.loads(err)["error"]
    assert "dimension >= 1" in message and "no model named" not in message


def test_model_file_in_working_directory_still_loads(capsys, tmp_path, monkeypatch):
    save_model(builtin_model("cp2"), tmp_path / "mine.model")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["models", "show", "mine.model"])
    assert code == 0 and json.loads(out)["dim"] == 2


# -- check --------------------------------------------------------------------


def test_check_flatness_assoc(capsys):
    code, out, _ = run(capsys, ["check", "--model", "f3", "--flatness", "--assoc"])
    assert code == 0
    data = json.loads(out)
    assert [c["check"] for c in data["checks"]] == ["flatness", "associativity"]
    assert data["status"] == "pass"


def test_check_relations_by_name(capsys):
    code, out, _ = run(capsys, ["check", "--model", "gr24", "--relations", "gr24.rel"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["check"] == "relations"
    assert data["checks"][0]["status"] == "pass"


def test_check_defaults_to_all(capsys):
    code, out, _ = run(capsys, ["check", "--model", "sigma1", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert {c["check"] for c in data["checks"]} == {
        "flatness", "associativity", "relations",
    }


def test_check_failing_relation_exits_1(capsys, tmp_path):
    rel = tmp_path / "wrong.rel"
    rel.write_text("b1^2 - 2*q1\n")
    code, out, _ = run(
        capsys, ["check", "--model", "cp1", "--relations", str(rel)]
    )
    assert code == 1
    assert json.loads(out)["status"] == "fail"


NO_EXPRESSIONS = {"empty": "", "comments-only": "# nothing here\n\n   # still nothing\n"}


@pytest.mark.parametrize("kind", sorted(NO_EXPRESSIONS))
def test_check_relation_file_without_expressions_exits_2(capsys, tmp_path, kind):
    rel = tmp_path / "none.rel"
    rel.write_text(NO_EXPRESSIONS[kind])
    code, out, err = run(
        capsys, ["check", "--model", "cp1", "--relations", str(rel)]
    )
    assert code == 2
    assert out == ""
    assert str(rel) in json.loads(err)["error"]


def test_check_negative_order_exits_2(capsys):
    assert_order_checked(capsys, ["check", "--model", "cp1"])


# -- jfun ---------------------------------------------------------------------


def test_jfun_requires_construction(capsys):
    code, _, err = run(capsys, ["jfun", "--model", "cp1"])
    assert code == 2


def test_jfun_negative_order_exits_2(capsys):
    assert_order_checked(capsys, ["jfun", "--model", "cp1", "--solve"])


def test_jfun_closed_form_verify(capsys):
    code, out, _ = run(
        capsys,
        ["jfun", "--model", "cp1", "--closed-form", "--verify", "cpm.ops"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["status"] == "pass"
    assert data["construction"] == "closed-form"
    # degree-0 coefficient of J is the unit class
    head = data["J"][0]
    assert head["degree"] == [0] and head["coeffs"] == {"1": [[0, "1"]]}


def test_jfun_diff_solver_vs_closed_form(capsys):
    code, out, _ = run(capsys, ["jfun", "--model", "f3", "--n", "4", "--diff"])
    assert code == 0
    data = json.loads(out)
    assert data["diff"]["status"] == "pass"
    assert data["construction"] == "both"


def test_jfun_gr24_closed_form_unavailable(capsys):
    code, _, err = run(capsys, ["jfun", "--model", "gr24", "--closed-form"])
    assert code == 2


def test_jfun_wrong_operator_exits_1(capsys, tmp_path):
    ops = tmp_path / "wrong.ops"
    ops.write_text("D1^2 - 2*q1\n")
    code, out, _ = run(
        capsys,
        ["jfun", "--model", "cp1", "--closed-form", "--verify", str(ops)],
    )
    assert code == 1
    assert json.loads(out)["verification"]["status"] == "fail"


@pytest.mark.parametrize("kind", sorted(NO_EXPRESSIONS))
def test_jfun_operator_file_without_expressions_exits_2(capsys, tmp_path, kind):
    ops = tmp_path / "none.ops"
    ops.write_text(NO_EXPRESSIONS[kind])
    code, out, err = run(
        capsys,
        ["jfun", "--model", "cp1", "--closed-form", "--verify", str(ops)],
    )
    assert code == 2
    assert out == ""
    assert str(ops) in json.loads(err)["error"]


def test_jfun_out_file_matches_stdout(capsys, tmp_path):
    dest = tmp_path / "J.json"
    code, out, _ = run(
        capsys,
        ["jfun", "--model", "cp2", "--closed-form", "--out", str(dest)],
    )
    assert code == 0
    assert dest.read_text() == out


def assert_unwritable_out_exits_2(capsys, argv, dest):
    """--out to a path that cannot be written exits 2 naming the path, with
    nothing on stdout."""
    code, out, err = run(capsys, argv + ["--out", str(dest)])
    assert code == 2 and out == ""
    assert str(dest) in json.loads(err)["error"]


def test_jfun_out_to_a_missing_directory_exits_2(capsys, tmp_path):
    argv = ["jfun", "--model", "cp1", "--solve", "--n", "1"]
    assert_unwritable_out_exits_2(capsys, argv, tmp_path / "missing" / "x.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["jfun", "--model", "cp1", "--solve", "--n", "1"],
        ["gw", "--model", "cp1", "--max-degree", "2"],
    ],
    ids=["jfun", "gw"],
)
def test_empty_out_exits_2(capsys, argv):
    # an empty path is a path that cannot be written, not a missing --out
    code, out, err = run(capsys, argv + ["--out", ""])
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


# -- gw -----------------------------------------------------------------------


def test_gw_cp1_table_values(capsys):
    code, out, _ = run(capsys, ["gw", "--model", "cp1", "--max-degree", "3"])
    assert code == 0
    data = json.loads(out)
    rows = {
        (tuple(r["D"]), r["n"], r["j_label"]): r for r in data["invariants"]
    }
    assert rows[((2,), 3, "x")]["value"] == "1/4"
    assert rows[((2,), 4, "1")]["value"] == "-3/4"
    assert rows[((3,), 5, "x")]["value"] == "1/36"
    assert rows[((3,), 6, "1")]["value"] == str(
        Fraction(-2) * (Fraction(1) + Fraction(1, 2) + Fraction(1, 3)) / 36
    )


def test_gw_flags_forced_zeros(capsys):
    code, out, _ = run(capsys, ["gw", "--model", "cp1", "--max-degree", "2"])
    assert code == 0
    data = json.loads(out)
    forced = [r for r in data["invariants"] if not r["axiom"]]
    assert forced
    for r in forced:
        assert r["value"] == "0"
        assert r["note"] == "forced by degree axiom"


def test_gw_deterministic_and_out(capsys, tmp_path):
    args = ["gw", "--model", "sigma1", "--max-degree", "2"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    dest = tmp_path / "gw.json"
    code3, out3, _ = run(capsys, args + ["--out", str(dest)])
    assert dest.read_text() == out3 == out1


def test_gw_out_to_a_directory_exits_2(capsys, tmp_path):
    argv = ["gw", "--model", "cp1", "--max-degree", "2"]
    assert_unwritable_out_exits_2(capsys, argv, tmp_path)


def test_gw_bad_degree_exits_2(capsys):
    code, _, err = run(capsys, ["gw", "--model", "cp1", "--max-degree", "0"])
    assert code == 2


def test_gw_negative_order_exits_2(capsys):
    assert_order_checked(capsys, ["gw", "--model", "cp1", "--max-degree", "1"])


# -- classical ------------------------------------------------------------------


def test_classical_f3(capsys):
    code, out, _ = run(capsys, ["classical", "--model", "f3"])
    assert code == 0
    data = json.loads(out)
    assert data["fixture"] == "match"
    assert data["identity_at_origin"] is True
    assert data["annihilation"] and all(
        a["status"] == "pass" for a in data["annihilation"]
    )


def test_classical_sigma1(capsys):
    code, out, _ = run(capsys, ["classical", "--model", "sigma1"])
    assert code == 0
    assert json.loads(out)["fixture"] == "match"


def test_classical_fixture_matches_a_rational_quantum_table_in_the_builtin_basis(capsys):
    # the classical limit sees only the cup table, which f3-q1-halved shares
    # with f3, although its quantum table is over 2
    path = Path(__file__).resolve().parent / "golden" / "f3-q1-halved.model"
    code, out, _ = run(capsys, ["classical", "--model", str(path)])
    assert code == 0
    assert json.loads(out)["fixture"] == "match"


def test_classical_without_fixture(capsys):
    code, out, _ = run(capsys, ["classical", "--model", "cp4"])
    assert code == 0
    data = json.loads(out)
    assert data["fixture"] == "absent" and data["status"] == "pass"


def test_classical_builds_the_cup_exponential_once(capsys, monkeypatch):
    from qcoh import cli
    from qcoh.algebra import HLaurent
    from qcoh.model import CohClass

    builtin_model("f3")  # loading the model builds its CohClass tables, once
    calls = []

    def counting(build):
        def wrapper(*args, **kwargs):
            calls.append(build.__qualname__)
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "asymptotic_H", counting(cli.asymptotic_H))
    for cls in (HLaurent, CohClass):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    code, _, _ = run(capsys, ["classical", "--model", "f3"])
    # no HLaurent or CohClass on the way: the output is written from int rows
    assert code == 0 and calls == ["asymptotic_H"]


def test_classical_failing_annihilation_exits_1(capsys, tmp_path):
    # the ring of P^3 under the name cp2: the shipped operator of cp2, D1^3,
    # does not annihilate its classical J, and no fixture applies
    data = builtin_model("cp3").to_json()
    data["name"] = "cp2"
    path = tmp_path / "cp3-named-cp2.model"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, ["classical", "--model", str(path)])
    assert code == 1
    data = json.loads(out)
    assert data["fixture"] == "absent" and data["status"] == "fail"
    assert data["annihilation"] == [{"operator": "D1^3", "status": "fail"}]


# -- tilde ------------------------------------------------------------------------


def test_tilde_cp1_default_order(capsys):
    code, out, _ = run(capsys, ["tilde", "--model", "cp1"])
    assert code == 0
    data = json.loads(out)
    assert data["t_order"] == 6
    (res,) = data["residuals"]
    assert res["status"] == "pass" and res["checked_t_order"] == 4
    assert data["v_at_h1"]


def test_tilde_f3_both_defining_operators(capsys):
    code, out, _ = run(capsys, ["tilde", "--model", "f3", "--t-order", "5"])
    assert code == 0
    data = json.loads(out)
    assert len(data["residuals"]) == 2
    assert all(r["status"] == "pass" for r in data["residuals"])


def test_tilde_short_order_warns(capsys):
    code, out, _ = run(capsys, ["tilde", "--model", "cp1", "--t-order", "2"])
    assert code == 0
    assert "warning" in json.loads(out)


def test_tilde_rejects_tiny_order(capsys):
    code, _, err = run(capsys, ["tilde", "--model", "cp1", "--t-order", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "model, torder, operator, degree",
    [("cp5", 3, "D1^6 - q1", 6), ("f3", 2, "D1*D2^2 - D1^2*D2 + q1*D2 - q2*D1", 3)],
)
def test_tilde_order_below_an_operator_degree_exits_2(capsys, model, torder, operator, degree):
    # such an order would check no residual of the operator at all
    code, out, err = run(capsys, ["tilde", "--model", model, "--t-order", str(torder)])
    assert code == 2 and not out
    error = json.loads(err)["error"]
    assert operator in error and "theta-degree %d" % degree in error
    code, out, _ = run(capsys, ["tilde", "--model", model, "--t-order", str(degree)])
    assert code == 0
    assert min(r["checked_t_order"] for r in json.loads(out)["residuals"]) == 0


def test_tilde_negative_order_exits_2(capsys):
    assert_order_checked(capsys, ["tilde", "--model", "cp1"])


def test_tilde_v_leading_terms(capsys):
    code, out, _ = run(capsys, ["tilde", "--model", "cp1", "--t-order", "3"])
    data = json.loads(out)
    v = {tuple(rec["t"]): rec["terms"] for rec in data["v_at_h1"]}
    assert v[(0,)] == [{"degree": [0], "coeffs": {"1": "1"}}]
    assert v[(1,)] == [{"degree": [0], "coeffs": {"x": "1"}}]
    # t^2/2: x o x = q, at h=1 the coefficient is q/2 on the unit
    assert v[(2,)] == [{"degree": [1], "coeffs": {"1": "1/2"}}]


# -- global behavior -----------------------------------------------------------------


def test_all_reports_have_sorted_keys(capsys):
    for argv in (
        ["check", "--model", "cp1"],
        ["jfun", "--model", "cp1", "--closed-form"],
        ["gw", "--model", "cp1", "--max-degree", "1"],
        ["classical", "--model", "cp1"],
        ["tilde", "--model", "cp1", "--t-order", "3"],
        # the largest tables the record writers write; no golden pins them
        ["gw", "--model", "f3", "--max-degree", "4"],
        ["jfun", "--model", "f3", "--solve", "--n", "12"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        data = json.loads(out)
        assert out == json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_dump_writes_the_bytes_of_json_dumps():
    payload = {
        "b": [True, False, None, -3, 10**30, "é\n\"x\u2028"],
        "a": {"z": [], "y": {}, "x": [[1, [2]], {"k": "v"}]},
        "t": (1, "two"),
    }
    assert _dump(payload) == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    for bad in (1.5, Fraction(1, 2), {1: "int key"}, {"set": {1}}):
        with pytest.raises(TypeError):
            _dump(bad)


def test_console_entry_point_installed():
    import shutil
    import subprocess

    exe = shutil.which("qcoh")
    if exe is None:
        pytest.skip("qcoh entry point not on PATH")
    proc = subprocess.run(
        [exe, "models", "list"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "f3" in proc.stdout


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """main builds its parser once; a sequence of calls in one process,
    including an argparse usage error, prints what fresh processes print,
    and exits as they do with each of the codes 0, 1 and 2."""
    import subprocess
    import sys

    import qcoh

    src = os.path.dirname(os.path.dirname(os.path.abspath(qcoh.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    doubled = str(Path(__file__).resolve().parent / "golden" / "f3-q1-doubled.model")
    calls = (
        ["check", "--model", "cp1", "--relations", "cpm.rel"],
        ["check", "--model", "cp1"],
        ["check", "--model", "cp1", "--n"],
        ["tilde", "--model", "cp1"],
        ["jfun", "--model", doubled, "--diff", "--n", "2"],
        ["jfun", "--model", "cp1", "--solve", "--n", "-1"],
    )
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
        fresh = subprocess.run(
            [sys.executable, "-m", "qcoh.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 1, 2]
    # the plain check runs every check, not only the relations of the call
    # before it
    checks = json.loads(results[1][1])["checks"]
    assert [c["check"] for c in checks] == ["flatness", "associativity", "relations"]
    assert checks[2]["source"] == "builtin"
