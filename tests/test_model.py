"""Model descriptions: structural invariants, serialization, resolution."""

import json
import os
import random
from fnmatch import fnmatch
from fractions import Fraction
from pathlib import Path

import pytest

import qcoh.model
from qcoh.algebra import HLaurent
from qcoh.cli import main
from qcoh.model import (
    BUILTIN_NAMES,
    CohClass,
    InvalidModel,
    ModelError,
    ModelSpec,
    builtin_model,
    cp_dimension,
    load_model,
    resolve_model,
    save_model,
)
from qcoh.operators import builtin_operators, builtin_relations, builtin_rowspec
from qcoh.sections import _solver_maps
from reference_tables import model_json, product_tables

# -- oracle data: global facts about each space ------------------------------
# (complex dimension, generator count, basis size, first-Chern pairings with
#  the curve-class basis)
MODEL_FACTS = {
    "cp1": (1, 1, 2, (2,)),
    "cp2": (2, 1, 3, (3,)),
    "cp3": (3, 1, 4, (4,)),
    "cp4": (4, 1, 5, (5,)),
    "cp5": (5, 1, 6, (6,)),
    "f3": (3, 2, 6, (2, 2)),
    "sigma1": (2, 2, 4, (1, 2)),
    "gr24": (4, 1, 6, (4,)),
}


def _problems(data):
    """The problems InvalidModel lists when the model JSON is built."""
    with pytest.raises(InvalidModel) as info:
        ModelSpec.from_json(data)
    return info.value.problems


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_models_validate_clean(name):
    # a fresh instance from the builtin's tables is built without a problem
    model = builtin_model(name)
    assert ModelSpec.from_json(model.to_json()).to_json() == model.to_json()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_model_facts(name):
    dim, rank, size, chern = MODEL_FACTS[name]
    model = builtin_model(name)
    assert (model.dim, model.rank, model.size) == (dim, rank, size)
    assert tuple(model.chern) == chern


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pairing_antidiagonal_in_degree(name):
    """Nonzero pairings only between complementary-degree classes, and the
    unit pairs with exactly the top class."""
    model = builtin_model(name)
    top = 2 * model.dim
    for i in range(model.size):
        for j in range(model.size):
            if model.pairing[i][j]:
                assert model.degrees[i] + model.degrees[j] == top
    assert model.pairing[0][model.size - 1] == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_basis_inverts_pairing(name):
    # the solver's dual rows: a_i = sum n/den b_k over the (k, n) of duals[i]
    model = builtin_model(name)
    duals, den = _solver_maps(model)[2:4]
    assert len(duals) == model.size
    for i, a in enumerate(duals):
        for j in range(model.size):
            # <a_i, b_j> = sum_k a_i[k] * pairing[k][j]
            val = sum(n * model.pairing[k][j] for k, n in a)
            assert val == (den if i == j else 0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_quantum_table_q0_is_cup(name):
    cup, quantum = product_tables(model_json(name))
    zero = (0,) * builtin_model(name).rank
    for key, parts in quantum.items():
        assert parts.get(zero, {}) == cup[key]


def _random_class(rng, size):
    return CohClass(
        tuple(
            HLaurent({rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(2)})
            if rng.random() < 0.7
            else HLaurent()
            for _ in range(size)
        )
    )


def _dense_cup(name, x, y):
    """b_i cup b_j read off the model's JSON cup table entry by entry."""
    out = [HLaurent()] * len(x.coords)
    for (i, j), coords in product_tables(model_json(name))[0].items():
        for k, c in coords.items():
            out[k] = out[k] + x.coords[i] * y.coords[j] * c
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sparse_cup_matches_dense_table(name):
    model = builtin_model(name)
    rng = random.Random(4711)
    for _ in range(20):
        x = _random_class(rng, model.size)
        y = _random_class(rng, model.size)
        assert list(model.cup(x, y).coords) == _dense_cup(name, x, y)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generator_action_lists_nonzero_cup_entries(name):
    model = builtin_model(name)
    cup = product_tables(model_json(name))[0]
    qden = model.quantum_rows()[0]
    for i in range(1, model.rank + 1):
        action = model.integral_action(i)
        assert len(action) == model.size
        for j, pairs in enumerate(action):
            assert pairs == tuple((k, c * qden) for k, c in sorted(cup[(i, j)].items()))


def test_describe_writes_unit_coordinates_as_the_label():
    labels = builtin_model("f3").labels
    coords = [HLaurent.const(c) for c in (1, -1, 0, 1, -1, Fraction(1, 2))]
    assert CohClass(coords).describe(labels) == "1 + -a + a^2 + -b^2 + 1/2*z"
    laurent = [HLaurent(), HLaurent.term(1, 1), HLaurent({0: 1, -1: 1})]
    laurent += [HLaurent()] * 3
    assert CohClass(laurent).describe(labels) == "h*a + (1 + h^-1)*b"


def test_cp_dimension_reads_cp_m_or_cp_of_m_only():
    assert [cp_dimension(n) for n in ("cp3", "cp(3)", "cp12")] == [3, 3, 12]
    for name in ("cp(3", "cp3)", "cp()", "cp", "xcp3", "cp-1", "cp3\n", "cp\u0663"):
        assert cp_dimension(name) is None, name


def test_cp_dimension_and_top_power():
    # x^m is the top class of CP^m and x * x^m = q * 1 in the quantum ring
    for m in range(1, 6):
        qden, table = builtin_model("cp%d" % m).quantum_rows()
        assert (qden, table[1][m]) == (1, ((1, (1,), ((0, 1),)),))


def test_unknown_builtin_name():
    with pytest.raises(ModelError):
        builtin_model("cp0")
    with pytest.raises(ModelError):
        builtin_model("nonsense")


def test_cp_above_the_builtin_limit_is_refused_before_it_is_built(monkeypatch):
    # cp<m> tables grow as m^2; refusing cp65 must not cost its build
    assert qcoh.model.CP_MAX == 64
    monkeypatch.setattr(qcoh.model, "_model_cp", None)
    with pytest.raises(ModelError, match="dimension >= 1 and <= 64"):
        builtin_model("cp65")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_save_load_round_trip(tmp_path, name):
    model = builtin_model(name)
    path = tmp_path / ("%s.model" % name)
    save_model(model, path)
    again = load_model(path)
    assert again.to_json() == model.to_json()


# -- shipped data files --------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
DATA_FILES = sorted(p for p in (ROOT / "src" / "qcoh" / "data").iterdir() if p.is_file())


def test_every_shipped_data_file_is_read_by_a_builtin_lookup(monkeypatch, capsys):
    # every file read goes through read_cached, which keys _BUILT by path;
    # a file no lookup reads is a second, unchecked copy of some data
    monkeypatch.setattr(qcoh.model, "_BUILT", {})
    for name in BUILTIN_NAMES:
        model = builtin_model(name)
        for lookup in (builtin_operators, builtin_relations, builtin_rowspec):
            try:
                lookup(model)
            except LookupError:
                pass
        assert main(["classical", "--model", name]) == 0
    capsys.readouterr()
    read = {Path(key[0]).resolve() for key in qcoh.model._BUILT}
    assert [p.name for p in DATA_FILES if p.resolve() not in read] == []


def test_every_shipped_data_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["qcoh"]
    unshipped = [
        p.name for p in DATA_FILES
        if not any(fnmatch("data/" + p.name, g) for g in globs)
    ]
    assert unshipped == []


def test_resolve_model_by_path_and_search_path(tmp_path):
    model = builtin_model("cp2")
    path = tmp_path / "custom.model"
    save_model(model, path)
    assert resolve_model(str(path)).to_json() == model.to_json()
    # NAME.model on the search path
    other = tmp_path / "mycp.model"
    save_model(model, other)
    found = resolve_model("mycp", [str(tmp_path)])
    assert found.to_json() == model.to_json()
    with pytest.raises(ModelError):
        resolve_model("mycp", [])


def test_from_json_missing_field():
    with pytest.raises(ModelError):
        ModelSpec.from_json({"name": "x"})


def _set(*path_and_value):
    """A mutation of model JSON that sets data[p0][p1]... to the value and
    returns the data."""
    *path, key, value = path_and_value

    def mutate(data):
        record = data
        for p in path:
            record = record[p]
        record[key] = value
        return data

    return mutate


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("cp2", _set("basis", 2, "label", "x"), "basis labels are not distinct"),
        ("cp2", _set("basis", 0, "degree", 2), "b_0 must have degree 0"),
        (
            "cp2",
            _set("basis", 2, "degree", 0),
            "the unit must be the only degree-0 basis element",
        ),
        (
            "cp2",
            _set("basis", 2, "degree", 6),
            "last basis element must have top degree 2*dim",
        ),
        (
            "cp2",
            _set("pairing", [[0, 0, 1], [0, 1, 0]]),
            "pairing matrix is not (s+1)x(s+1)",
        ),
        ("cp2", _set("pairing", 0, 1, 1), "pairing not symmetric at (0,1)"),
        ("cp1", _set("quantum", 2, "D", [-1]), "bad multidegree (-1,) in product (1,1)"),
        (
            "cp1",
            _set("cup", 0, "k", 7),
            "cup record {'i': 0, 'j': 0, 'k': 7, 'c': 1} out of range",
        ),
        (
            "cp1",
            _set("quantum", 0, "D", [0, 0]),
            "quantum record {'i': 0, 'j': 0, 'k': 0, 'D': [0, 0], 'c': '1'} has wrong rank",
        ),
        ("cp1", lambda data: list(data), "a model is a JSON object, not list"),
        (
            # graded and commutative, and b_0 is still the cup unit
            "f3",
            lambda data: {
                **data,
                "quantum": data["quantum"] + [{"i": 0, "j": 5, "k": 1, "D": [1, 0], "c": 1}],
            },
            "b_0 o b_5 has a q-term: b_0 is not the quantum unit",
        ),
    ],
    ids=[
        "labels", "unit-degree", "second-degree-0", "top-degree", "pairing-shape",
        "pairing-symmetry", "multidegree", "out-of-range", "wrong-rank", "not-an-object",
        "quantum-unit",
    ],
)
def test_model_json_problems_are_named(name, mutate, message):
    data = mutate(builtin_model(name).to_json())
    with pytest.raises(ModelError) as info:
        ModelSpec.from_json(data)
    assert message in info.value.problems


def test_validate_catches_degree_mutation(tmp_path):
    data = builtin_model("cp2").to_json()
    data["basis"][1]["degree"] = 4
    assert any("degree 2" in p for p in _problems(data))


def test_validate_catches_broken_unit():
    data = builtin_model("cp2").to_json()
    # make 1 . x pick up a wrong component
    for rec in data["cup"]:
        if rec["i"] == 0 and rec["j"] == 1:
            rec["k"] = 2
    assert any("unit" in p for p in _problems(data))


def test_validate_catches_quantum_grading_violation():
    data = builtin_model("cp2").to_json()
    # x * x^2 = q, a degree-6 identity; retarget it onto x to break grading
    for rec in data["quantum"]:
        if rec["D"] == [1] and rec["i"] == 1 and rec["j"] == 2:
            rec["k"] = 1
    assert any("grading" in p for p in _problems(data))


def test_validate_catches_singular_pairing():
    data = builtin_model("cp1").to_json()
    data["pairing"] = [[0, 0], [0, 0]]
    assert any("singular" in p or "grading" in p for p in _problems(data))


def test_model_json_is_deterministic(tmp_path):
    p1 = tmp_path / "a.model"
    p2 = tmp_path / "b.model"
    save_model(builtin_model("f3"), p1)
    save_model(builtin_model("f3"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_quantum_degrees_sorted():
    # QElem.__mul__ stops at the first term past the order, so each pair's
    # terms must ascend in (|D|, D)
    model = builtin_model("f3")
    quantum = product_tables(model_json("f3"))[1]
    for (i, j), parts in quantum.items():
        terms = model.quantum_rows()[1][i][j]
        assert [D for _, D, _ in terms] == sorted(parts, key=lambda D: (sum(D), D))
        assert [total for total, _, _ in terms] == [sum(D) for _, D, _ in terms]


GOLDEN_MODELS = ("f3-rescaled", "f3-nonintegrable", "f3-q1-doubled", "p1xp1-no-q2")


def _fractions(terms, qden):
    return {k: Fraction(n, qden) for k, n in terms}


@pytest.mark.parametrize("name", BUILTIN_NAMES + GOLDEN_MODELS)
def test_integral_tables_equal_the_fraction_tables(name):
    """quantum_rows and integral_action hold, over qden, exactly the
    entries of the Fraction quantum and cup tables of the model's JSON."""
    if name in GOLDEN_MODELS:
        model = load_model(Path(__file__).resolve().parent / "golden" / (name + ".model"))
    else:
        model = builtin_model(name)
    cup, quantum = product_tables(model_json(name))
    qden, table = model.quantum_rows()
    if name == "f3-rescaled":
        assert qden == 30
    for (i, j), parts in quantum.items():
        assert {D: _fractions(terms, qden) for _, D, terms in table[i][j]} == parts
    for j in range(1, model.rank + 1):
        for i in range(model.size):
            assert _fractions(model.integral_action(j)[i], qden) == cup[(j, i)]


def test_package_root_exports_model_api():
    import qcoh

    for name in (
        "ModelSpec",
        "ModelError",
        "builtin_model",
        "load_model",
        "save_model",
        "resolve_model",
        "BUILTIN_NAMES",
    ):
        assert hasattr(qcoh, name), name


# -- malformed files ----------------------------------------------------------

MALFORMED = sorted((Path(__file__).resolve().parent / "golden" / "bad").glob("*.model"))

# what each malformed file's error names, when not a field of one record
MALFORMED_MESSAGES = {
    "bad-duplicate-record.model": r"repeats \(i, j, k, D\) = \(5, 5, 4, \(1, 1\)\)",
}


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.name)
def test_malformed_field_raises_model_error_naming_it(path):
    match = MALFORMED_MESSAGES.get(path.name, "field '(D|c|dim)' is not")
    with pytest.raises(ModelError, match=match):
        load_model(path)
    with pytest.raises(ModelError, match=match):
        ModelSpec.from_json(json.loads(path.read_text()))


def test_repeated_cup_record_is_refused():
    # the last value would otherwise win silently
    data = builtin_model("cp2").to_json()
    data["cup"].append(dict(data["cup"][1], c=5))
    with pytest.raises(ModelError, match=r"cup record .* repeats \(i, j, k\) = \(0, 1, 1\)"):
        ModelSpec.from_json(data)


def test_validate_reports_a_chern_list_of_the_wrong_length_once():
    data = builtin_model("f3").to_json()
    data["chern"] = [2]
    assert _problems(data) == ["chern list has 1 entries, not rank 2"]


@pytest.mark.parametrize("degrees", [[0], [0, 2, 4]], ids=["shorter", "longer"])
def test_constructor_reports_a_degree_list_of_the_wrong_length(degrees):
    # the constructor takes labels and degrees as two lists (from_json
    # builds both from the same basis records), so their lengths can differ
    cup = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    quantum = {(0, 0): {(0,): {0: 1}}, (0, 1): {(0,): {1: 1}}, (1, 1): {(1,): {0: 1}}}
    args = ("p1", 1, 1, ["1", "x"], [0, 2], [[0, 1], [1, 0]], cup, quantum, [2])
    assert ModelSpec(*args).to_json() == builtin_model("cp1").to_json() | {"name": "p1"}
    with pytest.raises(InvalidModel) as info:
        ModelSpec(*args[:4], degrees, *args[5:])
    assert "degree list length != basis size" in info.value.problems


# -- one load per content --------------------------------------------------------


def _main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_file_edited_between_main_calls_is_reloaded(capsys, tmp_path):
    path = tmp_path / "edited.model"
    argv = ["models", "show", str(path)]
    save_model(builtin_model("cp2"), path)
    code, out, _ = _main(capsys, argv)
    assert code == 0 and json.loads(out)["dim"] == 2
    assert load_model(path) is load_model(path)
    save_model(builtin_model("cp3"), path)
    code, out, _ = _main(capsys, argv)
    assert code == 0 and json.loads(out)["dim"] == 3
    # an edit that keeps the file's length is seen as well
    path.write_text(path.read_text().replace('"cp3"', '"cq3"'))
    code, out, _ = _main(capsys, argv)
    assert code == 0 and json.loads(out)["name"] == "cq3"


def test_bad_edit_exits_2_and_the_old_model_is_not_served(capsys, tmp_path):
    path = tmp_path / "edited.model"
    argv = ["check", "--model", str(path), "--n", "2"]
    save_model(builtin_model("cp2"), path)
    good = path.read_bytes()
    assert _main(capsys, argv)[0] == 0
    invalid = builtin_model("cp2").to_json()
    invalid["basis"][1]["degree"] = 4
    edits = [bad.read_bytes() for bad in MALFORMED]
    edits += [b"{", json.dumps(invalid).encode()]
    for edit in edits:
        path.write_bytes(edit)
        for _ in range(2):
            code, out, err = _main(capsys, argv)
            assert code == 2 and not out
            assert "cannot load model" in json.loads(err)["error"]
    path.write_bytes(good)
    assert _main(capsys, argv)[0] == 0


def test_shared_model_cannot_be_mutated():
    model = builtin_model("f3")
    assert builtin_model("f3") is model
    assert builtin_model("cp2") is builtin_model("cp2")
    table = model.quantum_rows()[1]
    with pytest.raises(TypeError):
        table[0][0] = ()
    with pytest.raises(TypeError):
        table[1][1][0] = ()
    with pytest.raises(TypeError):
        model.integral_action(1)[0] = ()
    with pytest.raises(TypeError):
        model.aliases["x"] = "f3"
    with pytest.raises(AttributeError):
        model.labels = ()
    with pytest.raises(AttributeError):
        model.rank = 3
    with pytest.raises(AttributeError):
        del model.name


def test_fractional_basis_degree_is_refused_not_truncated():
    data = builtin_model("cp1").to_json()
    data["basis"][1]["degree"] = 2.9
    with pytest.raises(ModelError, match="basis record .* field 'degree' is not an integer: 2.9"):
        ModelSpec.from_json(data)
    # an integral float is still the integer it spells
    data["basis"][1]["degree"] = 2.0
    assert ModelSpec.from_json(data).degrees == (0, 2)


def _truncated_basis(name, size):
    """The model's JSON with only its first `size` basis elements."""
    data = builtin_model(name).to_json()
    data["basis"] = data["basis"][:size]
    for table in ("cup", "quantum"):
        data[table] = [r for r in data[table] if max(r["i"], r["j"], r["k"]) < size]
    data["pairing"] = [row[:size] for row in data["pairing"][:size]]
    return data


@pytest.mark.parametrize(
    "name,size", [("cp1", 0), ("f3", 2)], ids=["empty", "shorter-than-rank-plus-1"]
)
def test_validate_reports_a_basis_too_short_for_its_generators(capsys, tmp_path, name, size):
    data = _truncated_basis(name, size)
    problems = _problems(data)
    want = "basis has %d elements, fewer than rank + 1 = %d" % (size, data["rank"] + 1)
    assert problems[0].startswith(want)
    path = tmp_path / "short.model"
    path.write_text(json.dumps(data))
    for argv in (["models", "validate", str(path)], ["check", "--model", str(path)]):
        code, out, err = _main(capsys, argv)
        report = json.loads(out or err)
        assert code == (1 if argv[0] == "models" else 2)
        assert want in json.dumps(report)
