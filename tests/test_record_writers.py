"""The record writers of `cli._dump`: a `_TildeTable` or `_TPolyMatrix`
must be written as the same string the generic walk writes for the same
records in a plain list, a `_JSeries` over a stored series (flat, den) as
the string it writes for the series' `to_json()` records, and a `_GWTable`
of per-degree rows as the string it writes for the dict records gw's
per-record loop expanded them to, at any indent, whatever order the coeff
dicts or labels come in.  gw builds the same records as that loop did on
every builtin and the golden models."""

import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh import cli, sections
from qcoh.algebra import format_rational
from qcoh.cli import _build_parser, _dump, _get_model, _GWTable, _JSeries, _TildeTable, _TPolyMatrix
from qcoh.model import BUILTIN_NAMES
from qcoh.sections import HMatrix, descendent_level, extract_descendents, solve_fundamental
from qcoh.series import CohSeries, _components, _degree_order, _degrees_upto

GOLDEN = Path(__file__).resolve().parent / "golden"

# labels JSON must escape, the empty label, and % signs a template must not read
AWKWARD = ['"', "\\", "é", "\u2028", " ", "", 'x"\\é', '"1"', "%", "%d", "%%s"]

WRAPS = (lambda t: t, lambda t: {"J": t, "N": 1}, lambda t: [[t], 0])


def _reversed_coeffs(records):
    """The records with each coeffs dict built in reverse label order."""
    return [
        {**r, "coeffs": {k: r["coeffs"][k] for k in sorted(r["coeffs"], reverse=True)}}
        for r in records
    ]


def _reversed_terms(records):
    """The tilde records with each term's coeffs built in reverse label order."""
    return [{**r, "terms": _reversed_coeffs(r["terms"])} for r in records]


def _j_series(records, reverse=False):
    """The `_JSeries` of the stored series whose `to_json()` the J records
    are: its (flat, den) over the lcm of their denominators, with the labels
    in sorted order, or in reverse so that b_k order is not label order."""
    labels = sorted({k for r in records for k in r["coeffs"]}, reverse=reverse)
    index = {k: i for i, k in enumerate(labels)}
    values = [(r["degree"], k, x, Fraction(v)) for r in records for k in r["coeffs"]
              for x, v in r["coeffs"][k]]
    den = lcm(*(v.denominator for *_, v in values))
    flat = {}
    for D, k, x, v in values:
        flat.setdefault(tuple(D), {})[index[k], x] = int(v * den)
    return _JSeries(flat, den, labels)


def _assert_written_alike(records, kind):
    """`kind(records)` and the plain list are written alike at the top
    level, inside a dict and inside two lists."""
    for wrap in WRAPS:
        assert _dump(wrap(kind(records))) == _dump(wrap(list(records)))


def _degree_records(D, top, allowed, labels, value):
    """gw's record loop before the per-degree table, at the degree D: for
    each level n up to top and each b_j, the axiom record at allowed[j],
    valued value(j), and a zero record with the note elsewhere."""
    records = []
    for n in range(top + 1):
        for j, label in enumerate(labels):
            axiom = allowed[j] == n
            rec = {
                "D": list(D),
                "n": n,
                "j_label": label,
                "value": value(j) if axiom else "0",
                "axiom": axiom,
            }
            if not axiom:
                rec["note"] = "forced by degree axiom"
            records.append(rec)
    return records


def _gw_records(table):
    """The dict records that the record loop expands a `_GWTable` to."""
    return [
        rec
        for D, top, allowed, values in table
        for rec in _degree_records(D, top, allowed, table.labels, values.__getitem__)
    ]


def _reference_descendents(model, Hm, max_degree):
    """The descendent records as they were read before the one-pass table:
    the J-row's components paired back from its b_k coordinates
    (`series._components`), a Fraction per record and two sorts.  Every
    entry must sit at a negative h power at the level the axiom allows."""
    comps, den = _components(Hm.jrow())
    entries = sorted(
        (j, _degree_order(D), exp, n)
        for D, terms in comps.items()
        if any(D) and sum(D) <= max_degree
        for (j, exp), n in terms.items()
    )
    records = []
    for j, (_, D), exp, n in entries:
        assert exp < 0 and -exp - 1 == descendent_level(model, j, D), (D, j, exp)
        records.append(
            {"degree": list(D), "level": -exp - 1, "label": model.labels[j], "j": j,
             "value": Fraction(n, den)}
        )
    records.sort(key=lambda r: (sum(r["degree"]), r["degree"], r["level"], r["j"]))
    return records


def _parent_gw_records(model, max_degree, order, level=descendent_level):
    """gw's invariant records as its per-record loop built them from
    `_reference_descendents`, with level in place of `descendent_level`:
    the reference the table is held to."""
    Hm = solve_fundamental(model, order)
    records = _reference_descendents(model, Hm, max_degree)
    found = {(tuple(r["degree"]), r["j"]): r["value"] for r in records}
    table = []
    for D in _degrees_upto(model.rank, max_degree)[1:]:
        allowed = [level(model, j, D) for j in range(model.size)]
        top = max((m for m in allowed if m is not None), default=-1)
        table += _degree_records(
            D, top, allowed, model.labels, lambda j: format_rational(found.get((D, j), 0))
        )
    return table


def _gw_table(argv):
    """The `_GWTable` that `cmd_gw` builds for argv."""
    args = _build_parser().parse_args(argv)
    return args.func(args)["invariants"]


def _assert_gw_written_alike(table, records):
    for wrap in WRAPS:
        assert _dump(wrap(table)) == _dump(wrap(records))


def _golden_records(prefix, key):
    """{case: its stdout[key]} for the golden cases named prefix*."""
    out = {}
    for path in sorted(GOLDEN.glob(prefix + "*.json")):
        stdout = json.loads(path.read_text(encoding="utf-8"))["stdout"]
        if stdout is not None and key in stdout:
            out[path.stem] = stdout[key]
    return out


GW_GOLDENS = _golden_records("gw-", "invariants")
GW_ARGV = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))["argv"]
    for path in GOLDEN.glob("gw-*.json")
}
J_GOLDENS = _golden_records("jfun-", "J")
TILDE_GOLDENS = _golden_records("tilde-", "v_at_h1")
MATRIX_GOLDENS = _golden_records("classical-", "matrix")


def test_the_goldens_hold_the_payloads():
    # every gw, tilde and classical case holds its payload; a jfun case
    # that exits 2 or fails in the solver holds no J
    assert len(GW_GOLDENS) == len(list(GOLDEN.glob("gw-*.json"))) >= 12
    assert len(J_GOLDENS) >= 20
    assert len(TILDE_GOLDENS) == len(list(GOLDEN.glob("tilde-*.json"))) >= 14
    assert len(MATRIX_GOLDENS) == len(list(GOLDEN.glob("classical-*.json"))) >= 10
    # some matrix entry is empty
    assert any(not e for m in MATRIX_GOLDENS.values() for row in m for e in row)


@pytest.mark.parametrize("name", sorted(GW_GOLDENS))
def test_gw_writer_on_golden_payload(name, monkeypatch):
    # the golden argv name model files by their bare names in tests/golden
    monkeypatch.chdir(GOLDEN)
    table = _gw_table(GW_ARGV[name])
    assert type(table) is _GWTable
    _assert_gw_written_alike(table, GW_GOLDENS[name])


GW_MODELS = (*BUILTIN_NAMES, "quoted-labels.model", "f3-rescaled.model")


@pytest.mark.parametrize("model", GW_MODELS)
@pytest.mark.parametrize("max_degree", range(1, 6))
@pytest.mark.parametrize("above", [False, True], ids=["n0", "n-above"])
def test_gw_table_expands_to_the_per_record_loop(model, max_degree, above, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    n = max_degree + 2 if above else 0
    argv = ["gw", "--model", model, "--max-degree", str(max_degree), "--n", str(n)]
    table = _gw_table(argv)
    spec, order = _get_model(model), max(n, max_degree)
    parent = _parent_gw_records(spec, max_degree, order)
    assert _gw_records(table) == parent
    Hm = solve_fundamental(spec, order)
    assert extract_descendents(spec, Hm, max_degree) == _reference_descendents(spec, Hm, max_degree)
    assert table.labels == _get_model(model).labels
    # every row has an allowed level, so every row writes a block
    assert all(any(m is not None for m in allowed) for _, _, allowed, _ in table)
    _assert_gw_written_alike(table, parent)


def test_gw_skips_the_degrees_with_no_allowed_level(monkeypatch):
    # no shipped or golden model has such a degree: the axiom allows none
    # here on every odd |D|, or on every degree, and the J-row reads zero
    # there (a nonzero invariant at such a degree fails the check)
    def odd_none(model, j, D):
        return None if sum(D) % 2 else descendent_level(model, j, D)

    model, read = _get_model("f3"), HMatrix.jcomponents
    for level, blocks in ((odd_none, True), (lambda *_: None, False)):
        monkeypatch.setattr(sections, "descendent_level", level)
        zero = lambda Hm, D, level=level: ({}, 1) if level(model, 0, D) is None else read(Hm, D)
        monkeypatch.setattr(HMatrix, "jcomponents", zero)
        table = _gw_table(["gw", "--model", "f3", "--max-degree", "4"])
        assert [sum(D) for D, *_ in table] == ([2, 2, 2, 4, 4, 4, 4, 4] if blocks else [])
        parent = _parent_gw_records(model, 4, 6, level)
        assert bool(parent) is blocks
        _assert_gw_written_alike(table, parent)
    assert _dump(table) == "[]\n"


def test_gw_fails_on_an_invariant_where_the_level_lookup_allows_none(monkeypatch, capsys):
    # the extraction pass looks the level up; with none allowed at one
    # (D, j) whose invariant is nonzero, the check on the solver's
    # components must exit 1 naming that degree and component
    model = _get_model("f3")
    records = _parent_gw_records(model, 2, 6)
    r, *_ = [r for r in records if r["D"] == [1, 0] and r["axiom"] and r["value"] != "0"]
    j = model.labels.index(r["j_label"])
    forbid = lambda m, k, D: None if (D, k) == ((1, 0), j) else descendent_level(m, k, D)
    monkeypatch.setattr(sections, "descendent_level", forbid)
    assert cli.main(["gw", "--model", "f3", "--max-degree", "2"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["check"] == "descendent-extraction"
    assert report["witnesses"] == [{
        "degree": [1, 0],
        "component": r["j_label"],
        "level": r["n"],
        "value": r["value"],
        "detail": "nonzero value where the degree axiom forces zero",
    }]


@pytest.mark.parametrize("name", sorted(J_GOLDENS))
def test_j_writer_on_golden_payload(name):
    J = J_GOLDENS[name]
    _assert_written_alike(J, _j_series)
    # the writer orders the labels itself, not by b_k or dict insertion order
    _assert_written_alike(J, lambda records: _j_series(records, reverse=True))


@pytest.mark.parametrize("name", sorted(TILDE_GOLDENS))
def test_tilde_writer_on_golden_payload(name):
    table = TILDE_GOLDENS[name]
    _assert_written_alike(table, _TildeTable)
    _assert_written_alike(_reversed_terms(table), _TildeTable)


@pytest.mark.parametrize("name", sorted(MATRIX_GOLDENS))
def test_matrix_writer_on_golden_payload(name):
    _assert_written_alike(MATRIX_GOLDENS[name], _TPolyMatrix)


def test_empty_tables():
    for kind in (_TildeTable, _TPolyMatrix):
        _assert_written_alike([], kind)
        assert _dump(kind()) == "[]\n"
    _assert_gw_written_alike(_GWTable(["1", "x"]), [])
    assert _dump(_GWTable(["1", "x"])) == "[]\n"
    _assert_written_alike([], _j_series)
    assert _dump(_JSeries({}, 1, ["1", "x"])) == "[]\n"


def test_coeff_insertion_order_differs_from_label_order():
    record = {
        "degree": [2, 0],
        "coeffs": {"z": [[-3, "1/2"]], "a": [[-1, "-7"], [0, "1"]], "": [[4, "3"]]},
    }
    assert list(record["coeffs"]) != sorted(record["coeffs"])
    _assert_written_alike([record], _j_series)
    _assert_written_alike([record], lambda records: _j_series(records, reverse=True))
    term = {"degree": [1, 0], "coeffs": {"z": "1/2", "a": "-7", "": "3"}}
    assert list(term["coeffs"]) != sorted(term["coeffs"])
    _assert_written_alike([{"t": [0, 2], "terms": [term]}], _TildeTable)


def test_rank_0_lists_and_empty_entries():
    # a rank-0 model has empty t-exponents and degrees
    tilde = {"t": [], "terms": [{"coeffs": {"1": "1"}, "degree": []}]}
    _assert_written_alike([tilde, {"t": [2], "terms": []}], _TildeTable)
    rows = [[[], [{"h": [[0, "1"]], "t": []}]], [], [[]]]
    _assert_written_alike(rows, _TPolyMatrix)


def test_negative_exponents_and_long_numerators():
    value = str(Fraction(-(10**29) - 7, 3**20))
    assert len(value.split("/")[0]) == 31  # a sign and 30 digits
    gw = _GWTable(["\u2028", "%d"])
    gw.append(((0, 3), 12, [12, None], [value, None]))
    records = _gw_records(gw)
    assert len(records) == 26
    assert records[-2] == {"D": [0, 3], "axiom": True, "j_label": "\u2028", "n": 12, "value": value}
    J = {"degree": [0], "coeffs": {"é": [[-40, value], [-2, "0"]]}}
    _assert_gw_written_alike(gw, records)
    _assert_written_alike([J], _j_series)
    term = {"coeffs": {"\u2028": value, "é": "-2"}, "degree": [40, 0]}
    _assert_written_alike([{"t": [0, 3], "terms": [term]}], _TildeTable)
    entry = [{"h": [[-40, value]], "t": [0, 40]}, {"h": [[-2, "0"], [3, value]], "t": [2]}]
    _assert_written_alike([[entry, []]], _TPolyMatrix)


_labels = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))
_values = st.builds(
    lambda n, d: str(Fraction(n, d)),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
# a J degree of a rank-0 model is empty; gw lists only positive degrees
_degrees = st.lists(st.integers(min_value=0, max_value=30), max_size=3)


@st.composite
def _gw_tables(draw):
    """A `_GWTable` of per-degree rows: each b_j's level None, at most top,
    or past it, and a value at each level that is not None."""
    labels = draw(st.lists(_labels, min_size=1, max_size=4))
    table = _GWTable(labels)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        top = draw(st.integers(min_value=0, max_value=12))
        level = st.one_of(st.none(), st.integers(min_value=0, max_value=top + 3))
        allowed = draw(st.lists(level, min_size=len(labels), max_size=len(labels)))
        values = [None if m is None else draw(_values) for m in allowed]
        table.append((tuple(draw(_degrees.filter(bool))), top, allowed, values))
    return table


@st.composite
def _stored_series(draw):
    """A CohSeries stored as (flat, den), with distinct labels in any order;
    its degrees all have one length, as a model's rank fixes it."""
    labels = draw(st.lists(_labels, min_size=1, max_size=5, unique=True))
    rank = draw(st.integers(min_value=0, max_value=3))
    degree = st.lists(st.integers(min_value=0, max_value=30), min_size=rank, max_size=rank)
    key = st.tuples(st.integers(0, len(labels) - 1), st.integers(-60, 60))
    row = st.dictionaries(key, st.integers(-(10**30), 10**30), max_size=6)
    flat = draw(st.dictionaries(degree.map(tuple), row, max_size=6))
    den = draw(st.integers(min_value=1, max_value=10**30))
    return CohSeries._stored(SimpleNamespace(labels=labels), 0, flat, den)


@settings(max_examples=200, deadline=None)
@given(_gw_tables())
def test_gw_writer_on_generated_tables(table):
    _assert_gw_written_alike(table, _gw_records(table))


@settings(max_examples=200, deadline=None)
@given(_stored_series())
def test_j_writer_on_generated_series(series):
    table = _JSeries(series.flat, series.den, series.model.labels)
    for wrap in (lambda t: t, lambda t: {"J": t, "N": 1}, lambda t: [[t], 0]):
        assert _dump(wrap(table)) == _dump(wrap(series.to_json()))


_tilde_terms = st.fixed_dictionaries(
    {"coeffs": st.dictionaries(_labels, _values, min_size=1, max_size=5), "degree": _degrees}
)
_tilde_records = st.fixed_dictionaries({"t": _degrees, "terms": st.lists(_tilde_terms, max_size=3)})

_pairs = st.lists(st.tuples(st.integers(-60, 60), _values).map(list), max_size=2)
_matrix_rows = st.lists(
    st.lists(st.fixed_dictionaries({"h": _pairs, "t": _degrees}), max_size=3), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_tilde_records, max_size=5))
def test_tilde_writer_on_generated_tables(records):
    _assert_written_alike(records, _TildeTable)
    _assert_written_alike(_reversed_terms(records), _TildeTable)


@settings(max_examples=200, deadline=None)
@given(st.lists(_matrix_rows, max_size=5))
def test_matrix_writer_on_generated_matrices(rows):
    _assert_written_alike(rows, _TPolyMatrix)
