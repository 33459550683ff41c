"""The record writers of `cli._dump`: a `_GWTable`, `_TildeTable` or
`_TPolyMatrix` must be written as the same string the generic walk writes
for the same records in a plain list, and a `_JSeries` over a stored series
(flat, den) as the string it writes for the series' `to_json()` records, at
any indent, whatever order the coeff dicts or labels come in."""

import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoh.cli import _dump, _GWTable, _JSeries, _TildeTable, _TPolyMatrix
from qcoh.series import CohSeries

GOLDEN = Path(__file__).resolve().parent / "golden"

# labels JSON must escape, and the empty label
AWKWARD = ['"', "\\", "é", "\u2028", " ", "", 'x"\\é', '"1"']


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
    for wrap in (lambda t: t, lambda t: {"J": t, "N": 1}, lambda t: [[t], 0]):
        assert _dump(wrap(kind(records))) == _dump(wrap(list(records)))


def _golden_records(prefix, key):
    """{case: its stdout[key]} for the golden cases named prefix*."""
    out = {}
    for path in sorted(GOLDEN.glob(prefix + "*.json")):
        stdout = json.loads(path.read_text(encoding="utf-8"))["stdout"]
        if stdout is not None and key in stdout:
            out[path.stem] = stdout[key]
    return out


GW_GOLDENS = _golden_records("gw-", "invariants")
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
def test_gw_writer_on_golden_payload(name):
    _assert_written_alike(GW_GOLDENS[name], _GWTable)


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
    for kind in (_GWTable, _TildeTable, _TPolyMatrix):
        _assert_written_alike([], kind)
        assert _dump(kind()) == "[]\n"
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
    gw = {"D": [0, 3], "axiom": True, "j_label": "\u2028", "n": 12, "value": value}
    J = {"degree": [0], "coeffs": {"é": [[-40, value], [-2, "0"]]}}
    _assert_written_alike([gw], _GWTable)
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
def _gw_records(draw):
    axiom = draw(st.booleans())
    record = {
        "D": draw(_degrees.filter(bool)),
        "n": draw(st.integers(min_value=0, max_value=40)),
        "j_label": draw(_labels),
        "value": draw(_values),
        "axiom": axiom,
    }
    if not axiom:
        record["note"] = draw(st.sampled_from(["forced by degree axiom", 'a "note" \\ é']))
    return record


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
@given(st.lists(_gw_records(), max_size=6))
def test_gw_writer_on_generated_tables(records):
    _assert_written_alike(records, _GWTable)


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
