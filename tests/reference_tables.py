"""Reference product tables for the tests: a model's cup and quantum
tables read from its JSON over Fraction, never from the ModelSpec under
test."""

import json
from fractions import Fraction
from pathlib import Path

from qcoh.model import cp_dimension, data_path

GOLDEN = Path(__file__).resolve().parent / "golden"


def model_json(name):
    """The JSON of a model: for cp<m> the records of x^i x^j = x^(i+j) and
    x^(m+1) = q written out here; for another builtin its shipped .model
    file; else tests/golden/NAME.model."""
    m = cp_dimension(name)
    if m:
        pairs = [(i, j) for i in range(m + 1) for j in range(i, m + 1)]
        return {
            "basis": [{"label": "x^%d" % k, "degree": 2 * k} for k in range(m + 1)],
            "cup": [{"i": i, "j": j, "k": i + j, "c": 1} for i, j in pairs if i + j <= m],
            "quantum": [
                {"i": i, "j": j, "k": (i + j) % (m + 1), "D": [int(i + j > m)], "c": 1}
                for i, j in pairs
            ],
        }
    path = data_path(name + ".model")
    if not path.is_file():
        path = GOLDEN / (name + ".model")
    return json.loads(path.read_text(encoding="utf-8"))


def product_tables(data):
    """(cup, quantum) of a model's JSON for every ordered pair (i, j):
    cup[(i, j)] = {k: c} and quantum[(i, j)] = {D: {k: c}} over Fraction,
    zero entries left out; a pair with no records is read from (j, i)."""
    size = len(data["basis"])
    cup, quantum = {}, {}
    for rec in data["cup"]:
        cup.setdefault((rec["i"], rec["j"]), {})[rec["k"]] = Fraction(rec["c"])
    for rec in data["quantum"]:
        part = quantum.setdefault((rec["i"], rec["j"]), {}).setdefault(tuple(rec["D"]), {})
        part[rec["k"]] = Fraction(rec["c"])

    def nonzero(coords):
        return {k: c for k, c in coords.items() if c}

    pairs = [(i, j) for i in range(size) for j in range(size)]
    cup = {p: nonzero(cup.get(p, cup.get(p[::-1], {}))) for p in pairs}
    quantum = {p: quantum.get(p, quantum.get(p[::-1], {})) for p in pairs}
    quantum = {
        p: {D: nonzero(c) for D, c in parts.items() if nonzero(c)}
        for p, parts in quantum.items()
    }
    return cup, quantum
