"""Cohomology models: a basis with grading, intersection pairing, cup table,
and the full small quantum product table over exact rationals.

A model fixes a free module with basis b_0..b_s, b_0 the unit, the degree-2
generators b_1..b_r, and for every pair (i,j) the finite q-expansion of
b_i o b_j (the D=0 part of which must be the cup product).  A model holds
each table once, as int numerators over the lcm of the table's
denominators: the cup table over its own, and the quantum table over
qden, `ModelSpec.quantum_rows`, the one form of the product that
computations read.  Validation, serialization and the basis comparison
with a builtin read the same int tables.  Built-in models
cover projective spaces, built from their dimension, and the
three-dimensional flag variety, the first Hirzebruch surface and the
Grassmannian of 2-planes in C^4, read from their shipped model files.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from importlib import resources
from types import MappingProxyType

from .algebra import format_ratio, format_rational, rational


@cache
def _data_dir():
    return resources.files("qcoh").joinpath("data")


def data_path(name: str):
    """Path to a shipped data file."""
    return _data_dir().joinpath(name)


# (str(path), build, *args) -> (bytes, value) of the last successful build
_BUILT = {}


def read_cached(path, build, *args):
    """build(data, *args) for the bytes `data` of the file at `path`.

    The file is read on every call, so an edit is always seen.  The value
    is built, which parses and validates, only when the bytes differ from
    those of the last successful build for the same path, build and args;
    otherwise the value built then is returned, shared with every earlier
    caller, so it must be immutable.  There is one entry per (path, build,
    args), and a build that raises stores nothing."""
    with open(path, "rb") as fh:
        data = fh.read()
    key = (str(path), build) + args
    hit = _BUILT.get(key)
    if hit is not None and hit[0] == data:
        return hit[1]
    value = build(data, *args)
    _BUILT[key] = (data, value)
    return value


class ModelError(ValueError):
    """Raised when a model description violates a structural invariant."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InvalidModel(ModelError):
    """Raised when well-formed tables are not a graded commutative ring with
    unit; `problems` lists every inconsistency found."""


class CohClass:
    """A cohomology class as a dense coordinate vector over the basis
    b_0..b_s: the printed and witness form of a series coefficient
    (coordinates Fractions or HLaurent values).  Computations read the
    integral forms instead (`ModelSpec.quantum_rows`); instances are
    treated as immutable.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            return False
        return all(a == b for a, b in zip(self.coords, other.coords))

    def describe(self, labels):
        parts = []
        for a, lab in zip(self.coords, labels):
            if not a:
                continue
            sa = str(a)
            if ("+" in sa[1:]) or (" - " in sa) or ("/" in sa and "h" in sa):
                sa = "(%s)" % sa
            if lab == "1":
                parts.append(sa)
            elif sa in ("1", "-1"):
                # a unit coordinate keeps only its sign: a^2, -a^2
                parts.append(sa[:-1] + lab)
            else:
                parts.append("%s*%s" % (sa, lab))
        return " + ".join(parts) if parts else "0"


class ModelSpec:
    """Complete description of one small quantum cohomology ring.

    The constructor takes the products as sparse rational records,
    cup[(i, j)] = {k: c} for b_i cup b_j = sum c b_k and quantum[(i, j)] =
    {D: {k: c}} for b_i o b_j = sum c q^D b_k; a pair that is absent is
    read from its mirror (j, i), else as zero.  It stores them once, as int
    tables over the lcm of their denominators, and builds from them the
    cup view `integral_action` that the theta kernel reads.  Tables that are
    not a graded commutative ring with unit raise InvalidModel, so every
    instance is valid.  Instances are immutable, so one model is shared by
    every caller that loads the same file or builtin (see `read_cached`)."""

    __slots__ = (
        "name",
        "dim",
        "rank",
        "labels",
        "degrees",
        "pairing",
        "chern",
        "aliases",
        "_compiled",
        "_cup",
        "_quantum",
        "_cup_actions",
    )

    def __init__(
        self,
        name,
        dim,
        rank,
        labels,
        degrees,
        pairing,
        cup,
        quantum,
        chern,
        aliases=None,
    ):
        size = len(labels)

        def filled(records):
            return [[records.get((i, j), records.get((j, i), {})) for j in range(size)]
                    for i in range(size)]

        cup, quantum = filled(cup), filled(quantum)
        cden = _lcm_denominator(c for row in cup for coords in row for c in coords.values())
        qden = _lcm_denominator(
            c for row in quantum for parts in row for coords in parts.values()
            for c in coords.values()
        )
        table = tuple(tuple(_int_parts(parts, qden) for parts in row) for row in quantum)
        fields = {
            "name": name,
            "dim": int(dim),
            "rank": int(rank),
            "labels": tuple(labels),
            "degrees": tuple(int(d) for d in degrees),
            "pairing": tuple(tuple(int(x) for x in row) for row in pairing),
            "chern": tuple(int(c) for c in chern),
            "aliases": MappingProxyType(dict(aliases or {})),
            "_compiled": {},
            # b_i cup b_j = sum n/cden b_k for the terms (k, n) of [i][j]
            "_cup": (cden, tuple(tuple(_int_terms(c, cden) for c in row) for row in cup)),
            "_quantum": (qden, table),
            "_cup_actions": tuple(
                tuple(t[0][2] if t and not t[0][0] else () for t in row) for row in table
            ),
        }
        for key, value in fields.items():
            object.__setattr__(self, key, value)
        problems = self._problems()
        if problems:
            raise InvalidModel(problems)

    def __setattr__(self, key, value):
        raise AttributeError("a ModelSpec is immutable; cannot set %r" % key)

    def __delattr__(self, key):
        raise AttributeError("a ModelSpec is immutable; cannot delete %r" % key)

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self):
        return len(self.labels)

    @property
    def top(self):
        return len(self.labels) - 1

    def qdegree(self, D):
        """deg q^D = 2 <c_1, D>: twice the pairing of c_1 with the curve class D."""
        return 2 * sum(map(mul, D, self.chern))

    def basis_class(self, i):
        coords = [Fraction(0)] * self.size
        coords[i] = Fraction(1)
        return CohClass(coords)

    # -- classical structure -----------------------------------------------

    def cup(self, x: CohClass, y: CohClass) -> CohClass:
        """x cup y, over the q^0 terms of `quantum_rows`."""
        qden, cups = self._quantum[0], self._cup_actions
        out = [0] * self.size
        ys = [(j, yj) for j, yj in enumerate(y.coords) if yj]
        for i, xi in enumerate(x.coords):
            if not xi:
                continue
            for j, yj in ys:
                p = xi * yj
                for k, n in cups[i][j]:
                    out[k] = out[k] + n * p
        scale = Fraction(1, qden)
        return CohClass(tuple(a * scale if a else Fraction(0) for a in out))

    def compiled(self, build):
        """build(self), kept per builder from the first call that returns: the
        one memo of what depends on the model alone.  A raise stores nothing."""
        if build not in self._compiled:
            self._compiled[build] = build(self)
        return self._compiled[build]

    # -- quantum structure ---------------------------------------------------

    def quantum_rows(self):
        """(qden, table): the quantum table over qden, the lcm of its
        denominators.  table[i][j] lists b_i o b_j by total degree, as terms
        (|D|, D, ((k, n), ...)) for sum of n/qden q^D b_k.  The one integral
        form of the product that any computation reads."""
        return self._quantum

    def integral_action(self, j):
        """Cup multiplication by b_j: the q^0 terms of `quantum_rows`, entry c
        the terms (k, n) of b_j cup b_c = sum n/qden b_k."""
        return self._cup_actions[j]

    # -- validation ----------------------------------------------------------

    def _problems(self):
        """Human-readable problems of the tables (empty when consistent)."""
        problems = []
        s = self.size
        if len(set(self.labels)) != s:
            problems.append("basis labels are not distinct")
        if len(self.degrees) != s:
            # every check below reads one degree per basis element
            return problems + ["degree list length != basis size"]
        if s < self.rank + 1:
            problems.append(
                "basis has %d elements, fewer than rank + 1 = %d (the unit "
                "and the generators)" % (s, self.rank + 1)
            )
        else:
            if self.degrees[0] != 0:
                problems.append("b_0 must have degree 0")
            if sum(1 for d in self.degrees if d == 0) != 1:
                problems.append("the unit must be the only degree-0 basis element")
            for i in range(1, self.rank + 1):
                if self.degrees[i] != 2:
                    problems.append("generator b_%d must have degree 2" % i)
            if self.degrees[self.top] != 2 * self.dim:
                problems.append("last basis element must have top degree 2*dim")
        if len(self.pairing) != s or any(len(r) != s for r in self.pairing):
            problems.append("pairing matrix is not (s+1)x(s+1)")
        else:
            for i in range(s):
                for j in range(s):
                    if self.pairing[i][j] != self.pairing[j][i]:
                        problems.append("pairing not symmetric at (%d,%d)" % (i, j))
                    if (
                        self.pairing[i][j]
                        and self.degrees[i] + self.degrees[j] != 2 * self.dim
                    ):
                        problems.append(
                            "pairing entry (%d,%d) violates the grading" % (i, j)
                        )
            try:
                _invert_rational_matrix(self.pairing)
            except ZeroDivisionError:
                problems.append("pairing matrix is singular")
        graded = len(self.chern) == self.rank
        if not graded:
            # every q-term would then read as a grading violation
            problems.append(
                "chern list has %d entries, not rank %d" % (len(self.chern), self.rank)
            )
        (cden, cups), (qden, table) = self._cup, self._quantum
        zero = (0,) * self.rank
        for i in range(s):
            for j in range(s):
                cup = cups[i][j]
                if cup != cups[j][i]:
                    problems.append("cup table not symmetric at (%d,%d)" % (i, j))
                deg = self.degrees[i] + self.degrees[j]
                for k, _ in cup:
                    if self.degrees[k] != deg:
                        problems.append(
                            "cup product b_%d.b_%d has a component of wrong "
                            "degree (b_%d)" % (i, j, k)
                        )
                qp = table[i][j]
                if qp != table[j][i]:
                    problems.append(
                        "quantum product not commutative at (%d,%d)" % (i, j)
                    )
                q0 = next((terms for _, D, terms in qp if D == zero), ())
                # the two tables have their own denominators
                if [(k, n * cden) for k, n in q0] != [(k, n * qden) for k, n in cup]:
                    problems.append(
                        "q^0 part of b_%d o b_%d differs from the cup product"
                        % (i, j)
                    )
                for _, D, terms in qp:
                    if len(D) != self.rank or any(d < 0 for d in D):
                        problems.append(
                            "bad multidegree %r in product (%d,%d)" % (D, i, j)
                        )
                        continue
                    if not graded:
                        continue
                    shift = self.qdegree(D)
                    for k, _ in terms:
                        if self.degrees[k] + shift != deg:
                            problems.append(
                                "term q^%r b_%d in b_%d o b_%d violates the "
                                "grading" % (D, k, i, j)
                            )
        for j in range(s):
            if cups[0][j] != ((j, cden),):
                problems.append("b_0 does not act as the unit on b_%d" % j)
            if any(any(D) for _, D, _ in table[0][j]):
                problems.append(
                    "b_0 o b_%d has a q-term: b_0 is not the quantum unit" % j
                )
        return problems

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        (cden, cups), (qden, table) = self._cup, self._quantum
        cup = []
        quantum = []
        for i in range(self.size):
            for j in range(i, self.size):
                for k, n in cups[i][j]:
                    c = Fraction(n, cden)
                    c = int(c) if c.denominator == 1 else format_rational(c)
                    cup.append({"i": i, "j": j, "k": k, "c": c})
                for _, D, terms in table[i][j]:
                    for k, n in terms:
                        quantum.append(
                            {
                                "i": i,
                                "j": j,
                                "k": k,
                                "D": list(D),
                                "c": format_ratio(n, qden),
                            }
                        )
        return {
            "name": self.name,
            "dim": self.dim,
            "rank": self.rank,
            "basis": [
                {"label": lab, "degree": deg}
                for lab, deg in zip(self.labels, self.degrees)
            ],
            "pairing": [list(row) for row in self.pairing],
            "cup": cup,
            "quantum": quantum,
            "chern": list(self.chern),
            "aliases": dict(sorted(self.aliases.items())),
        }

    @classmethod
    def from_json(cls, data):
        """The model a parsed .model file describes.  A missing or malformed
        field raises ModelError naming it, and inconsistent tables raise
        InvalidModel."""
        if not isinstance(data, dict):
            raise ModelError("a model is a JSON object, not %s" % type(data).__name__)
        problems = []
        for key in ("name", "dim", "rank", "basis", "pairing", "cup", "quantum", "chern"):
            if key not in data:
                problems.append("missing field %r" % key)
        if problems:
            raise ModelError(problems)
        labels, degrees = [], []
        for b in _field(data, "basis", _checked(list), "a list"):
            where = "basis record %r" % (b,)
            labels.append(_field(b, "label", _checked(str), "a string", where))
            degrees.append(_field(b, "degree", _integer, "an integer", where))
        size = len(labels)
        rank = _field(data, "rank", _integer, "an integer")

        def records(what):
            """((i, j, k[, D]), c) for each record; a repeated entry raises."""
            seen = set()
            for rec in _field(data, what, _checked(list), "a list"):
                where = "%s record %r" % (what, rec)
                entry = tuple(_field(rec, x, _integer, "an integer", where) for x in "ijk")
                if not all(0 <= x < size for x in entry):
                    raise ModelError("%s out of range" % where)
                c = _field(
                    rec, "c", rational, "an integer or a 'p/q' string with q != 0", where
                )
                names = "i, j, k"
                if what == "quantum":
                    D = _field(rec, "D", _int_list, "a list of integers", where)
                    if len(D) != rank:
                        raise ModelError("%s has wrong rank" % where)
                    entry, names = entry + (D,), names + ", D"
                if entry in seen:
                    raise ModelError("%s repeats (%s) = %r" % (where, names, entry))
                seen.add(entry)
                yield entry, c

        cup = {}
        for (i, j, k), c in records("cup"):
            cup.setdefault((i, j), {})[k] = c
        quantum = {}
        for (i, j, k, D), c in records("quantum"):
            quantum.setdefault((i, j), {}).setdefault(D, {})[k] = c
        return cls(
            name=_field(data, "name", _checked(str), "a string"),
            dim=_field(data, "dim", _integer, "an integer"),
            rank=rank,
            labels=labels,
            degrees=degrees,
            pairing=_field(data, "pairing", _int_rows, "a list of integer rows"),
            cup=cup,
            quantum=quantum,
            chern=_field(data, "chern", _int_list, "a list of integers"),
            aliases=_field(data, "aliases", _checked(dict), "an object", default={}),
        )

    def __repr__(self):
        return "<ModelSpec %s: dim %d, rank %d, basis %d>" % (
            self.name,
            self.dim,
            self.rank,
            self.size,
        )


def _field(record, key, convert, expected, where="model", default=None):
    """convert(record[key]), or `default` when the key is absent and a
    default is given; a missing or malformed value raises ModelError that
    names `where`, the field and what was `expected`."""
    try:
        value = record[key]
    except KeyError:
        if default is not None:
            return default
        raise ModelError("%s has no field %r" % (where, key)) from None
    except TypeError:
        raise ModelError("%s is not a JSON object" % where) from None
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ModelError(
            "%s field %r is not %s: %r" % (where, key, expected, value)
        ) from None


def _checked(kind):
    """A converter that passes values of type `kind` through unchanged."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError("not a %s" % kind.__name__)
        return value

    return check


def _integer(value):
    """int(value), refusing rather than truncating a fractional float."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not integral")
    return int(value)


def _int_list(value):
    return tuple(_integer(x) for x in _checked(list)(value))


def _int_rows(value):
    return [_int_list(row) for row in _checked(list)(value)]


def _lcm_denominator(values):
    """The lcm of the denominators of ints and Fractions (1 for none)."""
    return lcm(1, *(c.denominator for c in values))


def _int_terms(coords, den):
    """The sparse class {k: c} as its nonzero terms ((k, c * den), ...),
    ascending in k; den is a multiple of every denominator."""
    return tuple((k, int(c * den)) for k, c in sorted(coords.items()) if c)


def _int_parts(parts, den):
    """The q-expansion {D: {k: c}} as terms (|D|, D, ((k, n), ...)) over
    den, ascending in (|D|, D), with zero classes left out."""
    terms = ((tuple(D), _int_terms(coords, den)) for D, coords in parts.items())
    return tuple(sorted((sum(D), D, t) for D, t in terms if t))


def _invert_rational_matrix(m):
    """Exact inverse by Gauss-Jordan elimination; raises ZeroDivisionError
    when singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# -- builtin models -------------------------------------------------------


@cache
def _model_cp(m: int) -> ModelSpec:
    size = m + 1
    labels = ["1"] + ["x" if k == 1 else "x^%d" % k for k in range(1, size)]
    pairing = [[int(i + j == m) for j in range(size)] for i in range(size)]
    cup = {}
    quantum = {}
    for i in range(size):
        for j in range(i, size):
            if i + j <= m:
                cup[(i, j)] = {i + j: 1}
                quantum[(i, j)] = {(0,): {i + j: 1}}
            else:
                # x^{m+1} = q, so overflow products pick up one factor of q
                quantum[(i, j)] = {(1,): {i + j - m - 1: 1}}
    return ModelSpec(
        name="cp%d" % m,
        dim=m,
        rank=1,
        labels=labels,
        degrees=[2 * k for k in range(size)],
        pairing=pairing,
        cup=cup,
        quantum=quantum,
        chern=[m + 1],
    )


_CP_RE = re.compile(r"cp(?:([0-9]+)|\(([0-9]+)\))")

BUILTIN_NAMES = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1", "gr24")

# the largest m of a builtin cp<m>: its tables grow as m^2
CP_MAX = 64


def cp_dimension(name: str):
    """m when `name` names projective m-space (cp<m> or cp(<m>)), else None."""
    got = _CP_RE.fullmatch(name)
    return int(got.group(1) or got.group(2)) if got else None


def builtin_model(name: str) -> ModelSpec:
    """A built-in model: cp<m> is built for 1 <= m <= CP_MAX, once per
    process, and the others are read from the shipped data/NAME.model
    with `load_model`."""
    name = name.strip().lower()
    m = cp_dimension(name)
    if m is None and name not in BUILTIN_NAMES:
        raise ModelError("unknown model %r" % name)
    if m is not None and not 1 <= m <= CP_MAX:
        raise ModelError("projective space needs dimension >= 1 and <= %d" % CP_MAX)
    try:
        if m is None:
            return load_model(data_path(name + ".model"))
        return _model_cp(m)
    except ModelError as exc:
        raise ModelError(["builtin %s failed validation" % name] + exc.problems) from None


def in_builtin_basis(model: ModelSpec) -> bool:
    """Whether the model has the pairing and cup table of the builtin of
    its name.  The data shipped for a builtin (row operators, classical
    tables) is written in that basis, so it applies only then; a model of
    the same ring in another basis, or with no builtin of its name, is
    not."""
    try:
        builtin = builtin_model(model.name)
    except ModelError:
        return False
    return model.pairing == builtin.pairing and model._cup == builtin._cup


def _model_from_bytes(data: bytes) -> ModelSpec:
    try:
        parsed = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelError("not valid JSON: %s" % exc) from exc
    except RecursionError:
        raise ModelError("JSON nested too deeply") from None
    return ModelSpec.from_json(parsed)


def load_model(path) -> ModelSpec:
    """Load and validate a .model JSON file.  The model is shared with
    every earlier load of the same bytes from the same path, which is not
    parsed or validated again (`read_cached`)."""
    return read_cached(path, _model_from_bytes)


def save_model(model: ModelSpec, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _is_builtin_name(name: str) -> bool:
    name = name.strip().lower()
    return name in BUILTIN_NAMES or cp_dimension(name) is not None


def resolve_model(name: str, search_path=None) -> ModelSpec:
    """Find a model by builtin name, then as a model file, then as
    NAME.model on the search path (a list of directories, e.g. from
    QCOH_MODEL_PATH).  A builtin name that fails to build (such as cp0)
    reports its own error instead of falling through."""
    if _is_builtin_name(name):
        return builtin_model(name)
    if os.path.isfile(name):
        return load_model(name)
    for d in search_path or ():
        cand = os.path.join(d, name + ".model")
        if os.path.isfile(cand):
            return load_model(cand)
    raise ModelError("no model named %r (not builtin, not on the search path)" % name)
