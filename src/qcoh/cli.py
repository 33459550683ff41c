"""Command-line front end: model management, batch verification, series
emission, and invariant extraction, with deterministic JSON output.

Each command returns its payload, and `main` writes it.  The exit code is
read from the payload's "status": 0 for "pass", 1 for "fail" (a failed
mathematical check).  `models list`, `models show` and `gw` carry no status
and exit 0.  Bad arguments, missing files and I/O errors exit 2 with the
error on stderr.
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quoted

from .algebra import format_ratio
from .model import (
    BUILTIN_NAMES,
    InvalidModel,
    ModelError,
    ModelSpec,
    data_path,
    in_builtin_basis,
    read_cached,
    resolve_model,
)
from .operators import (
    builtin_operators,
    builtin_relations,
    expression_substitutions,
    load_operators,
    load_relations,
    apply_classical,
)
from .quantum import (
    _exp_words,
    _report,
    check_associativity,
    check_flatness,
    eval_relation,
)
from .sections import (
    CheckFailure,
    asymptotic_H,
    asymptotic_J,
    closed_form,
    descendent_table,
    solve_fundamental,
    tpoly_matrix_json,
    verify_annihilated,
)
from .series import _degree_order, _degrees_upto, _factorial, _first_mismatch, _shift_t

DEFAULT_N = 6
DEFAULT_L = 6

_BUILTIN_SENTINEL = "@builtin"


class UsageError(Exception):
    """Bad arguments, missing files, unparseable input: exit code 2."""


def _dump(payload) -> str:
    """payload and a newline, byte for byte as json.dumps(payload,
    indent=1, sort_keys=True) writes them, without the pure-Python encoder
    that an indent selects.  It writes dicts with str keys, lists, tuples,
    str, int, bool and None, and raises TypeError on anything else.

    Four payload shapes have record writers, each one `%` template per
    record, made as writer(nl, table) for the table at its indent: a
    `_GWTable` (gw's per-degree rows, each written as its block of
    invariant records), a `_JSeries` (the stored rows of jfun's "J"), a
    `_TildeTable` (tilde's "v_at_h1") and a `_TPolyMatrix` (the rows of
    classical's "matrix").  Neither of the first two holds dicts.  Every
    other payload takes the generic walk."""
    out = []
    _write_json(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


class _GWTable(list):
    """gw's invariant table, written by `_gw_writer`: one row (D, top,
    allowed, values) per degree D that has an allowed level, with the
    model's labels.  allowed[j] is the one level the degree axiom allows
    along b_j at D, or None; top is the largest of them, and values[j] the
    formatted invariant at allowed[j]."""

    def __init__(self, labels, rows=()):
        super().__init__(rows)
        self.labels = labels


class _JSeries(list):
    """The q^D rows (D, {(k, x): n}) of a series stored as (flat, den), by
    degree, written by `_j_writer` over den with the labels of the b_k."""

    def __init__(self, flat, den, labels):
        super().__init__(sorted(flat.items(), key=lambda r: _degree_order(r[0])))
        self.den, self.labels = den, labels


class _TildeTable(list):
    """The records of tilde's quantum exponential, written by `_tilde_writer`."""


class _TPolyMatrix(list):
    """The rows of a `tpoly_matrix_json` matrix, written by `_matrix_writer`."""


def _lister(inner):
    """The writer of a JSON list whose items, each already written and
    none empty, sit at the newline and indent inner."""
    sep, close = "," + inner, inner[:-1] + "]"
    return lambda items: "[" + inner + body + close if (body := sep.join(items)) else "[]"


def _gw_writer(nl, table):
    """The writer of one degree's block of records {"D": [int], "axiom":
    bool, "j_label": str, "n": int, "note": str when not axiom, "value":
    str} at the newline and indent nl: for each level n up to top, one
    record per b_j, the axiom record at allowed[j] and a zero record with
    the note elsewhere.  D is never empty: gw lists only positive degrees.
    The labels are quoted once per table and D written once per degree;
    each record is its (D, j) text, axiom or zero, % n."""
    i1 = nl + " "
    # each "~" is the indent of a key, so "~ " is the indent of D's entries
    head = '{~"D": [~ %s~],~"axiom": '.replace("~", i1)
    tail = '~"j_label": %s,~"n": %%d,~%s"value": %s'.replace("~", i1) + nl + "}"
    # a % in a label is doubled: the record texts are templates in n
    labels = [_quoted(k).replace("%", "%%") for k in table.labels]
    zeros = ["false," + tail % (k, '"note": "forced by degree axiom",' + i1, '"0"') for k in labels]
    dsep, sep = "," + i1 + " ", "," + nl

    def write(row):
        D, top, allowed, values = row
        d = head % dsep.join(map(str, D))
        zero = [d + z for z in zeros]
        hit = [
            z if m is None else d + "true," + tail % (k, "", _quoted(v))
            for m, z, k, v in zip(allowed, zero, labels, values)
        ]
        return sep.join([
            (a if m == n else z) % n for n in range(top + 1) for m, a, z in zip(allowed, hit, zero)
        ])

    return write


def _j_writer(nl, series):
    """The writer of one nonempty row (D, {(k, x): n}) of the `_JSeries`
    series at the newline and indent nl, as the record {"coeffs": {label:
    [[x, "n/den"], ...]}, "degree": D} of `CohSeries.to_json`: labels
    sorted, each list by ascending x."""
    labels, den = series.labels, series.den
    i1, i2, i3, i4 = (nl + " " * k for k in range(1, 5))
    template = '{~"coeffs": {%s~},~"degree": %s'.replace("~", i1) + nl + "}"
    label, pair = "%s: [" + i3 + "%s" + i2 + "]", "[~%d,~%s".replace("~", i4) + i3 + "]"
    sep, psep, degree = "," + i2, "," + i3, _lister(i2)

    def write(r):
        D, row = r
        c = {}
        for (k, x), n in sorted(row.items()):
            c.setdefault(k, []).append(pair % (x, _quoted(format_ratio(n, den))))
        body = sep.join([
            label % (_quoted(labels[k]), psep.join(c[k])) for k in sorted(c, key=labels.__getitem__)
        ])
        return template % (i2 + body, degree(map(str, D)))

    return write


def _tilde_writer(nl, _table):
    """The writer of one record {"t": [int], "terms": [{"coeffs": {label:
    str}, "degree": [int]}]} at the newline and indent nl, with every
    coeffs nonempty; it sorts the labels itself."""
    i1, i2, i3, i4 = (nl + " " * k for k in range(1, 5))
    template = '{~"t": %s,~"terms": %s'.replace("~", i1) + nl + "}"
    term = '{~"coeffs": {%s~},~"degree": %s'.replace("~", i3) + i2 + "}"
    sep, outer, inner = "," + i4, _lister(i2), _lister(i4)

    def write(r):
        terms = []
        for x in r["terms"]:
            c = x["coeffs"]
            coeffs = sep.join([_quoted(k) + ": " + _quoted(c[k]) for k in sorted(c)])
            terms.append(term % (i4 + coeffs, inner(map(str, x["degree"]))))
        return template % (outer(map(str, r["t"])), outer(terms))

    return write


def _matrix_writer(nl, _table):
    """The writer of one row of entries at the newline and indent nl, each
    entry a list, maybe empty, of {"h": [[int, str]], "t": [int]}."""
    i1, i2, i3, i4, i5 = (nl + " " * k for k in range(1, 6))
    term = '{~"h": %s,~"t": %s'.replace("~", i3) + i2 + "}"
    pair = "[~%d,~%s".replace("~", i5) + i4 + "]"
    row, entry, inner = _lister(i1), _lister(i2), _lister(i4)
    return lambda r: row([
        entry([
            term % (inner([pair % (x, _quoted(v)) for x, v in d["h"]]), inner(map(str, d["t"])))
            for d in e
        ])
        for e in r
    ])


_RECORD_WRITERS = {
    _GWTable: _gw_writer, _JSeries: _j_writer,
    _TildeTable: _tilde_writer, _TPolyMatrix: _matrix_writer,
}


def _write_json(x, nl, out):
    """Write x through out, nl being the newline and indent of its line."""
    if isinstance(x, str):
        out(_quoted(x))
    elif x is None:
        out("null")
    elif x is True:
        out("true")
    elif x is False:
        out("false")
    elif isinstance(x, int):
        out(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError("JSON keys must be str, not %s" % type(k).__name__)
            out(sep + _quoted(k) + ": ")
            _write_json(x[k], inner, out)
            sep = "," + inner
        out(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        writer = _RECORD_WRITERS.get(type(x))
        if writer is not None:
            out(sep + ("," + inner).join(map(writer(inner, x), x)) + nl + "]")
            return
        for v in x:
            out(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out(nl + "]")
    else:
        raise TypeError("cannot write %s as JSON" % type(x).__name__)


def _search_path():
    raw = os.environ.get("QCOH_MODEL_PATH", "")
    return [p for p in raw.split(os.pathsep) if p]


def _get_model(name: str) -> ModelSpec:
    try:
        return resolve_model(name, _search_path())
    except (ModelError, LookupError, OSError) as exc:
        raise UsageError("cannot load model %r: %s" % (name, exc)) from exc


def _order(args) -> int:
    """The Novikov order given by --n; a negative one is a usage error."""
    if args.n < 0:
        raise UsageError("--n must be at least 0")
    return args.n


def _expressions(value, model, builtin, loader, what):
    """(items, source) for a --relations or --verify value: builtin(model)
    for the bare flag, else the expressions of the file (a real path first,
    then a shipped data file of that name).  A file that holds none (only
    blank or comment lines) is a usage error, never an empty pass."""
    if value in (None, _BUILTIN_SENTINEL):
        return builtin(model), "builtin"
    path = value if os.path.isfile(value) else data_path(value)
    if not os.path.isfile(path):
        raise UsageError("no such expression file: %r" % value)
    items = loader(path, model.rank, expression_substitutions(model))
    if not items:
        raise UsageError("%s file %r holds no expressions" % (what, value))
    return items, value


def _defining_operators(model):
    """The model's shipped defining operators; none when it ships no file."""
    try:
        return builtin_operators(model, defining_only=True)
    except LookupError:
        return []


# -- models ------------------------------------------------------------------


def cmd_models_list(args):
    return {"models": list(BUILTIN_NAMES)}


def cmd_models_show(args):
    model = _get_model(args.name)
    return {
        "name": model.name,
        "dim": model.dim,
        "rank": model.rank,
        "size": model.size,
        "labels": list(model.labels),
        "spec": model.to_json(),
    }


def cmd_models_validate(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %r: %s" % (args.file, exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError("%r is not valid JSON: %s" % (args.file, exc)) from exc
    except RecursionError:
        raise UsageError("%r has JSON nested too deeply" % args.file) from None
    try:
        ModelSpec.from_json(data)
        problems = []
    except InvalidModel as exc:
        problems = exc.problems
    except (ModelError, KeyError, TypeError, ValueError) as exc:
        raise UsageError("%r is malformed: %s" % (args.file, exc)) from exc
    return {
        "file": args.file,
        "model": data["name"],
        "problems": problems,
        "status": "pass" if not problems else "fail",
    }


# -- check -------------------------------------------------------------------


def _relations_report(model, rels, order, source):
    witnesses = []
    for rel in rels:
        value = eval_relation(model, rel, order)
        if value:
            witnesses.append({"relation": str(rel), "value": value.describe()})
    report = _report("relations", model, order, witnesses)
    return {**report, "relations": len(rels), "source": source}


def cmd_check(args):
    order = _order(args)
    model = _get_model(args.model)
    run_all = not (args.flatness or args.assoc or args.relations is not None)
    checks = []
    if args.flatness or run_all:
        checks.append(check_flatness(model, order))
    if args.assoc or run_all:
        checks.append(check_associativity(model, order))
    if args.relations is not None or run_all:
        rels, source = _expressions(
            args.relations, model, builtin_relations, load_relations, "relation"
        )
        checks.append(_relations_report(model, rels, order, source))
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"model": model.name, "N": order, "checks": checks, "status": status}


# -- jfun ---------------------------------------------------------------------


def _diff_witness(model, closed, solved):
    """The first coordinate, by degree and then basis order, where the
    closed-form and the solved J-series differ."""
    D, k, a, b = _first_mismatch(closed, solved)
    values = {"closed": a.to_json(), "solved": b.to_json()}
    return {"degree": list(D), "entry": model.labels[k], **values}


def cmd_jfun(args):
    order = _order(args)
    model = _get_model(args.model)
    if not (args.closed_form or args.solve or args.diff):
        raise UsageError(
            "choose a construction: --closed-form, --solve, or --diff"
        )
    closed = solved = None
    if args.closed_form or args.diff:
        try:
            closed = closed_form(model, order)
        except LookupError as exc:
            raise UsageError(str(exc)) from exc
    if args.solve or args.diff:
        solved = solve_fundamental(model, order).jrow()

    payload = {"model": model.name, "N": order}
    status = "pass"

    if args.diff:
        diff = {"check": "construction-diff", "status": "pass"}
        if closed != solved:
            status = diff["status"] = "fail"
            diff["witnesses"] = [_diff_witness(model, closed, solved)]
        payload["diff"] = diff

    if closed is not None and solved is not None:
        J, construction = closed, "both"
    elif closed is not None:
        J, construction = closed, "closed-form"
    else:
        J, construction = solved, "solve"
    payload["construction"] = construction
    payload["J"] = _JSeries(J.flat, J.den, model.labels)

    if args.verify is not None:
        ops, _ = _expressions(
            args.verify, model, builtin_operators, load_operators, "operator"
        )
        report = verify_annihilated(J, ops)
        payload["verification"] = report
        if report["status"] != "pass":
            status = "fail"

    payload["status"] = status
    return payload


# -- gw ------------------------------------------------------------------------


def cmd_gw(args):
    order = _order(args)
    model = _get_model(args.model)
    if args.max_degree < 1:
        raise UsageError("--max-degree must be at least 1")
    order = max(order, args.max_degree)
    Hm = solve_fundamental(model, order)
    table = _GWTable(model.labels, descendent_table(model, Hm, args.max_degree))
    return {
        "model": model.name,
        "N": order,
        "max_degree": args.max_degree,
        "invariants": table,
    }


# -- classical ------------------------------------------------------------------


def _fixture_entries(data: bytes):
    return json.loads(data.decode("utf-8"))["entries"]


def cmd_classical(args):
    model = _get_model(args.model)
    E = asymptotic_H(model)
    matjson = _TPolyMatrix(tpoly_matrix_json(E))
    size = model.size
    identity = [int(e % (size + 1) == 0) for e in range(size * size)]
    identity_ok = E[(0,) * model.rank] == (identity, 1)

    # the fixture holds the builtin's matrix, written in the builtin basis
    fixture = data_path("%s.classical.json" % model.name)
    if fixture.is_file() and in_builtin_basis(model):
        stored = read_cached(fixture, _fixture_entries)
        fixture_status = "match" if stored == matjson else "mismatch"
    else:
        fixture_status = "absent"

    aj = asymptotic_J(model, E)
    annihilation = []
    for op in _defining_operators(model):
        qfree = op.q_free_part()
        residual = apply_classical(qfree, aj, model)
        annihilation.append(
            {
                "operator": str(qfree),
                "status": "pass" if not residual else "fail",
            }
        )

    status = "pass"
    if not identity_ok or fixture_status == "mismatch":
        status = "fail"
    if any(a["status"] == "fail" for a in annihilation):
        status = "fail"
    return {
        "model": model.name,
        "matrix": matjson,
        "identity_at_origin": identity_ok,
        "fixture": fixture_status,
        "annihilation": annihilation,
        "status": status,
    }


# -- tilde ------------------------------------------------------------------------


def _v_at_h1(model, words):
    """The quantum exponential at h = 1, word(e)/e! for each t^e by (|e|, e),
    read from its divided-power word table (`quantum._exp_words`), whose
    every b_k coordinate is one h-power."""
    out = _TildeTable()
    for e, (flat, den) in words.items():
        den *= _factorial(e)
        terms = [
            {
                "degree": list(D),
                "coeffs": {
                    model.labels[k]: format_ratio(n, den)
                    for (k, _), n in flat[D].items()
                },
            }
            for D in sorted(flat, key=_degree_order)
        ]
        out.append({"t": list(e), "terms": terms})
    return out


def cmd_tilde(args):
    order = _order(args)
    model = _get_model(args.model)
    torder = args.t_order
    if torder < 2:
        raise UsageError("--t-order must be at least 2")
    ops = _defining_operators(model)
    words = _exp_words(model, order, torder)
    residuals = []
    for op in ops:
        bound = torder - op.theta_degree()
        if bound < 0:
            raise UsageError(
                "--t-order %d is below the theta-degree %d of the operator %s, "
                "so none of its residuals would be checked"
                % (torder, op.theta_degree(), op)
            )
        targets = _degrees_upto(model.rank, bound)
        res = _shift_t(op.c.items(), words, targets, model, order)
        bad = [{"t": list(f), "detail": cs.describe()} for f, cs in res.items()]
        residuals.append(
            {
                "operator": str(op),
                "checked_t_order": bound,
                "status": "pass" if not bad else "fail",
                "witnesses": bad,
            }
        )
    status = "pass" if all(r["status"] == "pass" for r in residuals) else "fail"
    payload = {
        "model": model.name,
        "N": order,
        "t_order": torder,
        "residuals": residuals,
        "v_at_h1": _v_at_h1(model, words),
        "status": status,
    }
    if torder == 2:
        payload["warning"] = (
            "t-order 2 only checks the constant coefficient; "
            "increase --t-order for a meaningful test"
        )
    if not ops:
        payload["note"] = "no shipped operators for this model"
    return payload


# -- parser ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on first use and shared by every call of
    `main`; parsing keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="qcoh",
        description=(
            "Exact small quantum cohomology: products, differential "
            "equations, J-series, and descendent invariants for the "
            "built-in models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options that most commands share, added ahead of their own
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--n", type=int, default=DEFAULT_N, help="Novikov order")

    p_models = sub.add_parser("models", help="list, inspect, validate models")
    msub = p_models.add_subparsers(dest="action", required=True)
    m_list = msub.add_parser("list", help="names of the built-in models")
    m_list.set_defaults(func=cmd_models_list)
    m_show = msub.add_parser("show", help="dump a model description")
    m_show.add_argument("name")
    m_show.set_defaults(func=cmd_models_show)
    m_val = msub.add_parser("validate", help="run structural checks on a model file")
    m_val.add_argument("file")
    m_val.set_defaults(func=cmd_models_validate)

    p_check = sub.add_parser(
        "check",
        parents=[model, order],
        help="flatness, associativity, and ring-relation checks",
    )
    p_check.add_argument("--flatness", action="store_true")
    p_check.add_argument("--assoc", action="store_true")
    p_check.add_argument(
        "--relations",
        nargs="?",
        const=_BUILTIN_SENTINEL,
        default=None,
        metavar="FILE",
        help="relation file (defaults to the shipped relations)",
    )
    p_check.set_defaults(func=cmd_check)

    p_jfun = sub.add_parser(
        "jfun", parents=[model, order], help="construct and verify the J-series"
    )
    p_jfun.add_argument("--closed-form", action="store_true")
    p_jfun.add_argument("--solve", action="store_true")
    p_jfun.add_argument(
        "--diff",
        action="store_true",
        help="compare the closed form against the differential-equation solve",
    )
    p_jfun.add_argument(
        "--verify",
        nargs="?",
        const=_BUILTIN_SENTINEL,
        default=None,
        metavar="FILE",
        help="operator file to apply (defaults to the shipped operators)",
    )
    p_jfun.add_argument("--out", default=None, help="also write the JSON here")
    p_jfun.set_defaults(func=cmd_jfun)

    p_gw = sub.add_parser(
        "gw", parents=[model, order], help="two-point descendent invariant table"
    )
    p_gw.add_argument("--max-degree", type=int, required=True)
    p_gw.add_argument("--out", default=None, help="also write the JSON here")
    p_gw.set_defaults(func=cmd_gw)

    p_cl = sub.add_parser(
        "classical",
        parents=[model],
        help="constant-coefficient limit of the solution matrix",
    )
    p_cl.set_defaults(func=cmd_classical)

    p_tilde = sub.add_parser(
        "tilde",
        parents=[model, order],
        help="quantum exponential in t and its defining equations",
    )
    p_tilde.add_argument(
        "--t-order", type=int, default=DEFAULT_L, help="t truncation order"
    )
    p_tilde.set_defaults(func=cmd_tilde)

    return parser


def main(argv=None) -> int:
    """Run one command: write its payload to --out, when given, and then to
    stdout, so a path that cannot be written leaves stdout empty.  A failed
    check's report goes to stdout only; bad input goes to stderr."""
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        try:
            payload = args.func(args)
        except CheckFailure as exc:
            payload, out = {"report": exc.report, "status": "fail"}, None
        text = _dump(payload)
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(text)
    except (UsageError, OSError, ValueError, LookupError) as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 2
    return 1 if payload.get("status") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
