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

from .algebra import format_ratio, format_rational
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
    descendent_level,
    extract_descendents,
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

    Two payload shapes have record writers, each one `%` template per
    record: a `_GWTable` (gw's invariant records) and a `_JSeries` (the
    records of jfun's "J").  Every other payload takes the generic walk."""
    out = []
    _write_json(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


class _GWTable(list):
    """gw's invariant records, written by `_gw_writer`."""


class _JSeries(list):
    """The records of a J-series, written by `_j_writer`."""


def _gw_writer(nl):
    """The writer of one record {"D": [int], "axiom": bool, "j_label": str,
    "n": int, "note": str when not axiom, "value": str} at the newline and
    indent nl.  D is never empty: gw lists only positive degrees."""
    i1 = nl + " "
    # each "~" is the indent of a key, so "~ " is the indent of D's entries
    template = '{~"D": [~ %s~],~"axiom": %s,~"j_label": %s,~"n": %d,~%s"value": %s'
    template = template.replace("~", i1) + nl + "}"
    dsep, note = "," + i1 + " ", '"note": %s,' + i1
    return lambda r: template % (
        dsep.join(map(str, r["D"])), "true" if r["axiom"] else "false", _quoted(r["j_label"]),
        r["n"], note % _quoted(r["note"]) if "note" in r else "", _quoted(r["value"]),
    )


def _j_writer(nl):
    """The writer of one record {"coeffs": {label: [[x, "v"], ...]},
    "degree": [int]} at the newline and indent nl, with the coeffs and every
    list of pairs nonempty; it sorts the labels itself."""
    i1, i2, i3, i4 = (nl + " " * k for k in range(1, 5))
    template = '{~"coeffs": {%s~},~"degree": %s'.replace("~", i1) + nl + "}"
    label, pair = "%s: [" + i3 + "%s" + i2 + "]", "[~%d,~%s".replace("~", i4) + i3 + "]"
    sep, psep = "," + i2, "," + i3

    def write(r):
        c, D = r["coeffs"], r["degree"]
        body = sep.join([
            label % (_quoted(k), psep.join([pair % (x, _quoted(v)) for x, v in c[k]]))
            for k in sorted(c)
        ])
        degree = "[" + i2 + sep.join(map(str, D)) + i1 + "]" if D else "[]"
        return template % (i2 + body, degree)

    return write


_RECORD_WRITERS = {_GWTable: _gw_writer, _JSeries: _j_writer}


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
            out(sep + ("," + inner).join(map(writer(inner), x)) + nl + "]")
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
    payload["J"] = _JSeries(J.to_json())

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
    # each record sits at the one level the degree axiom allows: (D, j) names it
    records = extract_descendents(model, Hm, args.max_degree)
    found = {(tuple(r["degree"]), r["j"]): r["value"] for r in records}
    table = _GWTable()
    for D in _degrees_upto(model.rank, args.max_degree)[1:]:
        # allowed[j]: the one level the degree axiom allows along b_j at D, or None
        allowed = [descendent_level(model, j, D) for j in range(model.size)]
        for n in range(max((m for m in allowed if m is not None), default=-1) + 1):
            for j in range(model.size):
                axiom = allowed[j] == n
                rec = {
                    "D": list(D),
                    "n": n,
                    "j_label": model.labels[j],
                    "value": format_rational(found.get((D, j), 0)) if axiom else "0",
                    "axiom": axiom,
                }
                if not axiom:
                    rec["note"] = "forced by degree axiom"
                table.append(rec)
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
    matjson = tpoly_matrix_json(E)
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
    out = []
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
