"""Seeded request streams for the qcoh benchmark.

A workload is a list of *slots*.  Each slot holds one or more alternative
requests; a seed picks one alternative per slot and then shuffles the
slots into the order of a *round*.  The client replays the round in a
closed loop.  Slots that carry most of a round's time (f3 and sigma1 at
mid Novikov orders) and the slots near the median have a single
alternative, so every seed gives a round of nearly the same cost and
different seeds stay comparable; the cheap slots, the order and the
contents of the generated operator and relation files vary with the seed.

Every workload has 5 mod 10 slots.  With requests of distinct costs, the
median and the 90th percentile of a run then fall in the middle of one
request's samples instead of between two requests, where they would jump
with noise.

Nothing here imports qcoh at module level: `Setup` does, so that a fresh
interpreter can time the import together with the model set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

WORKLOADS = ("solve", "construct", "ring")
CLOSED_FORM_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1")
ALL_MODELS = ("cp1", "cp2", "cp3", "cp4", "cp5", "f3", "sigma1", "gr24")
RANK = {m: 2 if m in ("f3", "sigma1") else 1 for m in ALL_MODELS}

# Small rationals for the random factors P in (P)*(A) and (P)*(R).
COEFFS = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2", "-3/2", "2/3", "-2/3")


class SourceMissing(RuntimeError):
    """The checkout holds no qcoh sources to benchmark."""


def add_source_path():
    """Make `import qcoh` load the sources of this checkout and nothing else."""
    if not (SRC / "qcoh" / "__init__.py").is_file():
        raise SourceMissing("no qcoh sources at %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_qcoh():
    add_source_path()
    import qcoh
    import qcoh.cli  # noqa: F401 - the CLI is not imported by the package

    if Path(qcoh.__file__).resolve().parent != (SRC / "qcoh").resolve():
        raise SourceMissing("imported qcoh from %s, not %s" % (qcoh.__file__, SRC))
    return qcoh


# -- requests ----------------------------------------------------------------


class Request:
    """One call a client waits for: a CLI argv or a library chain.

    `key` names the request in the output oracle; the seeded files a CLI
    request reads are named by slot, and their contents never reach a
    passing output, so one key means one expected output for every seed.
    """

    __slots__ = ("key", "argv", "lib")

    def __init__(self, argv=None, lib=None):
        self.argv = argv
        self.lib = lib
        if argv is not None:
            self.key = " ".join(argv)
        else:
            self.key = "lib closed_form>build_H_from_J>q_factorize --model %s --n %d" % lib


def cli(*argv):
    return Request(argv=[str(a) for a in argv])


def lib(model, order):
    return Request(lib=(model, order))


class FileSpec:
    """A seeded input file: `lines` products (P)*(X) with X a shipped
    operator (kind 'ops') or relation (kind 'rel') of `model`."""

    __slots__ = ("name", "kind", "model", "lines")

    def __init__(self, kind, model, lines):
        self.kind = kind
        self.model = model
        self.lines = lines
        self.name = "%s-%s-%d.%s" % (kind, model, lines, kind)


def _solve_slots():
    slots = []
    for n in (5, 6, 7, 8):
        slots.append([cli("jfun", "--model", "f3", "--solve", "--n", n)])
        slots.append([cli("jfun", "--model", "sigma1", "--solve", "--n", n)])
    for m in ("cp4", "cp5", "gr24"):
        slots.append([cli("jfun", "--model", m, "--solve", "--n", 6)])
    # Pairs of near-equal requests, here and for gr24 below, put p90 and
    # the median inside a plateau of similar costs, not at the edge of one
    # request's samples.
    for _ in range(2):
        slots.append([cli("gw", "--model", "f3", "--max-degree", d, "--n", 7) for d in (2, 3)])
        slots.append([cli("gw", "--model", "gr24", "--max-degree", d) for d in (2, 3, 4)])
    slots.append([cli("gw", "--model", "sigma1", "--max-degree", 4, "--n", 6)])
    slots.append([cli("gw", "--model", "sigma1", "--max-degree", 3, "--n", 4)])
    slots.append([cli("gw", "--model", "cp5", "--max-degree", 3)])
    slots.append([cli("gw", "--model", "cp4", "--max-degree", 3)])
    # cheap requests, always below the median, take seeded orders
    for m in ("cp1", "cp2", "cp3"):
        slots.append([cli("jfun", "--model", m, "--solve", "--n", n) for n in range(4, 9)])
    slots.append([cli("gw", "--model", "cp1", "--max-degree", d) for d in (2, 3, 4, 5, 6)])
    slots.append([cli("gw", "--model", "cp2", "--max-degree", d) for d in (2, 3, 4)])
    slots.append([cli("gw", "--model", "cp3", "--max-degree", d) for d in (2, 3, 4)])
    return slots, []


def _construct_slots():
    slots, files = [], []
    # f3 at order 5 twice: with the q_factorize chain on f3 these make a
    # plateau of similar costs around p90
    for n in (4, 5, 5):
        slots.append([cli("jfun", "--model", "f3", "--closed-form", "--verify", "--n", n)])
    for n in (5, 6, 7):
        slots.append([cli("jfun", "--model", "sigma1", "--closed-form", "--verify", "--n", n)])
    for m in ("cp1", "cp2", "cp3", "cp4", "cp5"):
        slots.append(
            [cli("jfun", "--model", m, "--closed-form", "--verify", "--n", n) for n in (5, 6, 7, 8)]
        )
    seeded = [("f3", 2, (4,)), ("f3", 3, (5,)), ("sigma1", 2, (5,)), ("sigma1", 3, (6,)),
              ("cp5", 3, (4,)), ("cp1", 2, (4, 5, 6)), ("cp2", 2, (4, 5, 6)), ("cp3", 2, (4, 5, 6))]
    for m, k, orders in seeded:
        spec = FileSpec("ops", m, k)
        files.append(spec)
        slots.append(
            [cli("jfun", "--model", m, "--closed-form", "--verify", spec.name, "--n", n)
             for n in orders]
        )
    slots.append([lib("f3", 3)])
    slots.append([lib("sigma1", 3)])
    slots.append([lib("sigma1", 4)])
    slots.append([lib("cp4", 3)])
    for m in ("cp2", "cp3"):
        slots.append([lib(m, n) for n in (3, 4)])
    return slots, files


def _ring_slots():
    slots, files = [], []
    rel_lines = {"cp1": 3, "cp2": 3, "cp3": 3, "cp4": 2, "cp5": 2, "f3": 2, "sigma1": 3, "gr24": 2}
    tilde_orders = {"f3": 8, "sigma1": 9, "gr24": 10}
    for m in ALL_MODELS:
        slots.append([cli("check", "--model", m, "--n", n) for n in (3, 4, 5, 6)])
        slots.append([cli("check", "--model", m, "--relations")])
        spec = FileSpec("rel", m, rel_lines[m])
        files.append(spec)
        slots.append([cli("check", "--model", m, "--relations", spec.name, "--n", n)
                      for n in (3, 4, 5, 6)])
        slots.append([cli("tilde", "--model", m, "--t-order", tilde_orders.get(m, 12))])
        slots.append([cli("classical", "--model", m)])
    for m in ("f3", "sigma1", "gr24", "cp3", "cp5"):
        slots.append([cli("check", "--model", m, "--flatness", "--assoc", "--n", n)
                      for n in (4, 5, 6)])
    return slots, files


SLOTS = {"solve": _solve_slots, "construct": _construct_slots, "ring": _ring_slots}


def request_space(workload):
    """Every request a seed can draw for the workload (the oracle's keys)."""
    slots, _ = SLOTS[workload]()
    seen, out = set(), []
    for slot in slots:
        for req in slot:
            if req.key not in seen:
                seen.add(req.key)
                out.append(req)
    return out


def make_round(workload, seed):
    """(requests in round order, seeded file specs) for one seed."""
    slots, files = SLOTS[workload]()
    rng = random.Random("round:%s:%d" % (workload, seed))
    chosen = [rng.choice(slot) for slot in slots]
    rng.shuffle(chosen)
    return chosen, files


# -- seeded input files ----------------------------------------------------------


def _term(rng, body):
    return rng.choice(COEFFS), body


def _join(terms):
    """c0 + c1*m1 + ... with signs folded: '3/2 - 1/2*D2 + q1*D1'."""
    out = ""
    for coeff, body in terms:
        neg = coeff.startswith("-")
        mag = coeff.lstrip("-")
        text = (mag + "*" + body) if body else mag
        if not out:
            out = ("-" if neg else "") + text
        else:
            out += (" - " if neg else " + ") + text
    return out


def random_operator_factor(rng, rank):
    """P in h, q_i and D_i: a constant, a theta-linear term and a q-linear
    term.  Mixing degrees makes (P)*(A) inhomogeneous in h."""
    i, j, k = (rng.randint(1, rank) for _ in range(3))
    theta = rng.choice(("D%d" % i, "h*D%d" % i))
    qterm = rng.choice(("q%d" % j, "q%d*D%d" % (j, k), "h*q%d" % j))
    return _join([_term(rng, ""), _term(rng, theta), _term(rng, qterm)])


def random_relation_factor(rng, rank):
    """P in q_i and b_i: a constant, a generator and a Novikov variable."""
    i, j = rng.randint(1, rank), rng.randint(1, rank)
    return _join([_term(rng, ""), _term(rng, "b%d" % i), _term(rng, "q%d" % j)])


def shipped_lines(model_name, kind):
    """Raw lines of the shipped operator or relation file of a model
    (projective spaces keep the M1 placeholder, substituted on load)."""
    from qcoh.operators import read_expression_lines
    from qcoh.model import data_path

    if model_name.startswith("cp"):
        return read_expression_lines(data_path("cpm.%s" % kind))
    return read_expression_lines(data_path("%s.%s" % (model_name, kind)))


def file_text(spec, seed):
    rng = random.Random("file:%s:%d" % (spec.name, seed))
    base = shipped_lines(spec.model, spec.kind)
    factor = random_operator_factor if spec.kind == "ops" else random_relation_factor
    lines = ["(%s)*(%s)" % (factor(rng, RANK[spec.model]), rng.choice(base))
             for _ in range(spec.lines)]
    header = "# seeded products with shipped %s lines; each vanishes exactly\n" % spec.kind
    return header + "\n".join(lines) + "\n"


def write_files(specs, seed, directory):
    """Write the seeded files; return {name: sha256 of the bytes}."""
    digests = {}
    for spec in specs:
        data = file_text(spec, seed).encode("utf-8")
        (Path(directory) / spec.name).write_bytes(data)
        digests[spec.name] = hashlib.sha256(data).hexdigest()
    return digests


# -- set-up ---------------------------------------------------------------------------


class Setup:
    """What a long-lived client builds once: models and shipped files."""

    def __init__(self, workload):
        qcoh = import_qcoh()
        self.models = {}
        self.rowspecs = {}
        self.operators = {}
        self.relations = {}
        names = CLOSED_FORM_MODELS if workload == "construct" else ALL_MODELS
        for name in names:
            model = qcoh.resolve_model(name)
            self.models[name] = model
            if workload == "construct":
                self.operators[name] = qcoh.builtin_operators(model)
                self.rowspecs[name] = qcoh.builtin_rowspec(model)
            elif workload == "ring":
                self.relations[name] = qcoh.builtin_relations(model)
                if name != "gr24":
                    self.operators[name] = qcoh.builtin_operators(model)


# -- running one request ------------------------------------------------------------


def lib_output(Q, H0):
    """Canonical bytes of a Q-factorization: Q's Novikov series and H_0's
    gauge matrices, rationals through format_rational, keys sorted."""
    from qcoh.algebra import format_rational

    q_json = [
        [[{"degree": list(D), "c": format_rational(v)} for D, v in entry.items_sorted()]
         for entry in row]
        for row in Q
    ]
    h0_json = [
        {"degree": list(D), "matrix": [[x.to_json() for x in row] for row in mat]}
        for D, mat in sorted(H0.gauge_matrices().items())
    ]
    return json.dumps({"H0": h0_json, "Q": q_json}, sort_keys=True).encode("utf-8")


class Result:
    __slots__ = ("seconds", "exit", "out", "error")

    def __init__(self, seconds, exit_code, out, error):
        self.seconds = seconds
        self.exit = exit_code
        self.out = out
        self.error = error


def run_request(req, setup, main, chain):
    """Run one request in process and time it.  `main` is qcoh.cli.main and
    `chain` the library chain, passed in so that traced runs can hand in
    the same callables after wrapping."""
    if req.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(req.argv)
            error = err.getvalue() or None
        except SystemExit as exc:  # argparse rejects the argv
            code, error = exc.code, err.getvalue() or "usage error"
        except Exception as exc:  # noqa: BLE001 - a crash is a failed request
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        return Result(seconds, code, out.getvalue().encode("utf-8"), error)
    name, order = req.lib
    model, rows = setup.models[name], setup.rowspecs[name]
    start = time.perf_counter()
    try:
        Q, H0 = chain(model, order, rows)
        code, error = 0, None
    except Exception as exc:  # noqa: BLE001 - a crash is a failed request
        Q = H0 = None
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    out = lib_output(Q, H0) if Q is not None else b""
    return Result(seconds, code, out, error)


def library_chain(sections):
    """closed_form -> build_H_from_J -> q_factorize, looked up on the module
    at call time so that wrapped functions are seen."""

    def chain(model, order, rows):
        J = sections.closed_form(model, order)
        Hm = sections.build_H_from_J(model, J, rows)
        return sections.q_factorize(model, Hm, rows)

    return chain


# -- output oracle ----------------------------------------------------------------


def load_oracle():
    with open(ORACLE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failure_reason(result, expected):
    """None when the request passed, else why it failed."""
    if result.exit != 0:
        return "exit %r: %s" % (result.exit, (result.error or "").strip()[:200])
    if result.error:
        return "stderr: %s" % result.error.strip()[:200]
    if expected is None:
        return "no recorded digest for this request"
    if digest(result.out) != expected:
        return "output digest differs from the recorded one"
    return None


def passing_status(result):
    """At record time: a CLI report must carry status 'pass' where it has one."""
    try:
        payload = json.loads(result.out.decode("utf-8"))
    except ValueError:
        return False
    return payload.get("status", "pass") == "pass" if isinstance(payload, dict) else False


def max_denominator_digits(data: bytes) -> int:
    """Digits of the largest denominator among the 'p/q' strings of an output."""
    best = 0
    text = data.decode("utf-8")
    pos = text.find("/")
    while pos != -1:
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        if end > pos + 1 and text[pos - 1].isdigit():
            best = max(best, end - pos - 1)
        pos = text.find("/", end)
    return best


@contextlib.contextmanager
def chdir(path):
    """Run requests with the seeded files in the cwd, so that their bare
    names (which appear in reports) do not depend on where the checkout
    lives."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)
