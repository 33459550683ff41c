"""Noncommutative differential operators in (h, q_i, theta_i) with
theta_i = h q_i d/dq_i, a parser for operator and relation expressions,
and application of operators to flat-section data in three
representations.  The h = 0 symbol of an operator in the quantum ring is
`quantum.eval_relation`.

Normal form: every term is coeff * h^k * q^D * theta^E with the q-part on
the left, obtained by the rewrite theta_i q_j = q_j (theta_i + delta_ij h).
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from itertools import product
from math import comb, lcm

from .algebra import TPoly, format_rational, monomial_text, rational
from .model import (
    CP_MAX,
    ModelSpec,
    _integer,
    builtin_model,
    cp_dimension,
    data_path,
    in_builtin_basis,
    read_cached,
)
from .series import (
    GaugeSeries,
    _add_term,
    _factorial,
    _prefix_walk,
    _shift_t,
    _theta_flat,
)


class ParseError(ValueError):
    """A malformed expression: the message, the position within the
    expression and, for a line of an expression file, the file's path and
    the 1-based line number, comment and blank lines counted."""

    def __init__(self, message, pos=None, path=None, line=None):
        self.message, self.pos, self.path, self.line = message, pos, path, line
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        if path is not None:
            message = "%r, line %d: %s" % (str(path), line, message)
        super().__init__(message)


def _vec_check(rank, v, what):
    v = tuple(_integer(x) for x in v)
    if len(v) != rank or any(x < 0 for x in v):
        raise ValueError("bad %s %r" % (what, v))
    return v


class QDEOperator:
    """Finite sum of normal-ordered terms (h-exponent, q-multidegree,
    theta-exponent) -> coefficient."""

    __slots__ = ("rank", "c")

    # the letter that writes theta_i
    _THETA = "D"

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        c = {}
        if terms:
            for (hexp, qdeg, thexp), v in terms.items():
                hexp = _integer(hexp)
                if hexp < 0:
                    raise ValueError("negative h exponent")
                key = (hexp, _vec_check(rank, qdeg, "q-degree"),
                       _vec_check(rank, thexp, "theta exponent"))
                v = rational(v) if not isinstance(v, Fraction) else v
                s = c.get(key, Fraction(0)) + v
                if s:
                    c[key] = s
                else:
                    c.pop(key, None)
        self.c = c

    @classmethod
    def _monomial(cls, rank, hexp=0, qdeg=None, thexp=None, v=Fraction(1)):
        """v * h^hexp * q^qdeg * theta^thexp; a missing vector is zero."""
        zero = (0,) * rank
        return cls(rank)._new({(hexp, qdeg or zero, thexp or zero): v} if v else {})

    @classmethod
    def const(cls, rank, v):
        return cls._monomial(rank, v=rational(v))

    @classmethod
    def gen_h(cls, rank):
        return cls._monomial(rank, hexp=1)

    @classmethod
    def gen_q(cls, rank, i):
        return cls._monomial(rank, qdeg=_unit_vector(rank, i))

    @classmethod
    def gen_theta(cls, rank, i):
        return cls._monomial(rank, thexp=_unit_vector(rank, i))

    def _new(self, terms):
        """A result of this class, whose terms are `terms`."""
        out = object.__new__(type(self))
        out.rank, out.c = self.rank, terms
        return out

    def __eq__(self, other):
        if not isinstance(other, QDEOperator):
            return NotImplemented
        return self.rank == other.rank and self.c == other.c

    def __neg__(self):
        return self._new({k: -v for k, v in self.c.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QDEOperator.const(self.rank, other)
        if not isinstance(other, QDEOperator):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        c = dict(self.c)
        for k, v in other.c.items():
            s = c.get(k, Fraction(0)) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        return self._new(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = rational(other)
            return self._new({k: c * v for k, c in self.c.items()}) if v else self._new({})
        if not isinstance(other, QDEOperator):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = {}
        for (h1, q1, e1), v1 in self.c.items():
            for (h2, q2, e2), v2 in other.c.items():
                # commute theta^{e1} past q^{q2}:
                # theta_i^e q_i^d = q_i^d (theta_i + d h)^e
                options = []
                for i in range(self.rank):
                    e, d = e1[i], q2[i]
                    if e == 0 or d == 0:
                        options.append(((e, 0, 1),))
                    else:
                        options.append(
                            tuple(
                                (k, e - k, comb(e, k) * d ** (e - k))
                                for k in range(e, -1, -1)
                            )
                        )
                qdeg = tuple(a + b for a, b in zip(q1, q2))
                for choice in product(*options):
                    hshift = sum(ch[1] for ch in choice)
                    mult = 1
                    for ch in choice:
                        mult *= ch[2]
                    key = (
                        h1 + h2 + hshift,
                        qdeg,
                        tuple(ch[0] + b for ch, b in zip(choice, e2)),
                    )
                    s = out.get(key, Fraction(0)) + v1 * v2 * mult
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return self._new(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        zero = (0,) * self.rank
        out = self._new({(0, zero, zero): Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def theta_degree(self):
        return max((sum(e) for (_, _, e) in self.c), default=0)

    def q_free_part(self):
        zero = (0,) * self.rank
        return self._new({k: v for k, v in self.c.items() if k[1] == zero})

    def theta_part(self):
        """Drop every term carrying an h or q factor."""
        zero = (0,) * self.rank
        return self._new(
            {k: v for k, v in self.c.items() if k[0] == 0 and k[1] == zero}
        )

    def items_sorted(self):
        return sorted(
            self.c.items(),
            key=lambda kv: (
                -sum(kv[0][2]),
                kv[0][2],
                sum(kv[0][1]),
                kv[0][1],
                kv[0][0],
            ),
        )

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for (hexp, qdeg, thexp), v in self.items_sorted():
            factors = [
                "h" if hexp == 1 else "h^%d" % hexp if hexp else "",
                monomial_text("q", qdeg),
                monomial_text(self._THETA, thexp),
            ]
            body = "*".join(f for f in factors if f)
            if v == 1 and body:
                term = body
            elif v == -1 and body:
                term = "-" + body
            else:
                sv = format_rational(v)
                term = "%s*%s" % (sv, body) if body else sv
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)

    __repr__ = __str__


def _unit_vector(rank, i):
    return tuple(int(k == i - 1) for k in range(rank))


class RelPoly(QDEOperator):
    """A quantum-ring relation: a commutative polynomial in q_1..q_r and
    the generators b_1..b_r, held as the h = 0 symbol of an operator, with
    b_i for theta_i.  Every result drops the terms that carry h, and the
    h^0 part of a normal-ordered product is the commutative product, since
    theta_i^e q_i^d = q_i^d (theta_i + d h)^e."""

    __slots__ = ()

    _THETA = "b"

    def __init__(self, rank, terms=None):
        """`terms` maps (q-degree, generator exponent) to coefficients."""
        super().__init__(rank, {(0, q, b): v for (q, b), v in (terms or {}).items()})

    def _new(self, terms):
        return super()._new({k: v for k, v in terms.items() if not k[0]})


# -- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])|(?P<ws>\s+)|(?P<bad>.)"
)

_NAME_RE = re.compile(r"^(h|[qDb][1-9][0-9]*)$")

# The largest exponent `^` takes, M1 of the largest cp<m>; a power is built
# by repeated products, so an unbounded one would run for hours.
MAX_EXPONENT = CP_MAX + 1


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(), m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser with one precedence table, tightest first:
    atoms (an integer, a name, a bracketed expression); `^` with an
    integer literal from 0 to MAX_EXPONENT; unary `-`; `*` and `/`, left to
    right, where a divisor must evaluate to a nonzero constant; binary `+`
    and `-`, after one optional leading `+`.  Multiplication is always
    explicit.  So `2*-D1^2` is -2*D1^2, `q1 - -b1^2` is q1 + b1^2 and
    `3/4^2*b1` is 3/16*b1, as in Python with `**` for `^`."""

    def __init__(self, text, kind, rank):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kind = kind
        self.rank = rank

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_op(self, symbols):
        """The next token's symbol, taken, when it is an operator in
        `symbols`; else None."""
        kind, val, _ = self.peek()
        if kind == "op" and val in symbols:
            self.pos += 1
            return val
        return None

    def parse(self):
        try:
            out = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % val, pos)
        return out

    def expr(self):
        self.take_op("+")
        out = self.term()
        while op := self.take_op("+-"):
            nxt = self.term()
            out = out - nxt if op == "-" else out + nxt
        return out

    def term(self):
        out = self.unary()
        while op := self.take_op("*/"):
            pos = self.peek()[2]
            nxt = self.unary()
            if op == "/":
                zero = (0,) * self.rank
                if set(nxt.c) != {(0, zero, zero)}:
                    raise ParseError("divisor must be a nonzero constant", pos)
                nxt = 1 / nxt.c[0, zero, zero]
            out = out * nxt
        return out

    def unary(self):
        if self.take_op("-"):
            return -self.unary()
        base = self.atom()
        if self.take_op("^"):
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
                raise ParseError("exponent too large: at most %d" % MAX_EXPONENT, pos)
            return base ** int(val)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.kind.const(self.rank, Fraction(int(val)))
        if kind == "name":
            if not _NAME_RE.match(val):
                raise ParseError("unknown symbol %r" % val, pos)
            return _symbol(self.kind, self.rank, val, pos)
        if kind == "op" and val == "(":
            out = self.expr()
            if not self.take_op(")"):
                raise ParseError("expected ')'", self.peek()[2])
            return out
        raise ParseError("unexpected %r" % (val or "end of input"), pos)


def _symbol(kind, rank, name, pos):
    """The generator that `name` writes in an expression of class `kind`:
    h, q_i and theta_i (D_i) in an operator; q_i and b_i in a relation."""
    if kind is RelPoly and (name == "h" or name[0] == "D"):
        raise ParseError("symbol %r is not valid in a ring relation" % name, pos)
    if name == "h":
        return kind.gen_h(rank)
    idx = int(name[1:])
    if idx > rank:
        raise ParseError("index %d exceeds rank %d" % (idx, rank), pos)
    if name[0] == "q":
        return kind.gen_q(rank, idx)
    if name[0] != kind._THETA:
        raise ParseError(
            "basis symbol %r is not valid in a differential operator" % name, pos
        )
    return kind.gen_theta(rank, idx)


def parse_operator(src: str, rank: int) -> QDEOperator:
    return _Parser(src, QDEOperator, rank).parse()


def parse_relation(src: str, rank: int) -> RelPoly:
    return _Parser(src, RelPoly, rank).parse()


# -- expression files ----------------------------------------------------


def read_expression_lines(path, subs=None):
    """Expression-per-line text files; '#' starts a comment, blanks skipped.
    `subs` maps placeholder names to replacement text."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line for _, line in _expression_lines(fh, subs)]


def _expression_lines(lines, subs):
    """(1-based line number, expression) for each line that holds one."""
    for n, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if subs:
            for key, val in subs.items():
                line = line.replace(key, val)
        yield n, line


def _parsed_lines(data, parse, rank, subs):
    """The expressions of an expression file's bytes, read as
    `read_expression_lines` reads the file, each parsed by `parse`; a
    ParseError gets the number of its line, and so do bytes that are not
    UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line count of the text before the bad byte, plus one
        line = len((data[: exc.start] + b".").splitlines())
        raise ParseError("not valid UTF-8: %s" % exc.reason, line=line) from None
    out = []
    for n, line in _expression_lines(io.StringIO(text, newline=None), dict(subs)):
        try:
            out.append(parse(line, rank))
        except ParseError as exc:
            exc.line = n
            raise
    return tuple(out)


def _load(path, parse, rank, subs):
    """A fresh list of the file's parsed expressions, parsed once per
    distinct content and shared (`read_cached`); `subs` keeps its order,
    since the substitutions apply in turn.  A ParseError names the path
    and the line."""
    subs = tuple(subs.items()) if subs else ()
    try:
        return list(read_cached(path, _parsed_lines, parse, rank, subs))
    except ParseError as exc:
        raise ParseError(exc.message, exc.pos, path, exc.line) from None


def load_operators(path, rank, subs=None):
    return _load(path, parse_operator, rank, subs)


def load_relations(path, rank, subs=None):
    return _load(path, parse_relation, rank, subs)


def load_rowspec(path, rank, subs=None):
    ops = load_operators(path, rank, subs)
    if not ops or ops[-1] != QDEOperator.const(rank, 1):
        raise ValueError("rowspec file must end with the identity row '1'")
    return ops


# -- application ---------------------------------------------------------


def apply_gauge_many(ops, s: GaugeSeries) -> list:
    """Apply several normal-ordered operators to one gauge-normalized
    section, returning one GaugeSeries per operator.  The terms of all the
    operators are grouped by their theta exponent E, and one
    `series._prefix_walk` from the stored numerators of s over s.den, with
    the theta kernel `_theta_flat` as its step, reaches each theta^E once,
    one kernel call per distinct prefix.

    theta^E multiplies that denominator by qden^|E|, qden the denominator
    of the model's integral product table (`ModelSpec.quantum_rows`; 1 for
    every builtin).  An operator's result is over the lcm of
    v.denominator * den * qden^|E| over its terms v * h^hexp * q^qdeg *
    theta^E, so each term adds an int multiple of its prefix, moved by hexp
    in h and by qdeg in q."""
    model, order = s.model, s.order
    qden = model.quantum_rows()[0]
    dens, groups = [], {}  # groups: E: the terms (pos, hexp, qdeg, v) of theta^E
    for pos, op in enumerate(ops):
        if op.rank != model.rank:
            raise ValueError("rank mismatch")
        den = s.den
        for (hexp, qdeg, E), v in op.c.items():
            den = lcm(den, s.den * v.denominator * qden ** sum(E))
            groups.setdefault(E, []).append((pos, hexp, qdeg, v))
        dens.append(den)
    acc = [{} for _ in dens]
    walk = _prefix_walk(groups, (s.flat, s.den), lambda flat, i: _theta_flat(model, flat, i))
    for E, (prefix, den) in walk:
        for pos, hexp, qdeg, v in groups[E]:
            n = v.numerator * (dens[pos] // (v.denominator * den))
            _add_term(acc[pos], prefix, n, hexp, qdeg, order)
    return [GaugeSeries._stored(model, order, out, den) for out, den in zip(acc, dens)]


def apply_gauge(op: QDEOperator, s: GaugeSeries) -> GaugeSeries:
    """Apply a normal-ordered operator to a gauge-normalized section: the
    theta-part acts termwise as cup-by-generator plus degree-weighted h,
    the q-part shifts the Novikov degree, h scales the coefficients.  The
    terms share one walk over the prefixes of their theta monomials; see
    apply_gauge_many, which applies several operators in one walk."""
    return apply_gauge_many((op,), s)[0]


def apply_constq(op: QDEOperator, tp: TPoly, model: ModelSpec) -> TPoly:
    """Apply an operator to a t-polynomial of Novikov-series coefficients,
    with q_i a constant scalar (no t-coupling) and theta_i = h d/dt_i: one
    `_shift_t` over its coefficients in divided powers (the t^e coefficient
    times e!), on every exponent a term's theta^E shifts one to."""
    if op.rank != model.rank:
        raise ValueError("rank mismatch")
    order = next((cs.order for cs in tp.c.values()), 0)
    ft = {
        e: (_add_term({}, cs.flat, _factorial(e), 0, (), order), cs.den)
        for e, cs in tp.c.items()
    }
    thetas = {E for _, _, E in op.c}
    targets = {
        tuple(x - y for x, y in zip(e, E))
        for e in ft for E in thetas if all(x >= y for x, y in zip(e, E))
    }
    return TPoly(tp.nvars, _shift_t(op.c.items(), ft, targets, model, order))


def apply_classical(op: QDEOperator, tp: TPoly, model: ModelSpec) -> TPoly:
    """Apply a q-free operator to a t-polynomial of CohSeries of Novikov
    order 0, such as the classical J of `asymptotic_J`, with theta_i =
    h d/dt_i: the shift of `apply_constq`."""
    zero = (0,) * op.rank
    if any(k[1] != zero for k in op.c):
        raise ValueError("operator has Novikov terms; take the q-free part first")
    return apply_constq(op, tp, model)


# -- shipped expression data ---------------------------------------------

def expression_substitutions(model: ModelSpec):
    """Textual substitutions honoured in expression files for this model
    (the projective-space family parametrizes its files by M1 = dim + 1)."""
    m = cp_dimension(model.name)
    if m:
        return {"M1": str(m + 1)}
    return None


def _shipped(model: ModelSpec, ext, what):
    """(path, substitutions) of the `what` file shipped for the model:
    data/cpm.EXT for every cp<m>, else data/NAME.EXT."""
    path = data_path("%s.%s" % ("cpm" if cp_dimension(model.name) else model.name, ext))
    if not path.is_file():
        raise LookupError("no %s shipped for model %r" % (what, model.name))
    return path, expression_substitutions(model)


def builtin_operators(model: ModelSpec, defining_only=False):
    """The operators shipped for the model; with `defining_only`, the first
    `model.rank` of them, which generate the system (every shipped file
    lists its defining operators first, one per ring relation)."""
    path, subs = _shipped(model, "ops", "operator file")
    ops = load_operators(path, model.rank, subs)
    if defining_only:
        return ops[: model.rank]
    return ops


def builtin_rowspec(model: ModelSpec):
    """The row operators shipped for the builtin of the model's name.  They
    are written for the builtin's basis, so a model whose pairing or cup
    table differs from the builtin's (the same ring in another basis)
    raises LookupError, as does a name with no shipped rows."""
    m = cp_dimension(model.name)
    if m:
        texts = ["D1^%d" % (m - i) for i in range(m)] + ["1"]
    else:
        path, subs = _shipped(model, "rows", "row expressions")
    if not in_builtin_basis(model):
        raise LookupError(
            "the row expressions shipped for %r are written for the builtin "
            "basis, but this model %r has another pairing or cup table"
            % (builtin_model(model.name).name, model.name)
        )
    if m:
        return [parse_operator(t, 1) for t in texts]
    return load_rowspec(path, model.rank, subs)


def builtin_relations(model: ModelSpec):
    path, subs = _shipped(model, "rel", "relation file")
    return load_relations(path, model.rank, subs)
