"""Cohomology-valued Novikov series and the gauge form of flat sections.

A CohSeries holds, per Novikov multidegree D, a cohomology class whose
coordinates are Laurent polynomials in h, truncated at a total degree.  It
is stored flat and fraction-free, as a pair (flat, den): flat is
{D: {(k, x): n}} with int numerators n and den one positive int for the
whole series, the b_k coordinate of the q^D coefficient holding the term
n/den * h^x.  Every h-exponent is kept, so nothing here assumes a grading.
The pair and its linear arithmetic live in one base, `IntSeries`, which
`quantum.QElem` shares with keys k in place of (k, x).  The pair is
canonical (`_canonical`): no zero numerators or empty degrees, and the gcd
of den and every numerator is 1.  So two series are equal exactly when
their pairs are, and zero is ({}, 1).

`_canonical` keeps rows that are already canonical, so a stored pair may
hold the very dicts its producer passed in, and two series may share a
row.  Hence the ownership rule: a producer hands `IntSeries._stored` only
dicts it built itself (never a model's or module data), and no stored
row is ever changed in place.

The t-shift (`_shift_t`, `_add_term`) and `_components` read and write
the stored (k, x) keys.  The other kernels run at h = 1 on dense int
vectors of b_k coordinates, one per degree and weight: `_flat_apply`, the
sparse map that the solver, the closed form and the operator walk share,
and `_theta_at_one`, the one theta kernel, which steps `_prefix_walk` (the
one walk over generator words; `quantum` steps it with `QElem.times`) in
`operators.apply_gauge_many`, and serves `GaugeSeries.theta` and
`sections._system_report`.  `_by_weight` takes h out of a stored series and
`_graded` puts it back, from the grading; `quantum._exp_words` writes its
own (k, -|e|) keys.  Other readers of the keys: in `sections`
`_graded_at_one`, `extract_descendents` and the H_0 head check of
`q_factorize`; `cli._v_at_h1` and `cli._j_writer`.  HLaurent and Fraction
values are built only for output and the views `c`, `coeff`, `items_sorted`.

A GaugeSeries is the same data read as the section e^{t/h} * sum_D c_D q^D;
in that reading the operator theta_i = h d/dt_i acts on the q^D term as cup
multiplication by b_i plus the scalar d_i*h, and q_i shifts D.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add

from .algebra import HLaurent, format_ratio, monomial_text, rational
from .model import CohClass, ModelSpec, _integer


def _canonical(rows, den):
    """(rows, den) without zero numerators or empty rows, and with the gcd
    of den and every numerator divided out; zero is ({}, 1).  The rows are
    dicts of int numerators under any keys: (k, x) for a CohSeries, k for
    a QElem.  With nothing to drop or divide out, rows itself comes back."""
    if not all(row and all(row.values()) for row in rows.values()):
        rows = {D: r for D, row in rows.items() if (r := {k: v for k, v in row.items() if v})}
    if den == 1:
        return rows, den
    g = gcd(den, *(v for row in rows.values() for v in row.values()))
    if g > 1:
        den //= g
        rows = {D: {k: v // g for k, v in row.items()} for D, row in rows.items()}
    return rows, den


def _sum(pairs):
    """The sum of the pairs (rows, den), as numerators over the lcm of
    their denominators; zeros are kept, for `_canonical` to drop."""
    pairs = list(pairs)
    den = lcm(*(d for _, d in pairs))
    out = {}
    for rows, d in pairs:
        m = den // d
        for D, row in rows.items():
            acc = out.setdefault(D, {})
            for key, n in row.items():
                acc[key] = acc[key] + m * n if key in acc else m * n
    return out, den


def _degree_order(D):
    return (sum(D), D)


def _degrees_upto(rank, order):
    """All multidegrees with total degree <= order, ascending by (total, lex);
    ValueError on a negative order, which no degree is below."""
    if order < 0:
        raise ValueError("negative order %d" % order)
    out = [()]
    for _ in range(rank):
        out = [d + (k,) for d in out for k in range(order + 1 - sum(d))]
    return sorted(out, key=_degree_order)


def _prefix_walk(exps, start, step):
    """Yield (E, start theta^E) once per distinct exponent vector E in
    `exps`, theta^E applying step(value, i) along the word 1^{e_1} 2^{e_2}
    ... of generator indices.  The words come in lexicographic order, so
    the words sharing a prefix are adjacent; only the chain of prefixes of
    the current word is held, and each distinct prefix costs one step."""
    words = {sum(((i,) * e for i, e in enumerate(E, start=1)), ()): E for E in exps}
    chain, prev = [start], ()  # chain[n] is the value after the first n letters of prev
    for word in sorted(words):
        n = min(len(word), len(prev))
        while word[:n] != prev[:n]:
            n -= 1
        del chain[n + 1:]
        for i in word[n:]:
            chain.append(step(chain[-1], i))
        prev = word
        yield words[word], chain[-1]


class IntSeries:
    """The canonical pair (flat, den) of a truncated series in q: flat is
    {D: {key: n}} with int numerators over the one int den > 0, made
    canonical by `_canonical`.  The shared storage and linear arithmetic of
    CohSeries (keys (k, x)) and quantum.QElem (keys k); a subclass says how
    its constructor reads a class's coordinates (`_coords`, giving (key,
    value) pairs) and keeps its own coeff and ring code.  The
    types mix when one derives from the other (a GaugeSeries with a
    CohSeries), not otherwise."""

    __slots__ = ("model", "order", "flat", "den")

    def __init__(self, model: ModelSpec, order: int, terms=None):
        """`terms` maps multidegrees to CohClass values, checked against the
        model's rank and size; degrees past `order` are dropped."""
        self.model = model
        self.order = order
        kept = {}
        for D, cls in (terms or {}).items():
            D = tuple(_integer(x) for x in D)
            if len(D) != model.rank or any(x < 0 for x in D):
                raise ValueError("bad multidegree %r" % (D,))
            if len(cls.coords) != model.size:
                raise ValueError("class of size %d, model size %d" % (len(cls.coords), model.size))
            if sum(D) <= order:
                kept[D] = [(key, rational(v)) for key, v in self._coords(cls.coords)]
        den = lcm(*(v.denominator for pairs in kept.values() for _, v in pairs))
        flat = {
            D: {key: v.numerator * (den // v.denominator) for key, v in pairs}
            for D, pairs in kept.items()
        }
        self.flat, self.den = _canonical(flat, den)

    @classmethod
    def _stored(cls, model, order, flat, den):
        """The series of the numerators `flat` over den, made canonical:
        how every producer builds its result.  It may keep flat and its
        rows, which the caller must have built and must not change."""
        out = object.__new__(cls)
        out.model, out.order = model, order
        out.flat, out.den = _canonical(flat, den)
        return out

    def _new(self, flat, den):
        return self._stored(self.model, self.order, flat, den)

    def _mixes(self, other):
        return isinstance(other, type(self)) or isinstance(self, type(other))

    @property
    def c(self):
        """The terms as a new dict {multidegree: CohClass}."""
        return {D: self.coeff(D) for D in self.flat}

    def __bool__(self):
        return bool(self.flat)

    def __eq__(self, other):
        if not self._mixes(other):
            return NotImplemented
        return (self.order, self.den, self.flat) == (other.order, other.den, other.flat)

    def __add__(self, other):
        if not self._mixes(other):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        return self._new(*_sum(((self.flat, self.den), (other.flat, other.den))))

    def __sub__(self, other):
        return self + other.scaled(-1) if self._mixes(other) else NotImplemented

    def scaled(self, x):
        """Scale every coefficient by an exact rational (`algebra.rational`:
        TypeError for a float)."""
        n, d = rational(x).as_integer_ratio()
        flat = {D: {key: n * v for key, v in terms.items()} for D, terms in self.flat.items()}
        return self._new(flat, self.den * d)

    def items_sorted(self):
        return [(D, self.coeff(D)) for D in sorted(self.flat, key=_degree_order)]

    _bare = "%s"  # how `describe` writes the q^0 coefficient

    def describe(self):
        if not self.flat:
            return "0"
        parts = []
        for D, cls in self.items_sorted():
            mono = monomial_text("q", D)
            body = cls.describe(self.model.labels)
            parts.append("(%s)*%s" % (body, mono) if mono else self._bare % body)
        return " + ".join(parts)


def _first_mismatch(a, b):
    """The first (D, k, a_k, b_k), by degree and then basis order, where the
    b_k coordinates of the q^D coefficients of a and b differ; None when
    a == b."""
    for D in sorted(a.flat.keys() | b.flat.keys(), key=_degree_order):
        for k, (x, y) in enumerate(zip(a.coeff(D).coords, b.coeff(D).coords)):
            if x != y:
                return D, k, x, y


class CohSeries(IntSeries):
    """Map {multidegree: class over HLaurent}, truncated at total degree
    `order`, stored as the canonical pair (flat, den) described above;
    treated as immutable.  The constructor takes classes whose coordinates
    are ints, Fractions or HLaurent values."""

    __slots__ = ()

    @staticmethod
    def _coords(coords):
        """The ((k, x), value) pairs of coordinates that are ints, Fractions
        or HLaurent values."""
        for k, a in enumerate(coords):
            for x, v in a.c.items() if isinstance(a, HLaurent) else ((0, a),):
                yield (k, x), v

    def coeff(self, D) -> CohClass:
        """The q^D coefficient, as a new CohClass over HLaurent."""
        terms = self.flat.get(tuple(D), {})
        return CohClass(_laurent(terms, self.den, k) for k in range(self.model.size))

    _bare = "(%s)"

    def to_json(self):
        """[{"degree": D, "coeffs": {label: HLaurent JSON}}] by degree: each
        coordinate lists [x, "n/den" reduced] by ascending x."""
        labels = self.model.labels
        out = []
        for D in sorted(self.flat, key=_degree_order):
            coeffs = {}
            for (k, x), n in sorted(self.flat[D].items()):
                value = format_ratio(n, self.den)
                coeffs.setdefault(labels[k], []).append([x, value])
            out.append({"degree": list(D), "coeffs": coeffs})
        return out


# -- kernels --------------------------------------------------------------------
# Kernels return numerators without the canonical reduction, which the caller
# applies once to the result it keeps; the t-shift keeps only the targets
# whose numerators do not all cancel.


def _by_weight(model: ModelSpec, flat) -> dict:
    """The numerators `flat` of a series split by weight into homogeneous
    parts {u: {D: dense b_k numerators}}, u = 2x + deg b_k + deg q^D for the
    h^x term at b_k of q^D (deg h = 2): the one place where h is taken out."""
    degrees, size, parts = model.degrees, model.size, {}
    for D, terms in flat.items():
        qd = model.qdegree(D)
        for (k, x), n in terms.items():
            parts.setdefault(2 * x + degrees[k] + qd, {}).setdefault(D, [0] * size)[k] = n
    return parts


def _graded(model: ModelSpec, parts) -> tuple:
    """The flat pair (flat, den) of a series computed at h = 1 as parts
    {u: {D: (ints, d)}} of dense b_k vectors over d, part u of weight u: the
    one place where h is put back, the b_k coordinate at q^D becoming c * h^x
    with 2x + deg b_k + deg q^D = u.  Two weights never share a (k, x)."""
    degrees, flat, qdegree = model.degrees, {}, model.qdegree
    den = lcm(*(d for part in parts.values() for _, d in part.values()))
    for u, part in parts.items():
        for D, (vec, d) in part.items():
            w, m = u - qdegree(D), den // d
            row = {(k, (w - degrees[k]) // 2): m * n for k, n in enumerate(vec) if n}
            flat[D] = {**flat[D], **row} if D in flat else row
    return flat, den


def _nonzero(parts, den) -> dict:
    """Parts {u: {D: ints}} of numerators over den as `_graded` reads them,
    {u: {D: (ints, den)}}, without zero vectors or empty parts."""
    return {u: p for u, r in parts.items() if (p := {D: (v, den) for D, v in r.items() if any(v)})}


def _add_shifted(out, rows, shift, n):
    """out[D + B] += n * v in place on dense int vectors {D: v}, where
    shift = {D: D + B} holds only the targets up to the order."""
    for D, v in rows.items():
        if (T := shift.get(D)) is not None:
            r = out.get(T)  # the sum so far at q^T
            out[T] = [n * a + b for a, b in zip(v, r)] if r else [n * a for a in v]


def _flat_apply(lmap, X, out, f=1):
    """out += f * lmap(X) in place on dense int vectors, for a map of pairs
    (source, ((target, n), ...)): `sections._flat_map`'s, or an integral action."""
    for s, pairs in lmap:
        if x := X[s]:
            x *= f
            for t, c in pairs:
                out[t] += c * x
    return out


def _theta_at_one(model: ModelSpec, rows, i: int) -> tuple:
    """theta_i at h = 1 on the pair ({D: ints}, den) of dense b_k coordinate
    vectors, over den * qden: v at degree D becomes X_i v + d_i * qden * v,
    X_i = qden * (b_i cup -) (`ModelSpec.integral_action`) and d_i = D[i - 1],
    and is dropped when it vanishes.  The one theta kernel."""
    rows, den = rows
    action, qden = tuple(enumerate(model.integral_action(i))), model.quantum_rows()[0]
    steps = ((D, _flat_apply(action, v, [D[i - 1] * qden * a for a in v])) for D, v in rows.items())
    return {D: v for D, v in steps if any(v)}, den * qden


def _shift_t(terms, ft, targets, model, order) -> dict:
    """Operator terms on a t-series held in divided powers, sum_e ft[e]
    t^e/e!, where theta^E = h^|E| d^E/dt^E is one exponent shift:
    theta^E t^e/e! = h^|E| t^(e - E)/(e - E)!.  ft maps t-exponents to the
    flat pairs of the nonzero t^e/e! coefficients; `terms` are the items
    ((a, Q, E), v) of an operator.  Each term adds v times ft[f + E] once
    to the t^f/f! coefficient, moved by a + |E| in h and by Q in q
    (dropping degrees past `order`), through `_add_term`.  Returns {f: the
    t^f coefficient as a CohSeries} for the targets f where it is not
    zero; a target whose numerators all cancel, as every one does on a
    passing `tilde`, is never stored.  The one t-series
    kernel, behind `apply_constq`, `apply_classical` and `tilde`."""
    terms = [(a + sum(E), Q, E, v.numerator, v.denominator) for (a, Q, E), v in terms]
    out = {}
    for f in targets:
        parts = [
            (pair, a, Q, n, d)
            for a, Q, E, n, d in terms
            if (pair := ft.get(tuple(map(add, f, E))))
        ]
        den = lcm(*(pd * d for (_, pd), _, _, _, d in parts))
        acc = {}
        for (flat, pd), a, Q, n, d in parts:
            _add_term(acc, flat, n * (den // (pd * d)), a, Q, order)
        # a passing residual cancels: store only a target that does not
        if any(n for row in acc.values() for n in row.values()):
            out[f] = CohSeries._stored(model, order, acc, den * _factorial(f))
    return out


def _factorial(e) -> int:
    """e! = e_1! e_2! ... of a t-exponent."""
    return prod(map(factorial, e))


def _add_term(acc, flat, n, hexp, qdeg, order):
    """acc += n * h^hexp * q^qdeg * flat in place on numerators, dropping
    degrees past `order`, and return acc: flat is the numerator dict of a
    flat series and n an int that brings it to the denominator of acc.
    Zeros are kept, for `_canonical` to drop."""
    shift = any(qdeg)
    for D, terms in flat.items():
        if shift:
            D = tuple(map(add, D, qdeg))
            if sum(D) > order:
                continue
        out = acc.get(D)
        if out is None:
            out = acc[D] = {}
        for (k, x), a in terms.items():
            key = (k, x + hexp)
            out[key] = out.get(key, 0) + a * n
    return acc


def _components(s: CohSeries) -> tuple:
    """The scalar components of s along the dual classes a_0..a_s, as a
    canonical flat pair ({D: {(j, x): n}}, den): the (j, x) numerator is
    the h^x term of the pairing of the q^D coefficient with b_j."""
    pairing = [[(j, g) for j, g in enumerate(row) if g] for row in s.model.pairing]
    out = {}
    for D, terms in s.flat.items():
        acc = out[D] = {}
        for (m, x), n in terms.items():
            for j, g in pairing[m]:
                key = (j, x)
                acc[key] = acc[key] + g * n if key in acc else g * n
    return _canonical(out, s.den)


def _laurent(terms, den, j) -> HLaurent:
    """The HLaurent value at index j of the flat numerators `terms` over
    den."""
    return HLaurent({x: Fraction(n, den) for (k, x), n in terms.items() if k == j})


class GaugeSeries(CohSeries):
    """CohSeries read as e^{t/h} * sum c_D q^D, with the induced action of
    theta_i = h d/dt_i."""

    __slots__ = ()

    def theta(self, i: int) -> "GaugeSeries":
        """Apply theta_i, cup-by-b_i plus d_i*h on the q^D coefficient: the
        part of each weight u (`_by_weight`) stepped by `_theta_at_one`."""
        if not 1 <= i <= self.model.rank:
            raise ValueError("theta_%r: generators are 1..%d" % (i, self.model.rank))
        m, den, parts = self.model, self.den, _by_weight(self.model, self.flat)
        steps = {u + 2: _theta_at_one(m, (p, den), i)[0] for u, p in parts.items()}
        return self._new(*_graded(m, _nonzero(steps, den * m.quantum_rows()[0])))
