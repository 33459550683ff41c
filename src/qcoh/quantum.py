"""Quantum ring arithmetic over the model's one integral product table
(`ModelSpec.quantum_rows`): products of classes with Novikov coefficients,
flatness and associativity checks, ring relations, and the exponential of
quantum multiplication by a degree-2 class.  A multiplication matrix M_j
is held as its columns, the QElem values b_j o b_l, so flatness compares
columns.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .algebra import NovikovSeries, TPoly, monomial_text
from .model import CohClass, ModelSpec
from .series import CohSeries, IntSeries, _degrees_upto, _factorial, _prefix_walk, _sum


class CheckFailure(Exception):
    """A mathematical verification failed; carries the full report."""

    def __init__(self, report):
        super().__init__(report.get("check", "check failed"))
        self.report = report


def _check_failure(model, check, witness):
    return CheckFailure(
        {
            "check": check,
            "model": model.name,
            "status": "fail",
            "witnesses": [witness],
        }
    )


def _report(check, model, order, witnesses):
    """The report of a check run on the model at the order: "pass" exactly
    when there are no witnesses."""
    return {
        "check": check,
        "model": model.name,
        "order": order,
        "status": "pass" if not witnesses else "fail",
        "witnesses": witnesses,
    }


class QElem(IntSeries):
    """Element of the quantum ring, truncated at total degree `order`: the
    canonical pair (flat, den) of `series.IntSeries` with keys k, q^D b_k
    having coefficient n / den at flat[D][k].  The constructor takes classes
    over Fraction.  Multiplication is the small quantum product through
    `ModelSpec.quantum_rows`."""

    __slots__ = ()
    _coords = staticmethod(enumerate)

    @classmethod
    def basis(cls, model, order, i):
        if not 0 <= i < model.size:
            raise ValueError("basis element %r outside 0..%d" % (i, model.size - 1))
        flat = {(0,) * model.rank: {i: 1}} if order >= 0 else {}
        return cls._stored(model, order, flat, 1)

    @classmethod
    def unit(cls, model, order):
        return cls.basis(model, order, 0)

    @classmethod
    def zero(cls, model, order):
        return cls._stored(model, order, {}, 1)

    def coeff(self, D) -> CohClass:
        row = self.flat.get(tuple(D), {})
        return CohClass(Fraction(row.get(k, 0), self.den) for k in range(self.model.size))

    def __neg__(self):
        return self.scaled(-1)

    def shifted(self, shift):
        """The series times q^shift, truncated at the order; ValueError
        unless shift holds one int >= 0 per generator."""
        shift = tuple(shift)
        if len(shift) != self.model.rank or not all(isinstance(x, int) and x >= 0 for x in shift):
            raise ValueError("bad multidegree %r" % (shift,))
        out = {}
        for D, row in self.flat.items():
            nd = tuple(a + b for a, b in zip(D, shift))
            if sum(nd) <= self.order:
                out[nd] = row
        return self._new(out, self.den)

    def __mul__(self, other):
        """The quantum product, truncated at the series order: numerators
        times the integral structure constants, over den * den' * qden."""
        if not isinstance(other, QElem):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        qden, table = self.model.quantum_rows()
        out = {}
        for D1, r1 in self.flat.items():
            room1 = self.order - sum(D1)
            for D2, r2 in other.flat.items():
                room = room1 - sum(D2)
                if room < 0:
                    continue
                base = tuple(map(add, D1, D2))
                targets = {}  # Dq: the row of q^(base + Dq)
                for i, x in r1.items():
                    products = table[i]
                    for j, y in r2.items():
                        p = x * y
                        # terms come by total degree: stop at the first past room
                        for n, Dq, terms in products[j]:
                            if n > room:
                                break
                            acc = targets.get(Dq)
                            if acc is None:
                                acc = targets[Dq] = out.setdefault(tuple(map(add, base, Dq)), {})
                            for k, c in terms:
                                acc[k] = acc.get(k, 0) + c * p
        return self._new(out, self.den * other.den * qden)

    def describe(self):
        if not self.flat:
            return "0"
        parts = []
        for D, cls in self.items_sorted():
            mono = monomial_text("q", D)
            body = cls.describe(self.model.labels)
            parts.append("(%s)*%s" % (body, mono) if mono else body)
        return " + ".join(parts)

    __repr__ = describe


def _word_walk(model: ModelSpec, order: int, exps):
    """(e, 1 o b_1^{e_1} o b_2^{e_2} o ...) for each distinct e in `exps` by
    `series._prefix_walk`, one product by a generator per distinct prefix,
    left to right, so a model that is not associative keeps its terms."""
    basis = [QElem.basis(model, order, i) for i in range(model.rank + 1)]  # basis[0] = 1
    return _prefix_walk(exps, basis[0], lambda x, i: x * basis[i])


def _weighted(elem: QElem, i: int) -> QElem:
    """elem with its q^D term multiplied by D_i: the action of the Euler
    field d/dt_i on pure q-dependence."""
    rows = {
        D: {k: D[i - 1] * n for k, n in row.items()} for D, row in elem.flat.items()
    }
    return elem._new(rows, elem.den)


def _flatness_witnesses(identity, lhs, rhs):
    """A witness for each entry (k, l), by k and then l, where the matrices
    whose columns l are the QElem values lhs[l] and rhs[l] differ; the two
    entries print as Novikov series."""
    diff = [l for l, (a, b) in enumerate(zip(lhs, rhs)) if a != b]
    out = []
    for k in range(len(lhs)):
        for l in diff:
            a, b = (
                {D: Fraction(row[k], x.den) for D, row in x.flat.items() if k in row}
                for x in (lhs[l], rhs[l])
            )
            if a != b:
                rank, order = lhs[l].model.rank, lhs[l].order
                a, b = NovikovSeries(rank, order, a), NovikovSeries(rank, order, b)
                detail = "%s vs %s" % (a, b)
                out.append({"identity": identity, "entry": [k, l], "detail": detail})
    return out


def check_flatness(model: ModelSpec, order: int) -> dict:
    """Zero-curvature test for the connection built from the M_j: the
    multiplication matrices must commute and have symmetric q-derivatives.
    Column l of M_j is b_j o b_l, so column l of M_i M_j is
    b_i o (b_j o b_l) and column l of d_i M_j is b_j o b_l weighted by D_i."""
    gens = range(1, model.rank + 1)
    basis = [QElem.basis(model, order, l) for l in range(model.size)]
    cols = {j: [basis[j] * b for b in basis] for j in gens}
    pairs = [(i, j) for i in gens for j in gens if i < j]
    witnesses = []
    for i, j in pairs:
        ab = [basis[i] * c for c in cols[j]]
        ba = [basis[j] * c for c in cols[i]]
        witnesses += _flatness_witnesses("[M%d, M%d]" % (i, j), ab, ba)
    for i, j in pairs:
        lhs = [_weighted(c, i) for c in cols[j]]
        rhs = [_weighted(c, j) for c in cols[i]]
        identity = "d_%d M_%d = d_%d M_%d" % (i, j, j, i)
        witnesses += _flatness_witnesses(identity, lhs, rhs)
    return _report("flatness", model, order, witnesses)


def check_associativity(model: ModelSpec, order: int) -> dict:
    """(b_i o b_j) o b_k = b_i o (b_j o b_k) for the basis triples
    i <= j <= k with i >= 1: b_0 is the quantum unit of every model
    (`ModelSpec` checks it), so a triple through it has b_j o b_k on
    both sides."""
    size = model.size
    basis = [QElem.basis(model, order, i) for i in range(size)]
    pairs = {
        (j, k): basis[j] * basis[k] for j in range(1, size) for k in range(j, size)
    }
    witnesses = []
    for i in range(1, size):
        for j in range(i, size):
            for k in range(j, size):
                lhs = pairs[i, j] * basis[k]
                rhs = basis[i] * pairs[j, k]
                if lhs != rhs:
                    witnesses.append(
                        {
                            "triple": [i, j, k],
                            "detail": "%s vs %s" % (lhs.describe(), rhs.describe()),
                        }
                    )
    return _report("associativity", model, order, witnesses)


def eval_relation(model: ModelSpec, rel, order: int) -> QElem:
    """Evaluate the h = 0 symbol of an operator (a relation, or the h-free
    terms of a QDEOperator) in the quantum ring: q-monomials are scalars,
    theta^E is the word 1 o b^E, from one walk over the terms' exponents
    (`_word_walk`), and the terms are summed over one denominator."""
    if rel.rank != model.rank:
        raise ValueError("rank mismatch")
    terms = [(qdeg, E, v) for (h, qdeg, E), v in rel.c.items() if not h]
    words = dict(_word_walk(model, order, (E for _, E, _ in terms)))
    parts = []
    for qdeg, E, v in terms:
        elem = words[E]
        n, d = v.numerator, v.denominator
        rows = {}
        for D, row in elem.flat.items():
            D = tuple(map(add, D, qdeg))
            if sum(D) <= order:
                rows[D] = {k: n * a for k, a in row.items()}
        parts.append((rows, elem.den * d))
    return QElem._stored(model, order, *_sum(parts))


def _exp_words(model: ModelSpec, order: int, torder: int) -> dict:
    """The quantum exponential up to t-degree torder in divided powers:
    {e: the flat pair of word(e) h^-|e|} (`_word_walk`), its coefficient of
    t^e/e!, for each e whose word is not zero, by (|e|, e) as `cli._v_at_h1`
    writes them (the walk visits the words in their own order)."""
    degrees = _degrees_upto(model.rank, torder)
    out = {}
    for e, elem in _word_walk(model, order, degrees):
        if elem:
            l = -sum(e)
            flat = {D: {(k, l): n for k, n in row.items()} for D, row in elem.flat.items()}
            out[e] = flat, elem.den
    return {e: out[e] for e in degrees if e in out}


def exp_quantum(model: ModelSpec, torder: int, order: int) -> TPoly:
    """The section sum_l (t o)^l 1 / (l! h^l) with t = sum t_i b_i, as a
    polynomial in t with CohSeries coefficients, up to total t-degree torder:
    the t^e coefficient is the word 1 o b_1^{e_1} o b_2^{e_2} o ... over
    e! h^|e|, read from the divided-power table `_exp_words`."""
    coeffs = {
        e: CohSeries._stored(model, order, flat, den * _factorial(e))
        for e, (flat, den) in _exp_words(model, order, torder).items()
    }
    return TPoly(model.rank, coeffs)
