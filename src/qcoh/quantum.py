"""Quantum ring arithmetic: products of classes with Novikov coefficients,
multiplication matrices, flatness and associativity checks, the potential
whose differential is the connection form, ring relations, and the
exponential of quantum multiplication by a degree-2 class.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .algebra import HLaurent, NovikovSeries, TPoly, format_rational
from .model import CohClass, ModelSpec
from .series import CohSeries


class CheckFailure(Exception):
    """A mathematical verification failed; carries the full report."""

    def __init__(self, report):
        super().__init__(report.get("check", "check failed"))
        self.report = report


class QElem:
    """Element of the quantum ring: {multidegree: CohClass over Fraction},
    truncated at total degree `order`.  Multiplication is the small quantum
    product through the model's structure constants."""

    __slots__ = ("model", "order", "c")

    def __init__(self, model: ModelSpec, order: int, terms=None):
        self.model = model
        self.order = order
        c = {}
        if terms:
            for D, cls in terms.items():
                D = tuple(int(x) for x in D)
                if len(D) != model.rank or any(x < 0 for x in D):
                    raise ValueError("bad multidegree %r" % (D,))
                if sum(D) <= order and cls:
                    c[D] = cls
        self.c = c

    @classmethod
    def basis(cls, model, order, i):
        zero = (0,) * model.rank
        return cls(model, order, {zero: model.basis_class(i)})

    @classmethod
    def unit(cls, model, order):
        return cls.basis(model, order, 0)

    @classmethod
    def zero(cls, model, order):
        return cls(model, order)

    def _new(self, terms):
        out = QElem(self.model, self.order)
        out.c = terms
        return out

    def coeff(self, D) -> CohClass:
        got = self.c.get(tuple(D))
        return got if got is not None else self.model.zero_class()

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, QElem):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __neg__(self):
        return self._new({D: -cls for D, cls in self.c.items()})

    def __add__(self, other):
        if not isinstance(other, QElem):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        c = dict(self.c)
        for D, cls in other.c.items():
            s = c[D] + cls if D in c else cls
            if s:
                c[D] = s
            else:
                c.pop(D, None)
        return self._new(c)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, x):
        c = {}
        for D, cls in self.c.items():
            s = cls.scaled(x)
            if s:
                c[D] = s
        return self._new(c)

    def shifted(self, shift):
        shift = tuple(shift)
        c = {}
        for D, cls in self.c.items():
            nd = tuple(a + b for a, b in zip(D, shift))
            if sum(nd) <= self.order:
                c[nd] = cls
        return self._new(c)

    def __mul__(self, other):
        """The quantum product, truncated at the series order."""
        if not isinstance(other, QElem):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        model = self.model
        out = {}
        for D1, c1 in self.c.items():
            for D2, c2 in other.c.items():
                base = tuple(a + b for a, b in zip(D1, D2))
                if sum(base) > self.order:
                    continue
                for i, xi in enumerate(c1.coords):
                    if not xi:
                        continue
                    for j, yj in enumerate(c2.coords):
                        if not yj:
                            continue
                        for Dq, cls in model.qprod_basis(i, j).items():
                            nd = tuple(a + b for a, b in zip(base, Dq))
                            if sum(nd) > self.order:
                                continue
                            add = cls.scaled(xi * yj)
                            cur = out.get(nd)
                            s = add if cur is None else cur + add
                            if s:
                                out[nd] = s
                            else:
                                out.pop(nd, None)
        return self._new(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative quantum powers are not defined")
        out = QElem.unit(self.model, self.order)
        for _ in range(n):
            out = out * self
        return out

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def describe(self):
        if not self.c:
            return "0"
        parts = []
        for D, cls in self.items_sorted():
            mono = "*".join(
                "q%d" % (i + 1) if e == 1 else "q%d^%d" % (i + 1, e)
                for i, e in enumerate(D)
                if e
            )
            body = cls.describe(self.model.labels)
            parts.append("(%s)*%s" % (body, mono) if mono else body)
        return " + ".join(parts)

    __repr__ = describe


def qmul(model: ModelSpec, x: QElem, y: QElem, order=None) -> QElem:
    if order is not None and (x.order != order or y.order != order):
        raise ValueError("operands do not carry the requested order")
    return x * y


def quantum_monomial(model: ModelSpec, order: int, exps, qshift=None) -> QElem:
    """b_1^{o e_1} o ... o b_r^{o e_r} applied to 1, optionally times q^shift."""
    out = QElem.unit(model, order)
    for i, e in enumerate(exps, start=1):
        gen = QElem.basis(model, order, i)
        for _ in range(e):
            out = out * gen
    if qshift:
        out = out.shifted(qshift)
    return out


class MultMatrix:
    """Matrix of quantum multiplication by a degree-2 generator, entries
    scalar Novikov series; column i holds the coordinates of b_j o b_i."""

    __slots__ = ("model", "index", "order", "entries")

    def __init__(self, model, index, order, entries):
        self.model = model
        self.index = index
        self.order = order
        self.entries = entries

    def entry(self, k, i) -> NovikovSeries:
        return self.entries[k][i]

    def to_json(self):
        return {
            "model": self.model.name,
            "generator": self.model.labels[self.index],
            "entries": [
                [_series_json(self.entries[k][i]) for i in range(self.model.size)]
                for k in range(self.model.size)
            ],
        }


def _series_json(ns: NovikovSeries):
    return [
        {"degree": list(D), "c": format_rational(v)} for D, v in ns.items_sorted()
    ]


def mult_matrix(model: ModelSpec, j: int, order: int) -> MultMatrix:
    size = model.size
    rank = model.rank
    entries = [
        [NovikovSeries(rank, order) for _ in range(size)] for _ in range(size)
    ]
    for i in range(size):
        for D, cls in model.qprod_basis(j, i).items():
            if sum(D) > order:
                continue
            for k, v in enumerate(cls.coords):
                if v:
                    entries[k][i] = entries[k][i] + NovikovSeries(
                        rank, order, {D: v}
                    )
    return MultMatrix(model, j, order, tuple(tuple(row) for row in entries))


def _mat_mul(a, b, size):
    out = []
    for k in range(size):
        row = []
        for i in range(size):
            acc = None
            for u in range(size):
                if a[k][u] and b[u][i]:
                    t = a[k][u] * b[u][i]
                    acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def check_flatness(model: ModelSpec, order: int) -> dict:
    """Zero-curvature test for the connection built from the M_j: the
    multiplication matrices must commute and have symmetric q-derivatives."""
    size = model.size
    mats = {j: mult_matrix(model, j, order).entries for j in range(1, model.rank + 1)}
    witnesses = []
    for i in range(1, model.rank + 1):
        for j in range(i + 1, model.rank + 1):
            ab = _mat_mul(mats[i], mats[j], size)
            ba = _mat_mul(mats[j], mats[i], size)
            for k in range(size):
                for l in range(size):
                    lhs = ab[k][l]
                    rhs = ba[k][l]
                    if (lhs or rhs) and lhs != rhs:
                        witnesses.append(
                            {
                                "identity": "[M%d, M%d]" % (i, j),
                                "entry": [k, l],
                                "detail": "%s vs %s" % (lhs, rhs),
                            }
                        )
    for i in range(1, model.rank + 1):
        for j in range(i + 1, model.rank + 1):
            for k in range(size):
                for l in range(size):
                    lhs = mats[j][k][l].weighted(i)
                    rhs = mats[i][k][l].weighted(j)
                    if lhs != rhs:
                        witnesses.append(
                            {
                                "identity": "d_%d M_%d = d_%d M_%d" % (i, j, j, i),
                                "entry": [k, l],
                                "detail": "%s vs %s" % (lhs, rhs),
                            }
                        )
    return {
        "check": "flatness",
        "model": model.name,
        "order": order,
        "status": "pass" if not witnesses else "fail",
        "witnesses": witnesses,
    }


def check_associativity(model: ModelSpec, order: int) -> dict:
    """(b_i o b_j) o b_k = b_i o (b_j o b_k) for all basis triples."""
    size = model.size
    basis = [QElem.basis(model, order, i) for i in range(size)]
    pairs = {(j, k): basis[j] * basis[k] for j in range(size) for k in range(j, size)}
    witnesses = []
    for i in range(size):
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
    return {
        "check": "associativity",
        "model": model.name,
        "order": order,
        "status": "pass" if not witnesses else "fail",
        "witnesses": witnesses,
    }


class ConnectionPotential:
    """Matrix potential K with dK equal to 1/h times the connection form:
    K = (1/h) (sum_j t_j B_j + sum_{D != 0} K_D q^D), stored without the
    overall 1/h."""

    __slots__ = ("model", "order", "linear", "qpart")

    def __init__(self, model, order, linear, qpart):
        self.model = model
        self.order = order
        self.linear = linear  # j -> cup matrix of b_j
        self.qpart = qpart  # D -> rational matrix

    def to_json(self):
        return {
            "model": self.model.name,
            "order": self.order,
            "h_power": -1,
            "linear": {
                "t%d" % j: [[format_rational(x) for x in row] for row in mat]
                for j, mat in sorted(self.linear.items())
            },
            "qpart": [
                {
                    "degree": list(D),
                    "matrix": [[format_rational(x) for x in row] for row in mat],
                }
                for D, mat in sorted(
                    self.qpart.items(), key=lambda kv: (sum(kv[0]), kv[0])
                )
            ],
        }


def integrate_connection(model: ModelSpec, order: int) -> ConnectionPotential:
    """Antiderivative of the connection form: d_j K = (1/h) M_j for all j.

    Exists by flatness; the q^D coefficient is m_{j,D}/d_j for any direction
    with d_j > 0.  Directions that disagree raise CheckFailure
    "connection-closed" naming the degree, both directions, the first
    differing entry and both values.
    """
    size = model.size
    linear = {
        j: model.cup_matrix(j) for j in range(1, model.rank + 1)
    }
    qpart = {}
    degrees = set()
    for j in range(1, model.rank + 1):
        for D in model.quantum_degrees(j):
            if any(D) and sum(D) <= order:
                degrees.add(D)
    for D in sorted(degrees, key=lambda d: (sum(d), d)):
        candidate = None
        for j in range(1, model.rank + 1):
            dj = D[j - 1]
            if not dj:
                continue
            mat = model.quantum_part(j, D)
            if mat is None:
                mat = tuple((Fraction(0),) * size for _ in range(size))
            scaled = tuple(
                tuple(x / dj for x in row) for row in mat
            )
            if candidate is None:
                first, candidate = j, scaled
            elif candidate != scaled:
                i, k = next(
                    (i, k)
                    for i in range(size)
                    for k in range(size)
                    if candidate[i][k] != scaled[i][k]
                )
                raise CheckFailure(
                    {
                        "check": "connection-closed",
                        "model": model.name,
                        "status": "fail",
                        "witnesses": [
                            {
                                "degree": list(D),
                                "directions": [first, j],
                                "entry": [i, k],
                                "values": [
                                    format_rational(candidate[i][k]),
                                    format_rational(scaled[i][k]),
                                ],
                                "detail": "the q^D part of the potential "
                                "differs between the two directions",
                            }
                        ],
                    }
                )
        if candidate is not None and any(any(row) for row in candidate):
            qpart[D] = candidate
    return ConnectionPotential(model, order, linear, qpart)


def eval_relation(model: ModelSpec, rel, order: int) -> QElem:
    """Evaluate a commutative polynomial in q_1..q_r and b_1..b_r in the
    quantum ring: q-monomials are scalars, generator monomials act by
    iterated quantum multiplication applied to 1."""
    out = QElem.zero(model, order)
    for (qdeg, bexp), coeff in rel.terms.items():
        out = out + quantum_monomial(model, order, bexp, qdeg).scaled(coeff)
    return out


def exp_quantum(model: ModelSpec, torder: int, order: int) -> TPoly:
    """The section sum_l (t o)^l 1 / (l! h^l) with t = sum t_i b_i, as a
    polynomial in t with CohSeries coefficients, up to total t-degree torder.

    The product for t^e is 1 o b_1^{e_1} o b_2^{e_2} o ..., taken left to
    right, so a model that is not associative gives the same terms as
    multiplying out each monomial.  It is built by prefix: the product for
    the prefix of e (e minus one at its last nonzero index) times one
    generator, one total degree after another."""
    rank = model.rank
    gens = [QElem.basis(model, order, i) for i in range(1, rank + 1)]
    coeffs = {}
    level = {(0,) * rank: QElem.unit(model, order)}
    for l in range(torder + 1):
        below, level = level, {}
        for e, elem in below.items():
            if elem:
                # the coefficient h^-l / e! of t^e
                r = Fraction(1, prod(map(factorial, e)))
                cs = CohSeries(model, order)
                cs.c = {
                    D: CohClass(tuple(HLaurent({-l: r * a}) for a in cls.coords))
                    for D, cls in elem.c.items()
                }
                coeffs[e] = cs
            if l < torder:
                last = max((i for i, x in enumerate(e) if x), default=0)
                for i in range(last, rank):
                    level[e[:i] + (e[i] + 1,) + e[i + 1:]] = elem * gens[i]
    return TPoly(rank, coeffs)
