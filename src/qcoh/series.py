"""Cohomology-valued Novikov series and the gauge form of flat sections.

A CohSeries stores, per Novikov multidegree D, a cohomology class with
HLaurent coordinates, truncated at a total degree.  A GaugeSeries is the
same data read as the section e^{t/h} * sum_D c_D q^D; in that reading the
operator theta_i = h d/dt_i acts on the q^D term as cup multiplication by
b_i plus the scalar d_i*h, and q_i shifts D.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import HLaurent
from .model import CohClass, ModelSpec

_ZERO = HLaurent()


class CohSeries:
    """Map {multidegree: CohClass over HLaurent}, truncated at total degree
    `order`; treated as immutable."""

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
                if sum(D) > order:
                    continue
                cls = cls.lifted()
                if cls:
                    c[D] = cls
        self.c = c

    def _new(self, terms):
        out = self.__class__(self.model, self.order)
        out.c = terms
        return out

    @classmethod
    def unit(cls, model, order):
        zero = (0,) * model.rank
        return cls(model, order, {zero: model.unit()})

    def coeff(self, D) -> CohClass:
        D = tuple(D)
        got = self.c.get(D)
        if got is None:
            return self.model.zero_class().lifted()
        return got

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, CohSeries):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __neg__(self):
        return self._new({D: -cls for D, cls in self.c.items()})

    def __add__(self, other):
        if not isinstance(other, CohSeries):
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
        """Scale every coefficient by a Fraction/int/HLaurent scalar."""
        if isinstance(x, (int, Fraction)):
            x = HLaurent.const(x)
        c = {}
        for D, cls in self.c.items():
            s = cls.scaled(x)
            if s:
                c[D] = s
        return self._new(c)

    def __mul__(self, x):
        return self.scaled(x)

    __rmul__ = __mul__

    def shifted(self, shift):
        """Multiply by the Novikov monomial q^shift (drops overflow)."""
        shift = tuple(shift)
        c = {}
        for D, cls in self.c.items():
            nd = tuple(a + b for a, b in zip(D, shift))
            if sum(nd) <= self.order:
                c[nd] = cls
        return self._new(c)

    def mul_scalar_series(self, ns):
        """Multiply by a scalar Novikov series (Fraction or HLaurent coeffs)."""
        out = self._new({})
        for D, v in ns.c.items():
            out = out + self.shifted(D).scaled(v)
        return out

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def describe(self):
        if not self.c:
            return "0"
        labels = self.model.labels
        parts = []
        for D, cls in self.items_sorted():
            mono = "*".join(
                "q%d" % (i + 1) if e == 1 else "q%d^%d" % (i + 1, e)
                for i, e in enumerate(D)
                if e
            )
            body = cls.describe(labels)
            if mono:
                parts.append("(%s)*%s" % (body, mono))
            else:
                parts.append("(%s)" % body)
        return " + ".join(parts)

    def to_json(self):
        labels = self.model.labels
        out = []
        for D, cls in self.items_sorted():
            coeffs = {}
            for k, v in enumerate(cls.coords):
                if v:
                    coeffs[labels[k]] = v.to_json()
            out.append({"degree": list(D), "coeffs": coeffs})
        return out

    def __repr__(self):
        return "<%s %s: %d terms, order %d>" % (
            type(self).__name__,
            self.model.name,
            len(self.c),
            self.order,
        )


# -- flat exact coordinates ---------------------------------------------------
# A flat series is a pair (flat, den): flat is {D: {(k, x): int}} and den a
# positive int, and the numerator n at (k, x) of degree D is the term
# n/den * h^x of the b_k coordinate of the q^D coefficient.  The arithmetic
# runs on int numerators; den is not kept reduced, and Fraction(n, den)
# appears only when a series is packed back (`_from_flat`).  Every
# h-exponent is kept, so nothing here assumes a grading.  Zero numerators
# and empty degrees are never stored, so a flat series is zero exactly when
# its dict is empty, and two are equal exactly when they have the same keys
# and equal cross-products (`_same`).


def _denominator(series) -> int:
    """The lcm of the coefficient denominators of the given series."""
    return lcm(
        *(
            v.denominator
            for s in series
            for cls in s.c.values()
            for a in cls.coords
            for v in a.c.values()
        )
    )


def _numerators(s: CohSeries, den: int) -> dict:
    """The flat numerators of a series over den, a multiple of its
    denominators."""
    return {
        D: {
            (k, x): v.numerator * (den // v.denominator)
            for k, a in enumerate(cls.coords)
            for x, v in a.c.items()
        }
        for D, cls in s.c.items()
    }


def _flat(s: CohSeries) -> tuple:
    """The flat coordinates of a series, over the lcm of its denominators."""
    den = _denominator((s,))
    return _numerators(s, den), den


def _from_flat(model: ModelSpec, order: int, flat, kind=None) -> "CohSeries":
    """The series with the given flat coordinates: a GaugeSeries, or one of
    the CohSeries class `kind`."""
    flat, den = flat
    out = (kind or GaugeSeries)(model, order)
    for D, terms in flat.items():
        coords = [HLaurent() for _ in range(model.size)]
        for (k, x), n in terms.items():
            coords[k].c[x] = Fraction(n, den)
        out.c[D] = CohClass(tuple(coords))
    return out


def _pruned(acc, den) -> tuple:
    """The flat series of numerators acc over den, accumulated with
    possible zeros, with them dropped."""
    out = {}
    for D, terms in acc.items():
        terms = {key: n for key, n in terms.items() if n}
        if terms:
            out[D] = terms
    return out, den


def _same(a, b) -> bool:
    """Whether two flat series are equal, by cross-multiplying."""
    (a, aden), (b, bden) = a, b
    if a.keys() != b.keys():
        return False
    for D, terms in a.items():
        other = b[D]
        if terms.keys() != other.keys():
            return False
        for key, n in terms.items():
            if n * bden != other[key] * aden:
                return False
    return True


def _generator_action(model: ModelSpec, i: int) -> tuple:
    """Cup multiplication by b_i made integral: (rows, cden) with row j
    the pairs (k, n) of b_i cup b_j = sum_k n/cden * b_k, cden the lcm
    of the table's denominators (1 for every builtin)."""
    action = model.generator_action(i)
    cden = lcm(*(v.denominator for row in action for _, v in row))
    rows = [
        [(k, v.numerator * (cden // v.denominator)) for k, v in row]
        for row in action
    ]
    return rows, cden


def _theta_flat(model: ModelSpec, flat, i: int) -> tuple:
    """theta_i on a flat series, over den * cden (see `_generator_action`):
    the numerator a at (j, x) of degree D adds a * n at (k, x) for each
    (k, n) of the integral action on b_j, and a * d_i * cden at (j, x + 1)
    where d_i = D[i - 1].  The one theta kernel, shared by
    GaugeSeries.theta, the operator walk and the first-order-system check."""
    flat, den = flat
    action, cden = _generator_action(model, i)
    out = {}
    for D, terms in flat.items():
        d = D[i - 1] * cden
        acc = {}
        for (j, x), a in terms.items():
            for k, n in action[j]:
                key = (k, x)
                p = a * n
                acc[key] = acc[key] + p if key in acc else p
            if d:
                key = (j, x + 1)
                p = a * d
                acc[key] = acc[key] + p if key in acc else p
        acc = {key: n for key, n in acc.items() if n}
        if acc:
            out[D] = acc
    return out, den * cden


def _add_term(acc, flat, n, hexp, qdeg, order):
    """acc += n * h^hexp * q^qdeg * flat in place on numerators, dropping
    degrees past `order`: flat is the numerator dict of a flat series and
    n an int that brings it to the denominator of acc.  The caller prunes
    zeros (`_pruned`)."""
    shift = any(qdeg)
    unit = n == 1
    for D, terms in flat.items():
        if shift:
            D = tuple(a + b for a, b in zip(D, qdeg))
            if sum(D) > order:
                continue
        out = acc.setdefault(D, {})
        for (k, x), a in terms.items():
            key = (k, x + hexp)
            p = a if unit else a * n
            out[key] = out[key] + p if key in out else p


class GaugeSeries(CohSeries):
    """CohSeries read as e^{t/h} * sum c_D q^D, with the induced action of
    theta_i = h d/dt_i."""

    __slots__ = ()

    def theta(self, i: int) -> "GaugeSeries":
        """Apply theta_i: on the q^D coefficient this is cup-by-b_i plus
        multiplication by d_i*h, computed by the flat kernel `_theta_flat`
        over the model's sparse generator action."""
        flat = _theta_flat(self.model, _flat(self), i)
        return _from_flat(self.model, self.order, flat)

    def theta_monomial(self, exps) -> "GaugeSeries":
        """theta^E applied factor by factor, theta_1 first: the path the
        shared-prefix walk in `operators.apply_gauge_many` takes."""
        out = self
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                out = out.theta(i)
        return out

    def scalar_component(self, j: int):
        """The coefficient along the dual class a_j, per multidegree: the
        pairing of each coefficient with b_j."""
        column = [(m, row[j]) for m, row in enumerate(self.model.pairing) if row[j]]
        out = {}
        for D, cls in self.c.items():
            v = _ZERO
            for m, g in column:
                a = cls.coords[m]
                if a:
                    v = v + (a if g == 1 else a * g)
            if v:
                out[D] = v
        return out
