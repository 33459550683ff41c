"""Cohomology-valued Novikov series and the gauge form of flat sections.

A CohSeries stores, per Novikov multidegree D, a cohomology class with
HLaurent coordinates, truncated at a total degree.  A GaugeSeries is the
same data read as the section e^{t/h} * sum_D c_D q^D; in that reading the
operator theta_i = h d/dt_i acts on the q^D term as cup multiplication by
b_i plus the scalar d_i*h, and q_i shifts D.
"""

from __future__ import annotations

from fractions import Fraction

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
# A flat series is {D: {(k, x): Fraction}}: the entry c at (k, x) of degree D
# is the term c * h^x of the b_k coordinate of the q^D coefficient.  Every
# h-exponent is kept, so nothing here assumes a grading.  Zero entries and
# empty degrees are never stored, so two flat series are equal exactly when
# their dicts are.


def _flat(s: CohSeries) -> dict:
    """The flat coordinates of a series."""
    return {
        D: {(k, x): v for k, a in enumerate(cls.coords) for x, v in a.c.items()}
        for D, cls in s.c.items()
    }


def _from_flat(model: ModelSpec, order: int, flat, kind=None) -> "CohSeries":
    """The series with the given flat coordinates: a GaugeSeries, or one of
    the CohSeries class `kind`."""
    out = (kind or GaugeSeries)(model, order)
    for D, terms in flat.items():
        coords = [HLaurent() for _ in range(model.size)]
        for (k, x), v in terms.items():
            coords[k].c[x] = v
        out.c[D] = CohClass(tuple(coords))
    return out


def _pruned(acc) -> dict:
    """A flat series accumulated with possible zeros, with them dropped."""
    out = {}
    for D, terms in acc.items():
        terms = {key: v for key, v in terms.items() if v}
        if terms:
            out[D] = terms
    return out


def _theta_flat(model: ModelSpec, flat, i: int) -> dict:
    """theta_i on a flat series: the entry a at (j, x) of degree D adds
    a * v at (k, x) for each (k, v) of b_i cup b_j, and d_i * a at
    (j, x + 1) where d_i = D[i - 1].  The one theta kernel, shared by
    GaugeSeries.theta, the operator walk and the first-order-system check."""
    # a coefficient of 1 (the usual cup constant) is marked None: no product
    action = [
        [(k, None if v == 1 else v) for k, v in row]
        for row in model.generator_action(i)
    ]
    out = {}
    for D, terms in flat.items():
        d = D[i - 1]
        acc = {}
        for (j, x), a in terms.items():
            for k, v in action[j]:
                key = (k, x)
                p = a if v is None else a * v
                acc[key] = acc[key] + p if key in acc else p
            if d:
                key = (j, x + 1)
                p = a * d
                acc[key] = acc[key] + p if key in acc else p
        acc = {key: v for key, v in acc.items() if v}
        if acc:
            out[D] = acc
    return out


def _add_term(acc, flat, v, hexp, qdeg, order):
    """acc += v * h^hexp * q^qdeg * flat in place, dropping degrees past
    `order`; the caller prunes zeros (`_pruned`)."""
    shift = any(qdeg)
    unit = v == 1
    for D, terms in flat.items():
        if shift:
            D = tuple(a + b for a, b in zip(D, qdeg))
            if sum(D) > order:
                continue
        out = acc.setdefault(D, {})
        for (k, x), a in terms.items():
            key = (k, x + hexp)
            p = a if unit else a * v
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
        """theta^E applied factor by factor, theta_1 first; the reference
        for the shared-prefix walk in `operators.apply_gauge_many`."""
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
