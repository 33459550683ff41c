"""Output containers: Laurent polynomials in h, truncated Novikov series,
and polynomials in the coordinates t_1..t_r.

The library computes on int numerators over one denominator (see
series.py and quantum.py); these containers hold exact Fractions only for
printing, JSON and witnesses, and for the values that library functions
return (`q_factorize`'s Novikov entries, `exp_quantum`'s t-polynomial).
Each is a sparse dict keyed by exponent data; zero coefficients are never
stored, so `not x` is a reliable zero test and equal values compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rational(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError("cannot make a rational from %r" % (x,))


def monomial_text(letter, exps) -> str:
    """The monomial of the exponents written in the variables letter1,
    letter2, ...: q1*q2^3 for ("q", (1, 3)), "" when all are zero."""
    return "*".join(
        "%s%d" % (letter, i) if e == 1 else "%s%d^%d" % (letter, i, e)
        for i, e in enumerate(exps, start=1)
        if e
    )


def format_rational(x: Fraction) -> str:
    # str(Fraction) is canonical: gcd-reduced, '-' on the numerator,
    # no '/1' suffix on integers
    return str(x)


def format_ratio(n: int, den: int) -> str:
    """format_rational(Fraction(n, den)) for an int n and den >= 1, by one gcd."""
    g = gcd(n, den)
    return f"{n // g}/{den // g}" if den != g else str(n // g)


class HLaurent:
    """Laurent polynomial in the loop parameter h with rational coefficients.

    Keys are integer exponents (negative allowed), values are nonzero
    Fractions.  Instances are treated as immutable.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = rational(v)
                if v:
                    c[int(k)] = v
        self.c = c

    @classmethod
    def const(cls, x):
        return cls({0: rational(x)})

    @classmethod
    def term(cls, coeff, exp):
        return cls({exp: rational(coeff)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = _as_hlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __add__(self, other):
        other = _as_hlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self.c)
        for k, v in other.c.items():
            s = c.get(k, Fraction(0)) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        out = HLaurent()
        out.c = c
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(other)
            return HLaurent({k: v * other for k, v in self.c.items()})
        if not isinstance(other, HLaurent):
            return NotImplemented
        c = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                s = c.get(k, Fraction(0)) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        out = HLaurent()
        out.c = c
        return out

    __rmul__ = __mul__

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c, reverse=True):
            v = self.c[k]
            if k == 0:
                parts.append(str(v))
            else:
                mono = "h" if k == 1 else "h^%d" % k
                if v == 1:
                    parts.append(mono)
                elif v == -1:
                    parts.append("-" + mono)
                else:
                    parts.append("%s*%s" % (v, mono))
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __repr__ = __str__

    def to_json(self):
        return [[k, format_rational(self.c[k])] for k in sorted(self.c)]

def _as_hlaurent(x):
    if isinstance(x, HLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return HLaurent.const(x)
    return NotImplemented


class NovikovSeries:
    """Truncated series in q_1..q_rank, keeping total degree <= order.

    Coefficients live in any exact ring with +, * and a truthy zero test
    (Fraction, HLaurent).  Keys are tuples of nonnegative ints of length
    rank.
    """

    __slots__ = ("rank", "order", "c")

    def __init__(self, rank: int, order: int, coeffs=None):
        self.rank = rank
        self.order = order
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                d = tuple(int(x) for x in d)
                if len(d) != rank:
                    raise ValueError("degree %r does not have rank %d" % (d, rank))
                if any(x < 0 for x in d):
                    raise ValueError("negative Novikov degree %r" % (d,))
                if sum(d) <= order and v:
                    c[d] = v
        self.c = c

    def _check(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return (self.rank, self.order, self.c) == (other.rank, other.order, other.c)

    def __mul__(self, other):
        if isinstance(other, NovikovSeries):
            self._check(other)
            c = {}
            for d1, v1 in self.c.items():
                for d2, v2 in other.c.items():
                    d = tuple(a + b for a, b in zip(d1, d2))
                    if sum(d) > self.order:
                        continue
                    s = c[d] + v1 * v2 if d in c else v1 * v2
                    if s:
                        c[d] = s
                    else:
                        c.pop(d, None)
            out = NovikovSeries(self.rank, self.order)
            out.c = c
            return out
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, x):
        return NovikovSeries(
            self.rank, self.order, {d: x * v for d, v in self.c.items()}
        )

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for d, v in self.items_sorted():
            mono = monomial_text("q", d)
            sv = str(v)
            if "+" in sv or " - " in sv:
                sv = "(%s)" % sv
            parts.append(sv if not mono else "%s*%s" % (sv, mono))
        return " + ".join(parts)

    __repr__ = __str__


class TPoly:
    """Polynomial in t_1..t_nvars with coefficients in an exact ring.

    Keys are tuples of nonnegative ints.  Holds the t-series of the
    constant-coefficient and classical theories (`exp_quantum`,
    `asymptotic_J`, `apply_constq`), with CohSeries coefficients.  An
    operator acts on it by one exponent shift per term (`series._shift_t`,
    on the coefficients times e!); `tilde` shifts the quantum word table
    (`quantum._exp_words`) itself and builds no TPoly.
    """

    __slots__ = ("nvars", "c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                e = tuple(int(x) for x in e)
                if len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError("bad t-exponent %r" % (e,))
                if v:
                    c[e] = v
        self.c = c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return (self.nvars, self.c) == (other.nvars, other.c)

    def mul(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = c[e] + v1 * v2 if e in c else v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = TPoly(self.nvars)
        out.c = c
        return out

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))
