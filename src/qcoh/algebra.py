"""Exact scalar types: Laurent polynomials in h, truncated Novikov series,
and polynomials in the coordinates t_1..t_r.

Everything is built on fractions.Fraction, so all arithmetic is exact.
The three containers are sparse dicts keyed by exponent data; zero
coefficients are never stored, which makes `not x` a reliable zero test.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


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

    def coeff(self, exp: int) -> Fraction:
        return self.c.get(exp, Fraction(0))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = _as_hlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __neg__(self):
        return HLaurent({k: -v for k, v in self.c.items()})

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

    def __sub__(self, other):
        other = _as_hlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_hlaurent(other) + (-self)

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

    def __pow__(self, n: int):
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        out = H_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def monomial_inverse(self):
        """Inverse, defined exactly when self is a single term c*h^k."""
        if len(self.c) != 1:
            raise ValueError("only monomials are invertible in h-Laurent")
        ((k, v),) = self.c.items()
        return HLaurent({-k: Fraction(1) / v})

    def at_one(self) -> Fraction:
        """Evaluate at h = 1."""
        return sum(self.c.values(), Fraction(0))

    def shifted(self, k: int):
        """Multiply by h^k."""
        return HLaurent({e + k: v for e, v in self.c.items()})

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

    @classmethod
    def from_json(cls, data):
        return cls({int(k): Fraction(v) for k, v in data})


def _as_hlaurent(x):
    if isinstance(x, HLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return HLaurent.const(x)
    return NotImplemented


H_ONE = HLaurent.const(1)
H = HLaurent.term(1, 1)


class NovikovSeries:
    """Truncated series in q_1..q_rank, keeping total degree <= order.

    Coefficients live in any exact ring with +, unary -, * and a truthy
    zero test (Fraction, HLaurent, CohClass...).  Keys are tuples of
    nonnegative ints of length rank.
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

    @classmethod
    def const(cls, rank, order, v):
        return cls(rank, order, {(0,) * rank: v})

    @classmethod
    def q(cls, rank, order, i, one=Fraction(1)):
        """The variable q_i (1-based)."""
        d = [0] * rank
        d[i - 1] = 1
        return cls(rank, order, {tuple(d): one})

    def _check(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))

    def coeff(self, d):
        return self.c.get(tuple(d))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return (self.rank, self.order, self.c) == (other.rank, other.order, other.c)

    def __neg__(self):
        return NovikovSeries(self.rank, self.order, {d: -v for d, v in self.c.items()})

    def __add__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        self._check(other)
        c = dict(self.c)
        for d, v in other.c.items():
            s = c[d] + v if d in c else v
            if s:
                c[d] = s
            else:
                c.pop(d, None)
        out = NovikovSeries(self.rank, self.order)
        out.c = c
        return out

    def __sub__(self, other):
        return self + (-other)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of Novikov series are not defined")
        out = NovikovSeries.const(self.rank, self.order, Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def scaled(self, x):
        return NovikovSeries(
            self.rank, self.order, {d: x * v for d, v in self.c.items()}
        )

    def shifted(self, shift):
        """Multiply by the monomial q^shift, dropping terms past the order."""
        shift = tuple(shift)
        c = {}
        for d, v in self.c.items():
            nd = tuple(a + b for a, b in zip(d, shift))
            if sum(nd) <= self.order:
                c[nd] = v
        out = NovikovSeries(self.rank, self.order)
        out.c = c
        return out

    def weighted(self, i: int):
        """Multiply the q^d term by d_i (the action of the Euler field d/dt_i
        on pure q-dependence); i is 1-based."""
        return NovikovSeries(
            self.rank,
            self.order,
            {d: d[i - 1] * v for d, v in self.c.items() if d[i - 1]},
        )

    def map_coeffs(self, f):
        return NovikovSeries(
            self.rank, self.order, {d: f(v) for d, v in self.c.items()}
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

    Keys are tuples of nonnegative ints.  Used for classical-limit and
    constant-coefficient data, where everything is polynomial in t.
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

    @classmethod
    def const(cls, nvars, v):
        return cls(nvars, {(0,) * nvars: v})

    @classmethod
    def t(cls, nvars, i, one=Fraction(1)):
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): one})

    def coeff(self, e):
        return self.c.get(tuple(e))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return (self.nvars, self.c) == (other.nvars, other.c)

    def __neg__(self):
        return TPoly(self.nvars, {e: -v for e, v in self.c.items()})

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        c = dict(self.c)
        for e, v in other.c.items():
            s = c[e] + v if e in c else v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = TPoly(self.nvars)
        out.c = c
        return out

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, max_total=None):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max_total is not None and sum(e) > max_total:
                    continue
                s = c[e] + v1 * v2 if e in c else v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = TPoly(self.nvars)
        out.c = c
        return out

    def __mul__(self, other):
        if isinstance(other, TPoly):
            return self.mul(other)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, x):
        return TPoly(self.nvars, {e: x * v for e, v in self.c.items()})

    def derivative(self, i: int):
        """d/dt_i; i is 1-based."""
        c = {}
        for e, v in self.c.items():
            if e[i - 1]:
                ne = list(e)
                ne[i - 1] -= 1
                c[tuple(ne)] = e[i - 1] * v
        out = TPoly(self.nvars)
        out.c = c
        return out

    def map_coeffs(self, f):
        return TPoly(self.nvars, {e: f(v) for e, v in self.c.items()})

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e, v in self.items_sorted():
            mono = monomial_text("t", e)
            sv = str(v)
            if "+" in sv or " - " in sv:
                sv = "(%s)" % sv
            parts.append(sv if not mono else "%s*%s" % (sv, mono))
        return " + ".join(parts)

    __repr__ = __str__
