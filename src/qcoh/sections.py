"""Flat sections of the quantum connection: the degree-by-degree solver for
the fundamental solution, closed-form hypergeometric J-series, assembly of
the solution matrix from J via row operators, Q-factorization, classical
(asymptotic) limits, and descendent invariant extraction.

Internally every solution row is gauge-normalized: row i equals
e^{t/h} * sum_D c_{i,D} q^D with c_{i,0} the i-th dual basis element, and
the scalar entries of the matrix carry the gauge factor on the right.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import add, sub

from .algebra import HLaurent, NovikovSeries, TPoly, format_ratio, format_rational
from .model import ModelSpec, _invert_rational_matrix, cp_dimension
from .operators import QDEOperator, apply_gauge_many
from .quantum import CheckFailure, _check_failure, _report
from .series import (
    CohSeries,
    GaugeSeries,
    _add_shifted,
    _by_weight,
    _components,
    _degree_order,
    _degrees_upto,
    _first_mismatch,
    _flat_apply,
    _graded,
    _laurent,
    _nonzero,
    _theta_at_one,
)


# -- matrices at h = 1 ---------------------------------------------------------
# Every matrix this module computes at h = 1 (the solver's G_D, the q-matrix
# series of `q_factorize` and the classical limit E) is one flat list of
# size * size ints, entry (i, k) at i * size + k, over a positive int
# denominator; entry (i, k) at q^D of a graded one carries the h-power of
# `_entry_powers`.  Two kernels multiply them, one per access pattern: the
# solver's fixed sparse operators, compiled once per model by `_flat_map`,
# and the inverses of (step - commutator) built from them (`_resolvents`)
# run on `series._flat_apply` (the dense kernel of the closed form and the
# operator walk too); the one-shot products of `_qmat_divide` and
# `asymptotic_H` run one direct loop (`_flat_mul`).


def _flat_mul(a, b, size, out, f=1):
    """out += f * a * b in place, for flat size x size int matrices: each
    nonzero a_iu adds f * a_iu * b_uk to out_ik."""
    for e, x in enumerate(a):
        if x:
            x *= f
            u = e % size
            i, u = e - u, u * size
            for k in range(size):
                if y := b[u + k]:
                    out[i + k] += x * y
    return out


def _entry_powers(model, D):
    """The h-power e of every entry (i, k) of a graded matrix at q^D, flat at
    i * size + k: e = (deg b_k - deg b_i - deg q^D) / 2, once per degree."""
    degrees, qdeg = model.degrees, model.qdegree(D)
    return [(b - a - qdeg) // 2 for a in degrees for b in degrees]


def _integral(m):
    """The dense rational matrix m as (flat ints, den) over the lcm of its
    denominators."""
    den = lcm(*(v.denominator for row in m for v in row))
    return [v.numerator * (den // v.denominator) for row in m for v in row], den


# -- solver ----------------------------------------------------------------


class HMatrix:
    """Fundamental solution data: one gauge-normalized series per row,
    given as the rows (ValueError unless one per basis element, each of
    the matrix's order) or as a function row(i) that builds row i.  A row
    is built when first read and kept: `jrow` builds only the rows it
    sums, `rows` builds every row."""

    __slots__ = ("model", "order", "_build", "_built")

    def __init__(self, model: ModelSpec, order: int, rows):
        if not callable(rows):
            rows = tuple(rows)
            if len(rows) != model.size:
                raise ValueError("expected %d rows" % model.size)
            if any(row.order != order for row in rows):
                raise ValueError("expected rows of order %d" % order)
            rows = rows.__getitem__
        self.model, self.order, self._build, self._built = model, order, rows, {}

    def row(self, i) -> GaugeSeries:
        if i not in self._built:
            if not 0 <= i < self.model.size:
                raise IndexError("row %r outside 0..%d" % (i, self.model.size - 1))
            self._built[i] = self._build(i)
        return self._built[i]

    @property
    def rows(self):
        return tuple(map(self.row, range(self.model.size)))

    def jrow(self) -> GaugeSeries:
        """The J-series, whose q^0 coefficient is the unit.  Row i starts
        with the dual class a_i and 1 = sum_i <b_0, b_i> a_i, so
        J = sum_i <b_0, b_i> row_i: the last row when <b_0, b_top> = 1 is
        the only nonzero pairing of the unit.  Only those rows are built."""
        J = None
        for i, g in enumerate(self.model.pairing[0]):
            if g:
                term = self.row(i) if g == 1 else self.row(i).scaled(g)
                J = term if J is None else J + term
        return J

    def gauge_matrices(self):
        """{multidegree: matrix of HLaurent} with entry[i][k] the degree-D
        part of the scalar entry (i, k), read from the rows' components
        along the dual basis (`series._components`)."""
        size = self.model.size
        comps = [_components(row) for row in self.rows]
        out = {}
        for D in sorted(set().union(*(c for c, _ in comps)), key=_degree_order):
            out[D] = tuple(
                tuple(_laurent(c.get(D, {}), den, k) for k in range(size))
                for c, den in comps
            )
        return out

    def to_json(self):
        return {
            "model": self.model.name,
            "order": self.order,
            "rows": [row.to_json() for row in self.rows],
        }


def _system_report(model, order, rows) -> dict:
    """The first-order-system report of the rows of a solution matrix:
    h d_j row_i = sum_u (M_j)_{iu} row_u, with the q^D parts (M_j)^D_{iu}
    of multiplication by b_j over qden (`ModelSpec.quantum_rows`).  The
    rows are brought over the lcm L of their denominators and split once
    by weight (`series._by_weight`).  Per direction, every right side is
    built at once, a part of weight u landing at u + deg q^D up to the
    order; a left side is `_theta_at_one` on each part, at weight u + 2.
    Both are over L * qden, so comparing nonzero parts is exact.  A failing
    row's sides are written back (`series._graded`) for its witness: the
    first differing coordinate, by degree and entry [i, k] (row i, along
    b_k), with the expected (right side) and obtained (left side) values."""
    qden, table = model.quantum_rows()
    L = lcm(*(row.den for row in rows))
    split = []
    for row in rows:
        parts, m = _by_weight(model, row.flat).items(), L // row.den
        split.append({w: {D: [m * a for a in v] for D, v in p.items()} for w, p in parts})
    degrees = {D for parts in split for part in parts.values() for D in part}
    witnesses, shifts = [], {}  # shifts: D: {S: S + D up to the order}
    for j in range(1, model.rank + 1):
        rhs = [{} for _ in rows]  # rhs[i]: {weight: {T: numerators over L * qden}}
        for u, parts in enumerate(table[j]):
            for total, D, coords in parts:
                if total > order:
                    continue
                if D not in shifts:
                    shifts[D] = {S: T for S in degrees if sum(T := tuple(map(add, S, D))) <= order}
                qd = model.qdegree(D)
                for (k, n), (w, part) in product(coords, split[u].items()):
                    _add_shifted(rhs[k].setdefault(w + qd, {}), part, shifts[D], n)
        for i, parts in enumerate(split):
            got = {w + 2: _theta_at_one(model, (part, L), j)[0] for w, part in parts.items()}
            if (got := _nonzero(got, L * qden)) != (want := _nonzero(rhs[i], L * qden)):
                sides = [GaugeSeries._stored(model, order, *_graded(model, p)) for p in (want, got)]
                witnesses.append(_system_witness(j, i, *sides))
    return _report("first-order-system", model, order, witnesses)


def _system_witness(j, i, want, got):
    """Witness for row i in direction j, whose sides differ."""
    D, k, cw, cg = _first_mismatch(want, got)
    return {
        "direction": j,
        "row": i,
        "degree": list(D),
        "entry": [i, k],
        "expected": cw.to_json(),
        "got": cg.to_json(),
        "detail": (got - want).describe(),
    }


def _flat_map(size, left=(), right=()):
    """X -> L X + X R for sparse int matrices L and R (rows {column: n}) on
    flat lists of size * size ints, entry (i, k) at i * size + k: pairs
    (source, ((target, coefficient), ...)), zero coefficients dropped."""
    maps = defaultdict(Counter)
    for i, row in enumerate(left):
        for (u, n), k in product(row.items(), range(size)):
            maps[u * size + k][i * size + k] += n
    for u, row in enumerate(right):
        for (k, n), i in product(row.items(), range(size)):
            maps[i * size + u][i * size + k] += n
    return tuple((s, tuple((t, c) for t, c in ts.items() if c)) for s, ts in maps.items())


def _solver_maps(model):
    """The solver's operators, which depend on the model alone:
    commutator[j] maps X to [B_j, X] times qden, mparts[j] holds the maps
    X -> m_{j,D'} X times qden, and duals[l] the (k, n) of a_l over dual_den."""
    size = model.size
    table = model.quantum_rows()[1]
    commutator, mparts = {}, {}
    for j in range(1, model.rank + 1):
        # the q^D parts of b_j o -: rows mat[r] = {c: n} for the b_r
        # coordinate n/qden of b_j o b_c
        parts = {}
        for c, terms in enumerate(table[j]):
            for _, D, coords in terms:
                mat = parts.setdefault(D, [{} for _ in range(size)])
                for r, n in coords:
                    mat[r][c] = n
        commutator[j], mparts[j] = (), []
        for D, mat in sorted(parts.items(), key=lambda p: _degree_order(p[0])):
            if any(D):
                mparts[j].append((D, _flat_map(size, mat)))
            else:
                commutator[j] = _flat_map(size, mat, [{c: -n for c, n in r.items()} for r in mat])
    flat, dual_den = _integral(_invert_rational_matrix(model.pairing))
    rows = (flat[l : l + size] for l in range(0, len(flat), size))
    duals = tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in rows)
    return commutator, mparts, duals, dual_den


def _resolvents(model):
    """The solver's inverse of (step - C_j), C_j = commutator[j] of
    `_solver_maps`, for every step, as (pre, K, post, span) per direction j.
    Each pair of C_j lowers the grade e(i, k) = (deg b_k - deg b_i) / 2 of
    an entry by exactly 1, so C_j^n takes grade e to e - n and
    K = sum_n C_j^n, built by ascending grade as K[s] = s + sum c K[t] over
    the pairs (t, c) of C_j[s], needs no power of the step.  With
    span = max e - min e, pre[s] = max e - e(s) and post[t] = e(t) - min e,

        step^(span + 1) (step - C_j)^-1 R = post(K(pre(R))),

    pre and post scaling each entry by step to its power."""
    area = model.size * model.size
    grade = _entry_powers(model, (0,) * model.rank)
    low, high = min(grade), max(grade)
    pre, post = tuple(high - e for e in grade), tuple(e - low for e in grade)
    out = {}
    for j, commutator in model.compiled(_solver_maps)[0].items():
        pairs, K = dict(commutator), {}
        for s in sorted(range(area), key=grade.__getitem__):
            K[s] = col = {s: 1}
            for t, c in pairs.get(s, ()):
                for u, n in K[t].items():
                    col[u] = col.get(u, 0) + c * n
        K = tuple((s, tuple((t, n) for t, n in K[s].items() if n)) for s in range(area))
        out[j] = pre, K, post, high - low
    return out


def solve_fundamental(model: ModelSpec, order: int) -> HMatrix:
    """Solve h d_j H = M_j H degree by degree.

    With the gauge factor peeled off on the right, the degree-D matrix G_D
    satisfies, for every direction j,

        d_j h G_D = [B_j, G_D] + sum_{D' != 0} m_{j,D'} G_{D-D'}

    where B_j is the cup matrix of b_j and m_{j,D'} the q^{D'} part of the
    quantum multiplication matrix.  Each step inverts (d_j h - ad B_j) for
    the first j* with D_j* > 0 by the geometric sum in ad B_j, finite since
    B_j raises degree by 2, and then checks the equation in every other
    direction: an integrability check.  Along j* the equation is the
    inversion identity, exact once the sum stops, so it cannot fail.

    The system is homogeneous (deg h = 2, deg q^D = 2<c1, D>), so entry
    (i, k) of G_D is a single monomial c * h^e with
    e = (deg b_k - deg b_i - deg q^D) / 2.  The solver therefore computes
    at h = 1; row i, which starts at a_i, gets h back from `series._graded`
    at weight deg a_i = 2 dim - deg b_i.  This needs a graded model, which
    every ModelSpec is.  Because both sides of each checked equation are
    homogeneous of one degree, equality at h = 1 is equality over Laurent
    polynomials in h.

    The arithmetic is fraction-free and dense: each G_D is one flat list of
    size * size ints over its own denominator, entry (i, k) at i * size + k.
    The commutator with each B_j and the left product by each m_{j,D'},
    sparse int rows over the model's qden (`ModelSpec.quantum_rows`), are
    compiled once per model and kept in its memo (`_solver_maps`, through
    `ModelSpec.compiled`).  A right side is summed over the lcm of its
    parts' denominators.  With step = D_j* * qden, G_D is the right side
    R times (step - C)^-1 times qden, C = qden * ad B_j*; that inverse is
    compiled once per model and direction (`_resolvents`): one sparse map K
    between two scalings of the entries by powers of step, so G_D is one
    pass of K over den * D_j* * step^span, reduced by one gcd.  The
    consistency check cross-multiplies entry by entry; witnesses carry the
    reduced Fractions.  A row is stored flat over one denominator and built
    from the G_D when first read (`HMatrix`), so `jrow` builds only the
    rows that pair with 1.
    """
    size = model.size
    area = size * size
    rank = model.rank
    degrees = model.degrees

    qden = model.quantum_rows()[0]
    zero = (0,) * rank
    commutator, mparts, duals, dual_den = model.compiled(_solver_maps)
    resolvents = model.compiled(_resolvents)

    G = {zero: ([int(e % (size + 1) == 0) for e in range(area)], 1)}
    for D in _degrees_upto(rank, order)[1:]:
        rhs = {}
        for j in range(1, rank + 1):
            parts = []
            for Dp, lmap in mparts[j]:
                # G holds exactly the solved degrees: D - D' is one of them iff >= 0
                rest = tuple(map(sub, D, Dp))
                if rest in G:
                    parts.append((lmap, *G[rest]))
            rhs[j] = acc, den = [0] * area, qden * lcm(*(d for _, _, d in parts))
            for lmap, num, d in parts:
                _flat_apply(lmap, num, acc, den // (qden * d))
        jstar = next(j for j in range(1, rank + 1) if D[j - 1] > 0)
        step = D[jstar - 1] * qden
        pre, K, post, span = resolvents[jstar]
        acc, den = rhs[jstar]
        # R = acc / den, and G_D = (step - C)^-1 qden R = post(K(pre(acc)))
        # over den * D_j* * step^span
        pw = [step**k for k in range(span + 1)]
        total = _flat_apply(K, [a * pw[p] for a, p in zip(acc, pre)], [0] * area)
        total = [a * pw[p] for a, p in zip(total, post)]
        den *= D[jstar - 1] * pw[span]
        g = gcd(den, *total)
        G[D] = num, den = [a // g for a in total], den // g
        # every other direction must agree: integrability of the system
        for j in (*range(1, jstar), *range(jstar + 1, rank + 1)):
            # d_j G_D - [B_j, G_D] over den * qden, compared with the right
            # side by cross-multiplying entry by entry
            lhs = _flat_apply(commutator[j], num, [D[j - 1] * qden * a for a in num], -1)
            lden = den * qden
            want, wden = rhs[j]
            bad = next((e for e in range(area) if want[e] * lden != lhs[e] * wden), None)
            if bad is not None:
                i, k = divmod(bad, size)
                e = _entry_powers(model, D)[bad] + 1  # each side is h times G_D
                raise _check_failure(
                    model,
                    "solver-consistency",
                    {
                        "degree": list(D),
                        "direction": j,
                        "entry": [i, k],
                        "expected": HLaurent.term(Fraction(want[bad], wden), e).to_json(),
                        "got": HLaurent.term(Fraction(lhs[bad], lden), e).to_json(),
                    },
                )

    def row(i):
        # row i at q^D is sum_l (G_D)_{il} a_l, as b_k coordinates at h = 1
        vecs = {}
        for D, (mat, d) in G.items():
            vec = [0] * size
            for l, v in enumerate(mat[i * size : (i + 1) * size]):
                for k, a in duals[l]:
                    vec[k] += a * v
            vecs[D] = vec, d * dual_den
        flat = _graded(model, {2 * model.dim - degrees[i]: vecs})
        return GaugeSeries._stored(model, order, *flat)

    return HMatrix(model, order, row)


# -- closed forms ----------------------------------------------------------
# The hypergeometric coefficients are built at h = 1: the factor x + k*h
# becomes x + k.  Each factor's action X on classes and the first m with
# x^m = 0 are compiled once per model (`_factor_actions`, in the memo of
# `ModelSpec.compiled`); only its values, int coefficients of polynomials
# in Z[x]/(x^m) over one positive denominator, are built per call.  Each
# J_D is one int vector over its own denominator: the unit times each
# value, by Horner on X (`_flat_apply`), so no two classes are multiplied.
# J_D is homogeneous of degree -deg q^D: `series._graded` puts h back.


# The hypergeometric factors (class row, power p) of each closed-form
# model; cp<m> has the one factor (x, m + 1).
_FACTORS = {
    # F3 as the (1, 1) hypersurface in P^2 x P^2
    "f3": (({1: 1}, 3), ({2: 1}, 3), ({1: 1, 2: 1}, -1)),
    # Sigma_1 as a toric surface; x4 - x1 is the class x2 of the fourth ray
    "sigma1": (({1: 1}, 2), ({2: 1}, 1), ({1: -1, 2: 1}, 1)),
}


def hypergeometric_factors(model: ModelSpec):
    """The factors (class row, charge vector, power p) of the model's
    hypergeometric J-series, charge_i the coefficient of b_i in the class;
    LookupError when it has none or a class is not in b_1..b_rank."""
    m = cp_dimension(model.name)
    factors = (({1: 1}, m + 1),) if m else _FACTORS.get(model.name)
    if factors is None:
        raise LookupError("no closed-form series for model %r" % model.name)
    gens = range(1, model.rank + 1)
    if any(i not in gens for row, _ in factors for i in row):
        raise LookupError("the closed-form factors of model %r use classes outside "
                          "b_1..b_%d" % (model.name, model.rank))
    return tuple((row, tuple(row.get(i, 0) for i in gens), p) for row, p in factors)


def _factor_actions(model):
    """(charge, p, X, m) for each factor (x, charge, p) of the model
    (`hypergeometric_factors`): X = qden * (x cup -) on b_k coordinate
    vectors, for `_flat_apply`, and x^m = 0 first at m <= dim + 1, as a
    degree-2 class of a graded ring is nilpotent (ValueError otherwise)."""
    out = []
    for row, charge, power in hypergeometric_factors(model):
        cols = {}  # {c: {k: the b_k coordinate of X b_c}}
        for i, a in row.items():
            for c, terms in enumerate(model.integral_action(i)):
                col = cols.setdefault(c, {})
                for k, n in terms:
                    col[k] = col.get(k, 0) + a * n
        action = tuple((c, tuple((k, n) for k, n in col.items() if n)) for c, col in cols.items())
        v = [1] + [0] * (model.size - 1)
        for m in range(1, model.dim + 2):
            if not any(v := _flat_apply(action, v, [0] * len(v))):
                break
        else:
            raise ValueError("the factor class %r is not nilpotent" % (row,))
        out.append((charge, power, action, m))
    return tuple(out)


def _factor_values(charge, power, m, order):
    """{n: (c, den)} for a factor (x, charge, p) with x^m = 0: the value
    [prod_{k<=0}(x + k) / prod_{k<=n}(x + k)]^p = sum_j c_j x^j / den for
    the n = <charge, D> of the degrees D up to the order.  For n < 0 this is
    the finite product prod_{k=n+1..0}(x + k)^p, which holds the bare
    factor x at k = 0, so a negative p needs charges >= 0."""

    def step(value, k, e):
        """value * (x + k)^e in Z[x]/(x^m), reduced by one gcd; k >= 1 when
        e < 0.  Each inverse is out_j = (c_j - out_{j-1}) / k: in ints,
        O_j = c_j k^j - O_{j-1} is the numerator of out_j over den * k^(j+1)."""
        c, den = value
        for _ in range(e):
            c = [k * a + b for a, b in zip(c, [0, *c])]
        for _ in range(-e):
            o, out = 0, []
            for j, a in enumerate(c):
                o = a * k**j - o
                out.append(o * k ** (m - 1 - j))
            c, den = out, den * k**m
        g = gcd(den, *c)
        return [a // g for a in c], den // g

    values = {0: ([1] + [0] * (m - 1), 1)}
    for n in range(1, order * max(0, *charge) + 1):
        values[n] = step(values[n - 1], n, -power)
    for n in range(-1, order * min(0, *charge) - 1, -1):
        values[n] = step(values[n + 1], n + 1, power)
    return values


def closed_form(model: ModelSpec, order: int) -> GaugeSeries:
    """The hypergeometric J-series (Givental): its q^D coefficient is the
    product over the model's factors (x, charge, p) of

        [prod_{k<=0}(x + kh) / prod_{k<=<charge, D>}(x + kh)]^p,

    the inverse of prod_{k=1..n}(x + kh)^p for n = <charge, D> >= 0 and the
    finite product prod_{k=n+1..0}(x + kh)^p for n < 0.  LookupError when
    the model has no factor list (`hypergeometric_factors`), ValueError on a
    negative order (`_degrees_upto`)."""
    qden, compiled = model.quantum_rows()[0], model.compiled(_factor_actions)
    factors = [(charge, X, m, _factor_values(charge, p, m, order)) for charge, p, X, m in compiled]
    terms = {}
    for D in _degrees_upto(model.rank, order):
        v, den = [1] + [0] * (model.size - 1), 1
        for charge, action, m, values in factors:
            if n := sum(c * d for c, d in zip(charge, D)):
                (*c, top), d = values[n]
                # Horner on X = qden x: r = qden^(m-1) sum_j c_j x^j v
                r = [top * a for a in v]
                for e, cj in enumerate(reversed(c), 1):
                    r = _flat_apply(action, r, [cj * qden**e * a for a in v])
                g = gcd(den := den * d * qden ** (m - 1), *r)
                v, den = [a // g for a in r], den // g
        terms[D] = v, den
    return GaugeSeries._stored(model, order, *_graded(model, {0: terms}))


# -- verification ----------------------------------------------------------


def verify_annihilated(J: GaugeSeries, ops) -> dict:
    """Apply each operator to the series and report residuals."""
    ops = list(ops)
    witnesses = []
    for op, residual in zip(ops, apply_gauge_many(ops, J)):
        if residual:
            degs = [list(D) for D in sorted(residual.flat, key=_degree_order)]
            witnesses.append(
                {
                    "operator": str(op),
                    "nonzero_degrees": degs,
                    "detail": residual.describe(),
                }
            )
    report = _report("annihilation", J.model, J.order, witnesses)
    return {**report, "operators": len(ops)}


def build_H_from_J(model: ModelSpec, J: GaugeSeries, rowspec) -> HMatrix:
    """Assemble the solution matrix by applying one row operator per basis
    element to the J-series, then verify the first-order system."""
    if not rowspec or rowspec[-1] != QDEOperator.const(model.rank, 1):
        raise ValueError("row operators must end with the identity row")
    if len(rowspec) != model.size:
        raise ValueError("expected %d row operators" % model.size)
    rows = apply_gauge_many(rowspec, J)
    report = _system_report(model, J.order, rows)
    if report["status"] != "pass":
        raise CheckFailure(report)
    return HMatrix(model, J.order, rows)


# -- Q-factorization -------------------------------------------------------
# H, H_0 and Q are graded like the solver's matrices: entry (i, k) at q^D
# is c * h^e with e from `_entry_powers`.  Once the entries of H and H_0,
# read from the stored rows (`series._components`), are checked against
# that rule, the factorization runs at h = 1 on q-matrix series: pairs
# ({D: flat ints}, den) with one positive int denominator for the series.


def _qmat_reduced(A, den):
    """(A, den) divided through by one gcd over the whole series."""
    g = gcd(den, *(v for m in A.values() for v in m))
    return {D: [v // g for v in m] for D, m in A.items()}, den // g


def _qfactor_failure(model, D, i, k, expected, got, detail):
    return _check_failure(
        model,
        "q-factorization",
        {
            "degree": list(D),
            "entry": [i, k],
            "expected": expected.to_json(),
            "got": got.to_json(),
            "detail": detail,
        },
    )


def _graded_at_one(model, comps, name):
    """The q-matrix series at h = 1 of a matrix whose row i has the
    components `comps[i]` (`series._components`), after checking every
    entry against the grading; the first entry that breaks it, by degree,
    row and column, names the failure."""
    size, den = model.size, lcm(*(d for _, d in comps))
    out, powers, bad = {}, {}, []
    for i, (comp, d) in enumerate(comps):
        for D, terms in comp.items():
            if D not in out:
                out[D], powers[D] = [0] * (size * size), _entry_powers(model, D)
            mat, row = out[D], i * size
            for (k, x), n in terms.items():
                if x == powers[D][row + k]:
                    mat[row + k] = n * (den // d)
                else:
                    bad.append((_degree_order(D), i, k))
    if bad:
        (_, D), i, k = min(bad)
        v = _laurent(comps[i][0][D], comps[i][1], k)
        e = powers[D][i * size + k]
        raise _qfactor_failure(
            model, D, i, k, HLaurent.term(v.c.get(e, 0), e), v,
            "entry of %s breaks the grading: expected a multiple "
            "of h^%d" % (name, e),
        )
    return _qmat_reduced(out, den)


def _qmat_divide(model, A, B, head_inverse, order):
    """The quotient Q of two q-matrix series with Q * B = A to the
    truncation, where head_inverse = (inv0, iden) inverts B's q^0
    numerator: with a = A / aden and b = B / bden, degree by degree
    Q[D] = (a[D] - sum_{0 < D' <= D} Q[D - D'] b[D']) * b[0]^-1, and
    b[0]^-1 = bden * inv0 / iden.  Each Q[D] is held flat over its own
    reduced denominator, a zero Q[D] is never stored, and the series is
    brought over one denominator at the end; its gcd is then 1."""
    size = model.size
    (A, aden), (B, bden), (inv0, iden) = A, B, head_inverse
    tail = {D: m for D, m in B.items() if any(D)}
    Q = {}
    for D in _degrees_upto(model.rank, order):
        parts = [
            (m, *Q[rest])
            for Dp, m in tail.items()
            if (rest := tuple(a - b for a, b in zip(D, Dp))) in Q
        ]
        # bden * (a[D] - sum Q[D - D'] b[D']) over the lcm of the denominators
        common = lcm(aden, *(d for _, _, d in parts))
        f = bden * (common // aden)
        acc = [v * f for v in A.get(D, [0] * (size * size))]
        for m, num, d in parts:
            _flat_mul(num, m, size, acc, -(common // d))
        if any(acc):
            out = _flat_mul(acc, inv0, size, [0] * len(acc))
            g = gcd(common * iden, *out)
            Q[D] = [v // g for v in out], common * iden // g
    common = lcm(*(d for _, d in Q.values()))
    return {D: [v * (common // d) for v in num] for D, (num, d) in Q.items()}, common


def q_factorize(model: ModelSpec, Hm: HMatrix, rowspec):
    """Split H = Q * H_0 where H_0 is built from the q-free parts of the
    row operators and Q is a q-polynomial matrix with rational entries.

    Returns (Q, H_0) with Q a matrix of scalar Novikov series.  A failure
    raises CheckFailure "q-factorization" naming the degree, the entry
    [i, k] and the expected and obtained values.
    """
    size = model.size
    rank = model.rank
    order = Hm.order
    zero = (0,) * rank
    J = Hm.jrow()
    theta_rows = [op.theta_part() for op in rowspec]
    H0 = HMatrix(model, order, apply_gauge_many(theta_rows, J))
    comps0 = [_components(row) for row in H0.rows]
    for i, (comp, d) in enumerate(comps0):
        head = comp.get(zero, {})
        bad = sorted(k for k, x in head if x)
        if bad:
            v = _laurent(head, d, bad[0])
            raise _qfactor_failure(
                model, zero, i, bad[0], HLaurent.const(v.c.get(0, 0)), v,
                "q^0 entry of H_0 depends on h",
            )
    A0, a0den = _graded_at_one(model, comps0, "H_0")
    head = A0.get(zero, [0] * (size * size))
    try:
        head_inverse = _integral(
            _invert_rational_matrix([head[i : i + size] for i in range(0, len(head), size)])
        )
    except ZeroDivisionError:
        raise _check_failure(
            model,
            "q-factorization",
            {"degree": list(zero), "detail": "q^0 part of H_0 is singular"},
        ) from None
    A, aden = _graded_at_one(model, [_components(row) for row in Hm.rows], "H")
    # Q * H_0 = H holds by construction to the order of H (`_qmat_divide`),
    # so only the head and the h-independence of Q remain to be checked
    Q, qden = _qmat_divide(model, (A, aden), (A0, a0den), head_inverse, order)
    powers = _entry_powers(model, zero)
    for e, v in enumerate(Q.get(zero, [0] * (size * size))):
        i, k = divmod(e, size)
        if v != qden * (i == k):
            x = powers[e]
            raise _qfactor_failure(
                model, zero, i, k, HLaurent.term(int(i == k), x),
                HLaurent.term(Fraction(v, qden), x), "q^0 part of Q is not the identity",
            )
    entries = [[{} for _ in range(size)] for _ in range(size)]
    for D, mat in sorted(Q.items(), key=lambda kv: _degree_order(kv[0])):
        powers = _entry_powers(model, D)
        for e, v in enumerate(mat):
            if v:
                i, k = divmod(e, size)
                v = Fraction(v, qden)
                if x := powers[e]:
                    got = HLaurent.term(v, x)
                    raise _qfactor_failure(
                        model, D, i, k, HLaurent(), got,
                        "entry depends on h: %s" % got,
                    )
                entries[i][k][D] = v
    return [[NovikovSeries(rank, order, c) for c in row] for row in entries], H0


# -- classical (asymptotic) limit -------------------------------------------


def asymptotic_H(model: ModelSpec):
    """The matrix E = e^{t/h} of cup multiplication, built at h = 1 on flat
    int matrices: {e: (flat, den)}, row i of the t^e coefficient holding
    the numerators of the b_k coordinates of the t^e part of e^{t/h} cup
    b_i over den, one den per total degree; the t^e coefficient carries
    h^-|e|.  E[0] = I and E[e] = (1/|e|) sum_j E[e - e_j] C_j, with row u
    of C_j holding b_j cup b_u, the integral action of b_j over the
    model's qden (`ModelSpec.integral_action`).  The build stops at the
    first total degree whose coefficients all vanish: finite because
    degree-2 classes are nilpotent."""
    rank, size = model.rank, model.size
    area = size * size
    qden = model.quantum_rows()[0]
    actions = [[0] * area for _ in range(rank)]
    for j, action in enumerate(actions, 1):
        for u, row in enumerate(model.integral_action(j)):
            for k, n in row:
                action[u * size + k] = n
    identity = [int(e % (size + 1) == 0) for e in range(area)]
    layer, degree, den, out = {(0,) * rank: identity}, 0, 1, {}
    while layer:
        out.update((e, (mat, den)) for e, mat in layer.items())
        degree += 1
        den *= degree * qden
        following = {}
        for e, mat in layer.items():
            for j, action in enumerate(actions):
                up = e[:j] + (e[j] + 1,) + e[j + 1:]
                if up not in following:
                    following[up] = [0] * area
                _flat_mul(mat, action, size, following[up])
        layer = {e: mat for e, mat in following.items() if any(mat)}
    return out


def asymptotic_J(model: ModelSpec, E=None) -> TPoly:
    """The asymptotic J-series e^{t/h} cup 1, row 0 of the matrix E of
    `asymptotic_H` (built when not given), as a t-polynomial of CohSeries
    of Novikov order 0: the series `apply_classical` acts on.  The t^e
    coefficient gets its h^-|e| from the grading (`series._graded`)."""
    E = asymptotic_H(model) if E is None else E
    size, zero = model.size, (0,) * model.rank
    coeffs = {
        e: CohSeries._stored(model, 0, *_graded(model, {0: {zero: (mat[:size], den)}}))
        for e, (mat, den) in E.items()
    }
    return TPoly(model.rank, coeffs)


def tpoly_matrix_json(E):
    """Deterministic JSON form of the matrix E of `asymptotic_H`: entry
    (k, i) lists {"t": e, "h": [[-|e|, value]]} for the t^e terms of the b_k
    coordinate of e^{t/h} cup b_i, by total degree and then e."""
    size = isqrt(len(next(iter(E.values()))[0]))
    out = [[[] for _ in range(size)] for _ in range(size)]
    for e in sorted(E, key=_degree_order):
        mat, den = E[e]
        for ik, n in enumerate(mat):
            if n:
                i, k = divmod(ik, size)
                value = format_ratio(n, den)
                out[k][i].append({"t": list(e), "h": [[-sum(e), value]]})
    return out


# -- descendent extraction ---------------------------------------------------


def descendent_level(model: ModelSpec, j, D):
    """The one level n at which the degree axiom lets the two-point
    invariant <tau_n b_j, 1>_D be nonzero, deg b_j + 2n = 2(dim - 1) +
    deg q^D, or None when no n >= 0 solves it."""
    n, odd = divmod(2 * (model.dim - 1) + model.qdegree(D) - model.degrees[j], 2)
    return n if n >= 0 and not odd else None


def extract_descendents(model: ModelSpec, Hm: HMatrix, max_degree: int):
    """Read two-point descendent invariants against the fundamental class
    from the J-row: the value at level n along the j-th dual basis element
    and degree D is the h^{-(n+1)} coefficient of the scalar entry.

    Every entry with 0 < |D| <= max_degree is checked: a nonnegative h power
    or a level other than `descendent_level` raises CheckFailure.
    """
    comps, den = _components(Hm.jrow())
    # (j, degree, exp, n), component first: the first bad entry names the failure
    entries = sorted(
        (j, _degree_order(D), exp, n)
        for D, terms in comps.items()
        if any(D) and sum(D) <= max_degree
        for (j, exp), n in terms.items()
    )
    records = []
    for j, (_, D), exp, n in entries:
        value = Fraction(n, den)
        if exp >= 0:
            raise _check_failure(
                model,
                "descendent-extraction",
                {
                    "degree": list(D),
                    "component": model.labels[j],
                    "detail": "nonnegative h power %d" % exp,
                },
            )
        level = -exp - 1
        if level != descendent_level(model, j, D):
            raise _check_failure(
                model,
                "descendent-extraction",
                {
                    "degree": list(D),
                    "component": model.labels[j],
                    "level": level,
                    "value": format_rational(value),
                    "detail": "nonzero value where the degree axiom forces zero",
                },
            )
        records.append(
            {
                "degree": list(D),
                "level": level,
                "label": model.labels[j],
                "j": j,
                "value": value,
            }
        )
    records.sort(key=lambda r: (sum(r["degree"]), r["degree"], r["level"], r["j"]))
    return records
