"""Monomial ideals and coefficient-free polynomials in k[x1..xn].

Ideals are stored as the antichain of minimal generating exponents, so
equality, inclusion and membership are all decided on canonical data.
Polynomials carry only their support: additions take unions and products
take all pairwise sums, the generic no-cancellation convention.

The Newton polyhedron of an ideal (convex hull of the generators plus the
positive orthant) drives integral closures: a monomial lies in the integral
closure of I^m exactly when its exponent lies in m times the polyhedron.
The facets of the polyhedron are enumerated once per ideal, exactly and in
any dimension, by the double description cone_rays; the order np_value,
the saturated levels np_threshold_level and the integral closure all read
them.  normalized_covolume measures what such a polyhedron leaves of the
orthant, which is the multiplicity.  system_level, the monomial ideal cut
out by linear inequalities, turns facet rows into generators.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from . import _kernels
from .errors import DimensionMismatchError, ParseError, PreconditionError
from .exactnum import ExactReal, as_exact

Exponent = tuple[int, ...]


def _check_exponent(e: Sequence[int], n: int) -> Exponent:
    t = tuple(e)
    if len(t) != n:
        raise DimensionMismatchError("expected %d coordinates, got %d" % (n, len(t)))
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise PreconditionError("exponents must be nonnegative integers")
    return t


def monomial_str(e: Exponent) -> str:
    """Render an exponent vector, e.g. (2, 1) -> 'x^2*y'."""
    names = ["x", "y", "z"] if len(e) <= 3 else ["x%d" % (i + 1) for i in range(len(e))]
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append("%s^%d" % (name, k))
    return "*".join(parts) if parts else "1"


class MonomialIdeal:
    """A monomial ideal, canonically generated by its minimal exponents.

    Exponents are validated at the public boundary: the constructor,
    from_json, unit and zero reject anything but n nonnegative integers.
    _trusted skips that check and is only for exponents the library built
    itself from validated ones (sums, componentwise maxima, solutions of
    validated inequalities).
    """

    __slots__ = ("n", "gens", "_facets")  # _facets: see newton_facets

    def __init__(self, n: int, gens: Iterable[Sequence[int]]):
        if n < 1:
            raise PreconditionError("ambient dimension must be >= 1")
        pts = [_check_exponent(g, n) for g in gens]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(_kernels.reduce_antichain(pts)))

    @classmethod
    def _trusted(cls, n: int, gens: Iterable[Exponent]) -> "MonomialIdeal":
        """The ideal generated by gens, tuples of n nonnegative ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(_kernels.reduce_antichain(gens)))
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, [])

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, [(0,) * n])

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[0])

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    def contains_exponent(self, e: Sequence[int]) -> bool:
        return _kernels.any_le(self.gens, _check_exponent(e, self.n))

    def contains(self, f: "SupportPoly") -> bool:
        if f.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return all(_kernels.any_le(self.gens, e) for e in f.min_support())

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        sums = [
            tuple(a + b for a, b in zip(g, h))
            for g in self.gens
            for h in other.gens
        ]
        return MonomialIdeal._trusted(self.n, sums)

    def __pow__(self, m: int) -> "MonomialIdeal":
        if m < 0:
            raise PreconditionError("negative power")
        out = MonomialIdeal.unit(self.n)
        for _ in range(m):
            out = out * self
        return out

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection: componentwise maxima of generator pairs."""
        if other.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        tops = [
            tuple(max(a, b) for a, b in zip(g, h))
            for g in self.gens
            for h in other.gens
        ]
        return MonomialIdeal._trusted(self.n, tops)

    def __le__(self, other: "MonomialIdeal") -> bool:
        """Inclusion self <= other."""
        if other.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return all(_kernels.any_le(other.gens, g) for g in self.gens)

    def __lt__(self, other: "MonomialIdeal") -> bool:
        return self <= other and self != other

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def is_primary(self) -> bool:
        """True when the ideal contains a pure power of every variable.

        A minimal generating set holds at most one pure power x_j^b per
        variable, so counting them suffices.
        """
        pure = sum(1 for g in self.gens if g.count(0) == self.n - 1)
        return self.is_unit or pure == self.n

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        try:
            n = data["n"]
            gens = data["gens"]
        except (TypeError, KeyError) as exc:
            raise ParseError("ideal JSON needs 'n' and 'gens'") from exc
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError("ideal JSON: 'n' must be a positive integer")
        if not isinstance(gens, list):
            raise ParseError("ideal JSON: 'gens' must be a list")
        try:
            return cls(n, [tuple(g) for g in gens])
        except (PreconditionError, TypeError) as exc:
            raise ParseError("ideal JSON: bad generator list: %s" % exc) from exc

    def __repr__(self):
        return "MonomialIdeal(%d, %r)" % (self.n, list(self.gens))

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(%s)" % ", ".join(monomial_str(g) for g in self.gens)


class SupportPoly:
    """A polynomial remembered only through its exponent support."""

    __slots__ = ("n", "exps")

    def __init__(self, n: int, exps: Iterable[Sequence[int]]):
        if n < 1:
            raise PreconditionError("ambient dimension must be >= 1")
        pts = frozenset(_check_exponent(e, n) for e in exps)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exps", pts)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SupportPoly is immutable")

    @classmethod
    def monomial(cls, e: Sequence[int]) -> "SupportPoly":
        return cls(len(tuple(e)), [e])

    @classmethod
    def zero(cls, n: int) -> "SupportPoly":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "SupportPoly":
        return cls(n, [(0,) * n])

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def min_support(self) -> list[Exponent]:
        """Minimal exponents; ideal membership only depends on these."""
        return _kernels.reduce_antichain(list(self.exps))

    def __add__(self, other: "SupportPoly") -> "SupportPoly":
        if other.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return SupportPoly(self.n, self.exps | other.exps)

    def __mul__(self, other: "SupportPoly") -> "SupportPoly":
        if other.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return SupportPoly(
            self.n,
            (
                tuple(a + b for a, b in zip(e, f))
                for e in self.exps
                for f in other.exps
            ),
        )

    def __pow__(self, m: int) -> "SupportPoly":
        if m < 0:
            raise PreconditionError("negative power")
        out = SupportPoly.one(self.n)
        for _ in range(m):
            out = out * self
        return out

    def order_1var(self) -> int:
        """Least exponent, for one-variable supports."""
        if self.n != 1:
            raise PreconditionError("order_1var needs a one-variable support")
        if self.is_zero:
            raise PreconditionError("zero polynomial has no finite order")
        return min(e[0] for e in self.exps)

    def __eq__(self, other):
        if not isinstance(other, SupportPoly):
            return NotImplemented
        return self.n == other.n and self.exps == other.exps

    def __hash__(self):
        return hash((self.n, self.exps))

    def __repr__(self):
        return "SupportPoly(%d, %r)" % (self.n, sorted(self.exps))

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(monomial_str(e) for e in sorted(self.exps))


# -- Newton polyhedron ------------------------------------------------


def cone_rays(rows: Sequence[Sequence], n: int) -> list[tuple]:
    """Extreme rays of the cone {y >= 0 in R^(n+1) : r . y >= 0, every row r}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): the rays
    start as the unit vectors and each row cuts them in turn, new rays coming
    from adjacent pairs on opposite sides.  Two rays are adjacent when no
    third ray is tight at every constraint tight at both.  Integer rows give
    integer rays divided by their gcd; rows with exact real entries give rays
    scaled to a leading 1.
    """
    # a ray is (coordinates, bitmask of the constraints tight at it)
    full = (1 << (n + 1)) - 1  # bits 0..n: the sign constraints y >= 0
    rays = [
        (tuple(int(i == j) for i in range(n + 1)), full ^ (1 << j))
        for j in range(n + 1)
    ]
    for k, row in enumerate(rows):
        bit = 1 << (n + 1 + k)
        pos, neg, keep = [], [], []
        for ray in rays:
            a = sum(map(operator.mul, row, ray[0]))
            if a > 0:
                pos.append((ray, a))
                keep.append(ray)
            elif a < 0:
                neg.append((ray, -a))
            else:
                keep.append((ray[0], ray[1] | bit))
        for (p, ap), (q, aq) in itertools.product(pos, neg):
            common = p[1] & q[1]
            if common.bit_count() < n - 1 or any(
                r is not p and r is not q and r[1] & common == common for r in rays
            ):
                continue
            v = [aq * x + ap * y for x, y in zip(p[0], q[0])]
            if isinstance(v[0], int):
                d = math.gcd(*v)
                v = [x // d for x in v]
            else:
                lead = next(x for x in v if x != 0)
                v = [x / lead for x in v]
            keep.append((tuple(v), common | bit))
        rays = keep
    return [v for v, _ in rays]


def newton_facets(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Facet inequalities (l1, ..., ln, c): NP(I) = {e : l . e >= c, all}.

    Normals are primitive with nonnegative entries, c is the least value
    of l over the generators and is positive; facets with c = 0 are implied
    by e >= 0 and left out.  Sorted lexicographically; computed once per
    ideal object, on the first call.

    The normals l/c are the vertices of the blocker {u >= 0 : u . g >= 1
    for every generator g}: the rays with s > 0 of the cone
    {(u, s) >= 0 : g . u >= s}, in integer arithmetic.
    """
    facets = getattr(ideal, "_facets", None)
    if facets is not None:
        return facets
    if not ideal.is_proper_nonzero:
        raise PreconditionError("facets need a proper nonzero ideal")
    n = ideal.n
    facets = []
    for v in cone_rays([g + (-1,) for g in ideal.gens], n):
        if v[n]:  # s > 0: a vertex of the blocker, not a direction
            d = math.gcd(*v[:n])
            l = tuple(x // d for x in v[:n])
            facets.append(l + (min(sum(map(operator.mul, l, g)) for g in ideal.gens),))
    facets = tuple(sorted(facets))
    object.__setattr__(ideal, "_facets", facets)
    return facets


def normalized_covolume(
    points: Sequence[Sequence], facets: Iterable[tuple[Sequence[int], object]]
) -> ExactReal:
    """d! times the volume of the part of the orthant outside a polyhedron P.

    P lies in the orthant, P + orthant = P, and its complement there is
    bounded.  points holds every vertex of P (other points of P may be
    among them); facets holds inequalities (l, c), l . x >= c, valid on P
    and including every facet of P with c > 0.  The coordinate planes are
    added here.

    The complement is the union of the cones from the origin over the
    facets with c > 0, so d! times its volume is the sum of
    |det(v_1, ..., v_d)| over a pulling triangulation of those facets
    (Büeler, Enge & Fukuda 2000).  A face is the set of points on it; the
    facets of a face are the maximal proper nonempty sets among its
    intersections with the tight sets of the inequalities.
    """
    d = len(points[0])
    rows = list(facets) + [(tuple(int(i == j) for i in range(d)), 0) for j in range(d)]
    tight = [
        sum(1 << i for i, p in enumerate(points) if sum(map(operator.mul, l, p)) == c)
        for l, c in rows
    ]
    total = as_exact(0)
    # (face, points pulled so far): each step goes one dimension down, so a
    # facet with c > 0 ends in simplices of d points, while a lower face
    # (cut by a redundant inequality) runs out of subfaces first
    stack = [(t, ()) for t in {t for t, (_, c) in zip(tight, rows) if c > 0 and t}]
    while stack:
        face, chain = stack.pop()
        apex = (face & -face).bit_length() - 1
        chain += (points[apex],)
        if len(chain) == d:
            total = total + abs(_det(chain))
            continue
        subs = {face & t for t in tight} - {face, 0}
        for sub in subs:
            if not sub >> apex & 1 and not any(s != sub and s & sub == sub for s in subs):
                stack.append((sub, chain))
    return total


def _det(rows: Sequence[Sequence]) -> ExactReal:
    """Exact determinant by Gaussian elimination."""
    m = [[as_exact(x) for x in r] for r in rows]
    det = as_exact(1)
    for j in range(len(m)):
        piv = next((i for i in range(j, len(m)) if not m[i][j].is_zero()), None)
        if piv is None:
            return as_exact(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det = det * m[j][j]
        for i in range(j + 1, len(m)):
            f = m[i][j] / m[j][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[j])]
    return det


def np_value(ideal: MonomialIdeal, e: Sequence[int]) -> ExactReal:
    """Largest t with e inside t times the Newton polyhedron of the ideal:
    the least l . e / c over its facets.

    This equals the limit of (power membership order of e^k)/k; it is
    always rational.  Requires a proper nonzero ideal.
    """
    if not ideal.is_proper_nonzero:
        raise PreconditionError("np_value needs a proper nonzero ideal")
    e = _check_exponent(e, ideal.n)
    # map stops at the shorter e, so it pairs l with e and leaves out c
    return as_exact(
        min(Fraction(sum(map(operator.mul, f, e)), f[-1]) for f in newton_facets(ideal))
    )


def np_threshold_level(ideal: MonomialIdeal, t, strict: bool = False) -> MonomialIdeal:
    """The monomial ideal of exponents with np_value(ideal, e) >= t, that
    is l . e >= t * c on every facet.

    With strict=True the inequality is strict instead.
    """
    t = as_exact(t)
    if t.sign() < 0 or (t.sign() == 0 and not strict):
        return MonomialIdeal.unit(ideal.n)
    if not ideal.is_proper_nonzero:
        raise PreconditionError("threshold level needs a proper nonzero ideal")
    return system_level(
        ideal.n, [(f[:-1], t * f[-1], strict) for f in newton_facets(ideal)]
    )


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: all monomials inside the Newton polyhedron."""
    if ideal.is_zero or ideal.is_unit:
        return ideal
    return np_threshold_level(ideal, 1)


# -- levels cut out by linear inequalities -----------------------------


def _resolve_threshold(threshold, strict: bool) -> int:
    """Integer T with {integer s : s >= threshold (or >)} = {s >= T}."""
    t = as_exact(threshold)
    c = t.ceil()
    if strict and t.is_integer:
        c += 1
    return c


def system_level(
    n: int, constraints: Iterable[tuple[Sequence[int], object, bool]]
) -> MonomialIdeal:
    """Monomial ideal {e >= 0 : w . e >= T (or > T) for every constraint}.

    Each constraint is (w, threshold, strict) with nonnegative integer w of
    length n and an exact threshold.  A constraint with w = 0 and a
    positive threshold makes the ideal zero.
    """
    if n < 1:
        raise PreconditionError("ambient dimension must be >= 1")
    rows = []
    for w, threshold, strict in constraints:
        w = _check_exponent(w, n)  # so the generators built from w are trusted
        c = _resolve_threshold(threshold, strict)
        if c > 0:
            rows.append((w, c))
    if not rows:
        return MonomialIdeal.unit(n)
    return MonomialIdeal._trusted(n, _minimal_rows(n, rows))


def _minimal_rows(n: int, rows: list[tuple[tuple[int, ...], int]]) -> list[Exponent]:
    """Integer solutions of w . e >= c for all rows (w >= 0, c > 0), among
    them all minimal ones; the MonomialIdeal constructor drops the rest."""
    if any(not any(w) for w, _ in rows):
        return []
    if n == 1:
        return [(max(-(-c // w[0]) for w, c in rows),)]
    if n == 2:
        xmin = max([-(-c // w[0]) for w, c in rows if not w[1]], default=0)
        ymin = max([-(-c // w[1]) for w, c in rows if not w[0]], default=0)
        both = [(w[0], w[1], c) for w, c in rows if w[0] and w[1]]
        return [tuple(g) for g in _kernels.staircase_gens_2d(both, xmin, ymin)]
    # peel off the last coordinate; rows without it pass down unchanged
    top = max([-(-c // w[-1]) for w, c in rows if w[-1]], default=0)
    pts: list[Exponent] = []
    for t in range(top + 1):
        sub = [(w[:-1], c - w[-1] * t) for w, c in rows if c > w[-1] * t]
        if not sub:
            pts.append((0,) * (n - 1) + (t,))
            break
        for tail in _minimal_rows(n - 1, sub):
            pts.append(tail + (t,))
    return pts
