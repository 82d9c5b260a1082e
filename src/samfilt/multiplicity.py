"""Multiplicity, colength and per-valuation values of filtrations.

For a filtration whose levels are primary to the maximal monomial ideal,
e(F) = lim colength(I_n) * d! / n^d.  For discrete valued filtrations in
d <= 3 variables the limit is d! times the Euclidean volume of the
region {x >= 0 : min_i w_i.x/a_i < 1}, computed exactly by
inclusion-exclusion over the cut simplices; every other engine goes
through normalized lattice counts (an approximation with no error bound
claimed).

filtration_value(v, F, n_max) is the limit of v(I_n)/n, an infimum; the
running minimum over n <= n_max is always a valid upper bound, and a
closed form is returned for the exact engines.

saturation_check compares the levels with the outer approximation cut
out by monomial valuations at their filtration values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import factorial

from . import _kernels
from .errors import NotPrimaryError, PreconditionError
from .exactnum import INF, ExactReal, PlusInfinity, as_exact, format_scalar
from .filtration import DiscreteValued, Filtration
from .monomial import MonomialIdeal
from .valuation import MonomialValuation, primitive_pair, system_level


def colength(I: MonomialIdeal) -> int:
    """Number of monomials outside I; finite iff I is primary."""
    if I.is_unit:
        return 0
    if not I.is_primary():
        raise NotPrimaryError(
            "infinite colength: no pure power of some variable in %s" % I
        )
    return _colength_rec(I.n, I.gens)


def _colength_rec(n, gens) -> int:
    if n == 1:
        return min(g[0] for g in gens)
    if n == 2:
        return _kernels.colength_2d(list(gens))
    top = min(g[-1] for g in gens if all(c == 0 for c in g[:-1]))
    total = 0
    for t in range(top):
        slab = [g[:-1] for g in gens if g[-1] <= t]
        total += _colength_rec(n - 1, _kernels.reduce_antichain(slab))
    return total


def _solve_square(rows, rhs):
    """Cramer solve for d <= 3 with exact scalars; None if singular."""
    d = len(rows)
    if d == 1:
        if rows[0][0].is_zero():
            return None
        return (rhs[0] / rows[0][0],)
    if d == 2:
        (a, b), (c, e) = rows
        det = a * e - b * c
        if det.is_zero():
            return None
        x = (rhs[0] * e - b * rhs[1]) / det
        y = (a * rhs[1] - rhs[0] * c) / det
        return (x, y)
    det = _det3(rows)
    if det.is_zero():
        return None
    out = []
    for j in range(3):
        col = [list(r) for r in rows]
        for i in range(3):
            col[i][j] = rhs[i]
        out.append(_det3(col) / det)
    return tuple(out)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _region_vertices(cuts, d):
    """Vertices of {x >= 0 : w.x <= rhs for (w, rhs) in cuts}, exactly.

    The region is a bounded convex polytope containing the origin (all
    weights and right-hand sides are positive).
    """
    zero, one = as_exact(0), as_exact(1)
    planes = [(tuple(w), rhs) for w, rhs in cuts]
    planes += [
        (tuple(one if j == t else zero for t in range(d)), zero) for j in range(d)
    ]
    verts = {}
    for combo in itertools.combinations(range(len(planes)), d):
        rows = [list(planes[i][0]) for i in combo]
        rhs = [planes[i][1] for i in combo]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if any(c < zero for c in x):
            continue
        if any(_dot(w, x) > r for w, r in planes[: len(cuts)]):
            continue
        verts[x] = True
    return list(verts)


def _dot(w, x):
    total = None
    for a, b in zip(w, x):
        term = a * b
        total = term if total is None else total + term
    return total


def _ccw_sort(points, center):
    """Counterclockwise cyclic order around center, by exact sign tests."""

    def half(p):
        dy = p[1] - center[1]
        s = dy.sign()
        if s > 0:
            return 0
        if s < 0:
            return 1
        return 0 if (p[0] - center[0]).sign() > 0 else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - center[0]) * (q[1] - center[1]) - (p[1] - center[1]) * (
            q[0] - center[0]
        )
        return -cross.sign()

    return sorted(points, key=cmp_to_key(cmp))


def _polygon_area(verts):
    if len(verts) < 3:
        return as_exact(0)
    k = as_exact(len(verts))
    cx = sum((v[0] for v in verts[1:]), verts[0][0]) / k
    cy = sum((v[1] for v in verts[1:]), verts[0][1]) / k
    ordered = _ccw_sort(verts, (cx, cy))
    total = as_exact(0)
    for (x0, y0), (x1, y1) in zip(ordered, ordered[1:] + ordered[:1]):
        total = total + (x0 * y1 - x1 * y0)
    two = as_exact(2)
    area = total / two
    return area if area.sign() >= 0 else -area


def _region_volume(cuts, d) -> ExactReal:
    """Exact volume of {x >= 0 : w.x <= rhs for all cuts}, d <= 3."""
    zero = as_exact(0)
    if d == 1:
        best = None
        for w, rhs in cuts:
            c = rhs / w[0]
            if best is None or c < best:
                best = c
        return best
    verts = _region_vertices(cuts, d)
    if d == 2:
        return _polygon_area(verts)
    # d = 3: cone the facet polygons over the origin; facets through the
    # origin contribute zero volume so only the cut planes matter
    six = as_exact(6)
    total = zero
    for w, rhs in cuts:
        incident = [v for v in verts if _dot(w, v) == rhs]
        if len(incident) < 3:
            continue
        drop = max(range(3), key=lambda j: w[j])  # project out one axis
        keep = [j for j in range(3) if j != drop]
        flat = [(v[keep[0]], v[keep[1]]) for v in incident]
        k = as_exact(len(flat))
        cx = sum((p[0] for p in flat[1:]), flat[0][0]) / k
        cy = sum((p[1] for p in flat[1:]), flat[0][1]) / k
        order = _ccw_sort(flat, (cx, cy))
        lookup = {f: v for f, v in zip(flat, incident)}
        ring = [lookup[f] for f in order]
        v0 = ring[0]
        for v1, v2 in zip(ring[1:], ring[2:]):
            det = _det3([list(v0), list(v1), list(v2)])
            total = total + (det if det.sign() >= 0 else -det) / six
    return total


def multiplicity_exact(F: DiscreteValued) -> ExactReal:
    """d! times the volume of the complement region, for d <= 3.

    Inclusion-exclusion over the simplices S_i = {x >= 0 : w_i.x < a_i}:
    the region below the filtration is their union.
    """
    if not isinstance(F, DiscreteValued):
        raise PreconditionError("exact multiplicity implemented for discrete "
                                "valued filtrations")
    d = F.n
    if d > 3:
        raise PreconditionError(
            "exact volume limited to dimension <= 3; use multiplicity_estimate"
        )
    # pairs cutting the same plane would count its facet once per copy
    pairs = list(dict.fromkeys(primitive_pair(v, a) for v, a in F.pairs))
    total = as_exact(0)
    for size in range(1, len(pairs) + 1):
        for combo in itertools.combinations(pairs, size):
            cuts = [(tuple(as_exact(c) for c in v.w), a) for v, a in combo]
            vol = _region_volume(cuts, d)
            total = total + (vol if size % 2 == 1 else -vol)
    return total * factorial(d)


@dataclass
class LengthSeries:
    """Colength samples (n, colength of level n) in ambient dimension d."""

    d: int
    samples: list

    def to_json(self):
        return {"d": self.d, "samples": [[n, c] for n, c in self.samples]}

    def to_csv(self):
        lines = ["n,colength,normalized"]
        f = factorial(self.d)
        for n, c in self.samples:
            lines.append("%d,%d,%s" % (n, c, Fraction(c * f, n**self.d)))
        return "\n".join(lines) + "\n"


def _sample_points(n_max):
    if n_max <= 100:
        return list(range(1, n_max + 1))
    step = n_max // 100
    pts = sorted(set(range(step, n_max + 1, step)) | {n_max})
    return pts


def multiplicity_estimate(F: Filtration, n_max: int):
    """Normalized colength at n_max, with the sampled series.

    Returns (estimate, LengthSeries) where estimate is the exact rational
    colength(I_{n_max}) * d!/n_max^d.  The series samples every level up
    to 100 and roughly a hundred evenly spaced levels beyond that.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    d = F.n
    samples = []
    for n in _sample_points(n_max):
        level = F.level(n)
        if not level.is_primary():
            raise NotPrimaryError("level %d is not primary: %s" % (n, level))
        samples.append((n, colength(level)))
    est = Fraction(samples[-1][1] * factorial(d), n_max**d)
    return est, LengthSeries(d=d, samples=samples)


@dataclass
class ValueResult:
    """Value of a valuation along a filtration.

    upper is the running minimum of v(I_n)/n over n <= n_max (a valid
    upper bound of the limit, since the sequence converges to its inf);
    exact is the limit itself when the engine admits a closed form, else
    None.
    """

    upper: object
    upper_n: int
    exact: object = None

    def __str__(self):
        if self.exact is not None:
            return "%s (exact; running inf %s at n=%d)" % (
                format_scalar(self.exact),
                format_scalar(self.upper),
                self.upper_n,
            )
        return "<= %s (running inf at n=%d)" % (
            format_scalar(self.upper),
            self.upper_n,
        )

    def to_json(self):
        return {
            "exact": None if self.exact is None else format_scalar(self.exact),
            "upper": format_scalar(self.upper),
            "upper_n": self.upper_n,
        }


def filtration_value(v: MonomialValuation, F: Filtration, n_max: int) -> ValueResult:
    """lim v(I_n)/n: closed form when available plus the running inf."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if not isinstance(v, MonomialValuation):
        v = MonomialValuation(tuple(v))
    if v.n != F.n:
        raise PreconditionError("dimension mismatch")
    best = None
    best_n = 1
    for n in range(1, n_max + 1):
        val = v.value_of_ideal(F.level(n))
        cur = INF if isinstance(val, PlusInfinity) else as_exact(val) / n
        if best is None or cur < best:
            best, best_n = cur, n
    return ValueResult(upper=best, upper_n=best_n, exact=F.value_limit(v))


@dataclass
class SaturationRow:
    n: int
    sat: MonomialIdeal
    contained: bool
    equal: bool


@dataclass
class SaturationReport:
    """Levelwise comparison of F with its valuation outer approximation.

    Sat_n is cut out by v >= n * value(v, F) over the test valuations
    (plus the defining ones for a discrete valued F).  Levels always sit
    inside Sat_n; for discrete valued filtrations with the defining
    valuations included the two agree.
    """

    valuations: list
    values: list
    rows: list

    def all_equal(self):
        return all(r.equal for r in self.rows)

    def to_json(self):
        return {
            "valuations": [list(v.w) for v in self.valuations],
            "values": [format_scalar(a) for a in self.values],
            "rows": [
                {
                    "n": r.n,
                    "sat": r.sat.to_json(),
                    "contained": r.contained,
                    "equal": r.equal,
                }
                for r in self.rows
            ],
        }


def saturation_check(F: Filtration, test_vals, n_max: int) -> SaturationReport:
    """Compare levels with the monomial-valuation saturation bound."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    vals = []
    for w in test_vals:
        vals.append(w if isinstance(w, MonomialValuation) else MonomialValuation(tuple(w)))
    if isinstance(F, DiscreteValued):
        for v, _ in F.pairs:
            if all(v.w != u.w for u in vals):
                vals.append(v)
    if not vals:
        raise PreconditionError("need at least one test valuation")
    for v in vals:
        if v.n != F.n:
            raise PreconditionError("dimension mismatch")
    values = []
    for v in vals:
        res = filtration_value(v, F, n_max)
        values.append(res.exact if res.exact is not None else res.upper)
    rows = []
    infinite = any(isinstance(a, PlusInfinity) for a in values)
    for n in range(1, n_max + 1):
        if infinite:
            sat = MonomialIdeal.zero(F.n)
        else:
            constraints = [
                (v.w, a * n, False) for v, a in zip(vals, values) if a.sign() > 0
            ]
            if not constraints:
                sat = MonomialIdeal.unit(F.n)
            else:
                sat = system_level(F.n, constraints)
        level = F.level(n)
        rows.append(
            SaturationRow(
                n=n,
                sat=sat,
                contained=level <= sat,
                equal=level == sat,
            )
        )
    return SaturationReport(valuations=vals, values=values, rows=rows)
