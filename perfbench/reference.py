"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports samfilt.  Every function recomputes an answer from
the mathematics by a different route than the library takes: closed
forms, fibre-by-fibre lattice counts, brute-force facet enumeration over
generator triples, cone volumes over the faces of a polyhedron and grid
searches.  The tests in ``perfbench/tests`` compare these functions with
hand-worked values only.

Scalars are ``fractions.Fraction``.  Values in Q(sqrt(d)) are written as
triples ``(rational part, surd coefficient, d)``.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def ceil_frac(x) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# -- exact scalars as the library prints and stores them ---------------

_SCALAR_RE = re.compile(
    r"^\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/(\d+)$|^(-?\d+)/(\d+)$|^(-?\d+)$"
)


def parse_scalar_text(text: str):
    """'p', 'p/q' or '(p+q*sqrt(d))/r' as (rational, surd coefficient, d)."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("not an exact scalar: %r" % (text,))
    if m.group(1) is not None:
        r = int(m.group(5))
        q = int(m.group(3)) * (1 if m.group(2) == "+" else -1)
        return Fraction(int(m.group(1)), r), Fraction(q, r), int(m.group(4))
    if m.group(6) is not None:
        return Fraction(int(m.group(6)), int(m.group(7))), Fraction(0), 0
    return Fraction(int(m.group(8))), Fraction(0), 0


def scalar_parts(x):
    """(rational, surd coefficient, d) of a number stored as (p+q*sqrt(d))/r.

    Reads the four stored integers only; no arithmetic of the library is
    used.  Plain ints and Fractions are accepted too.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0), 0
    return Fraction(x.p, x.r), Fraction(x.q, x.r), x.d


def rational(x) -> Fraction:
    """The value of a stored scalar that must be rational."""
    rat, surd, _ = scalar_parts(x)
    if surd:
        raise ValueError("expected a rational value, got a surd part")
    return rat


# -- colengths ---------------------------------------------------------


def adic_pure_power_colength(a: int, b: int, n: int) -> int:
    """Colength of (x^a, y^b)^n: a*b*n*(n+1)/2 monomials lie outside."""
    return a * b * n * (n + 1) // 2


def union_of_prefixes_colength(rows) -> int:
    """#{e >= 0 : w.e < T for some row (w, T)}, all w strictly positive.

    Counted fibre by fibre along the last coordinate: over a fixed prefix
    of the other coordinates the points below row (w, T) form the prefix
    [0, ceil((T - w'.e')/w_last)) of the fibre, and a union of prefixes is
    its longest member.
    """
    rows = [(tuple(w), T) for w, T in rows if T > 0]
    if not rows:
        return 0
    d = len(rows[0][0])
    if d == 1:
        return max(ceil_frac(Fraction(T, w[0])) for w, T in rows)
    spans = [
        range(max(ceil_frac(Fraction(T, w[j])) for w, T in rows)) for j in range(d - 1)
    ]
    total = 0
    for head in itertools.product(*spans):
        longest = 0
        for w, T in rows:
            rest = T - dot(w[:-1], head)
            if rest > 0:
                longest = max(longest, -(-rest // w[-1]))
        total += longest
    return total


def dv_level_rows(pairs, n: int):
    """Integer rows (w, ceil(n*a)) of level n of a rational DV family."""
    return [(tuple(w), ceil_frac(Fraction(a) * n)) for w, a in pairs]


# -- minimal generators of up-closed lattice sets ----------------------


def minimal_points(box, member) -> set:
    """Minimal points of an up-closed set of exponents inside a box.

    A point is a minimal generator exactly when it is a member and no
    point one step below it in any coordinate is.  ``box`` bounds each
    coordinate (inclusive) and must contain every minimal generator.
    """
    out = set()
    for e in itertools.product(*(range(b + 1) for b in box)):
        if not member(e):
            continue
        minimal = True
        for j, x in enumerate(e):
            if x and member(e[:j] + (x - 1,) + e[j + 1 :]):
                minimal = False
                break
        if minimal:
            out.add(e)
    return out


def rows_box(rows):
    """Per-coordinate bound on minimal solutions of w.e >= T (w > 0)."""
    d = len(rows[0][0])
    return tuple(
        max(max(ceil_frac(Fraction(T, w[j])), 0) for w, T in rows) for j in range(d)
    )


def rows_member(rows):
    return lambda e: all(dot(w, e) >= T for w, T in rows)


# -- Newton polyhedra by brute force -----------------------------------


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def newton_inequalities(gens):
    """Valid inequalities l.e >= c (l >= 0, c > 0) cutting out NP(I).

    NP(I) is the convex hull of the generators plus the orthant.  Every
    facet is spanned by n of: generators (points) and unit vectors (rays),
    so the candidate normals are the normals of all such n-tuples; a
    candidate is kept when it has no negative entry and every generator
    satisfies it.  The list holds every facet and possibly some other
    valid inequalities, which cut out the same polyhedron.  n is 2 or 3.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    normals = set()
    if n == 2:
        dirs = [_sub(q, p) for p, q in itertools.combinations(gens, 2)] + units
        for v in dirs:
            normals.add((v[1], -v[0]))
    elif n == 3:
        for p, q, r in itertools.combinations(gens, 3):
            normals.add(_cross(_sub(q, p), _sub(r, p)))
        for p, q in itertools.combinations(gens, 2):
            for u in units:
                normals.add(_cross(_sub(q, p), u))
        for u, v in itertools.combinations(units, 2):
            normals.add(_cross(u, v))
    else:
        raise ValueError("brute-force facets implemented for n = 2 and 3")
    out = set()
    for l in normals:
        if all(x <= 0 for x in l):
            l = tuple(-x for x in l)
        if any(x < 0 for x in l) or not any(l):
            continue
        g = math.gcd(*l)
        l = tuple(x // g for x in l)
        c = min(dot(l, p) for p in gens)
        if c > 0:
            out.add((l, c))
    return sorted(out)


def np_order(ineqs, e) -> Fraction:
    """nubar of x^e along the adic filtration: min over facets of l.e/c."""
    return min(Fraction(dot(l, e), c) for l, c in ineqs)


def closure_generators(gens, t) -> set:
    """Minimal generators of {e : nubar(x^e) >= t} for the adic filtration
    of the primary ideal generated by ``gens`` (for integer t this is the
    integral closure of I^t)."""
    ineqs = newton_inequalities(gens)
    n = len(gens[0])
    box = tuple(ceil_frac(Fraction(t) * max(g[j] for g in gens)) for j in range(n))
    return minimal_points(box, lambda e: all(dot(l, e) >= t * c for l, c in ineqs))


# -- discrete valued polyhedra: vertices, values, cone volumes ---------


def _solve(rows, rhs):
    """Exact solution of a square system, or None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def dv_vertices(pairs):
    """Vertices of P = {x >= 0 : w_i.x >= a_i for every pair}."""
    d = len(pairs[0][0])
    planes = [(tuple(w), Fraction(a)) for w, a in pairs]
    planes += [(tuple(1 if i == j else 0 for i in range(d)), Fraction(0)) for j in range(d)]
    verts = set()
    for combo in itertools.combinations(planes, d):
        x = _solve([w for w, _ in combo], [a for _, a in combo])
        if x is None or any(c < 0 for c in x):
            continue
        if all(dot(w, x) >= a for w, a in pairs):
            verts.add(x)
    return verts


def _hull_area_2d(points) -> Fraction:
    """Area of the convex hull of 2-D points (monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return Fraction(0)

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    twice = sum(
        ring[i][0] * ring[(i + 1) % len(ring)][1] - ring[(i + 1) % len(ring)][0] * ring[i][1]
        for i in range(len(ring))
    )
    return abs(Fraction(twice)) / 2


def dv_multiplicity(pairs) -> Fraction:
    """e(F) = d! vol{x >= 0 : w_i.x < a_i for some i}, for d = 2 or 3.

    The region is star-shaped from the origin and bounded by the faces
    F_i = P ∩ {w_i.x = a_i} of P = {x >= 0 : w_i.x >= a_i}.  Its volume is
    the sum of the cones from the origin over those faces; the cone over
    F_i has volume a_i * (area of F_i projected along the last axis)
    / (d * w_i,last).  Pairs defining the same plane share one face.
    One-pair families give a^d / prod(w).
    """
    pairs = sorted(primitive_pairs(pairs))  # a repeated plane bounds one face
    d = len(pairs[0][0])
    if d not in (2, 3):
        raise ValueError("cone volumes implemented for d = 2 and 3")
    verts = dv_vertices(pairs)
    vol = Fraction(0)
    for w, a in pairs:
        face = [v for v in verts if dot(w, v) == a]
        if d == 2:
            xs = [v[0] for v in face]
            shadow = max(xs) - min(xs) if xs else Fraction(0)
        else:
            shadow = _hull_area_2d([v[:2] for v in face])
        vol += a * shadow / (d * w[-1])
    return vol * math.factorial(d)


def dv_value_limit(pairs, v) -> Fraction:
    """lim v(I_n)/n for a DV family: min of v over P, attained at a vertex."""
    return min(dot(v, x) for x in dv_vertices(pairs))


# -- order functions, irredundant families, equivalence ----------------


def omega(pairs, e) -> Fraction:
    """min_i w_i.e / a_i: the asymptotic order of x^e (rational scales)."""
    return min(Fraction(dot(w, e)) / Fraction(a) for w, a in pairs)


def primitive_pairs(pairs):
    """Divide each (w, a) by gcd(w) and drop repeats."""
    out = set()
    for w, a in pairs:
        g = math.gcd(*w)
        out.add((tuple(x // g for x in w), Fraction(a) / g))
    return out


def strict_minimizers(pairs, bound: int) -> set:
    """Primitive pairs that are the unique minimiser of w.e/a at some
    nonzero exponent e in {0..bound}^n."""
    prim = sorted(primitive_pairs(pairs))
    n = len(prim[0][0])
    # w.e/a scaled by the common multiple of the numerators: integer forms
    big = math.lcm(*(a.numerator for _, a in prim))
    forms = [tuple(x * a.denominator * (big // a.numerator) for x in w) for w, a in prim]
    out = set()
    for e in itertools.product(range(bound + 1), repeat=n):
        if not any(e):
            continue
        vals = [dot(c, e) for c in forms]
        low = min(vals)
        if vals.count(low) == 1:
            out.add(prim[vals.index(low)])
    return out


def is_counterexample(pairs_f, scale_f, pairs_g, scale_g, e) -> bool:
    """Whether omega_F / omega_G at e differs from its value at (1,..,1).

    F and G are the rational families ``pairs_*`` with every a_i multiplied
    by the common factor ``scale_*``.  A common factor only rescales
    omega, so the test runs on the rational families.
    """
    ones = tuple(1 for _ in e)
    lhs = omega(pairs_f, e) * omega(pairs_g, ones)
    rhs = omega(pairs_f, ones) * omega(pairs_g, e)
    return lhs != rhs


# -- one-variable stairs -----------------------------------------------


def rees1(alpha, c: int, f_ord: int, n: int):
    """(integral, least witness d) for x^f_ord in degree n of the stair
    I_m = (x^(ceil(alpha*m)+c)), by direct search over d; alpha rational."""
    alpha = Fraction(alpha)
    integral = f_ord > alpha * n or (f_ord == alpha * n and c == 0)
    if not integral:
        return False, None
    d = 1
    while d * f_ord < ceil_frac(alpha * n * d) + c:
        d += 1
    return True, d
