"""Independent brute-force oracles used to derive and defend expected values.

Everything here is deliberately naive: membership by definition-chasing
and exhaustive enumeration, no shared code with the library's algorithms
beyond the public data types.  The exceptions: np_value_lp and
dv_value_limit_lp solve their linear programs with the library's exact
simplex (tested on its own in test_linprog).  dv_multiplicity_ie, the
inclusion-exclusion the library used for discrete valued multiplicities
in d <= 3 before the covolume triangulation, computes in the library's
exact scalars.
closure_level_by_witnesses, the witness union over r <= r_max the
library used for twisted closure levels before they became exact over
every r, builds its levels and closures with the library's engines and
integral_closure.
dv_value_limit_lp is the LP the library solved for discrete valued value
limits before it took the least value over the vertices of the polyhedron.
The *_by_engine functions are the per-engine closed forms the library
used before every exact engine answered from one polyhedron: Twist
scaled its base's answer by alpha, StairOneVar had its own formulas, and
DiscreteValued its own nubar.  Their Adic and DiscreteValued roots use
the oracles above or the library's level code.
staircase_by_each_y is the 2-D staircase scan the library ran before it
jumped over the ys where the least allowed x stays flat.
irredundant_by_restart is the normal form the library computed before
make_irredundant became one sweep: one strict-cone LP (the library's
exact simplex) per pair, and the scan restarted from the first pair
after every removal.
counterexample_by_scan is the search projectively_equivalent ran before
it read its counterexamples off the points of the two polyhedra: every
exponent by degree, then lex, up to degree 64.
equivalent_by_normal_forms is the decision projectively_equivalent made
before it read the points of the two polyhedra: both irredundant normal
forms (the library's make_irredundant), compared pair by pair.
adic_order_dp is the order Adic.order computed before it searched the
Briancon-Skoda window: a dynamic program over every exponent reachable
by stripping generators.
product_by_antichain is the product MonomialIdeal formed in every
dimension before 2-D products merged shifted staircases: all pairwise
sums, reduced by the library's antichain kernel.
colength_by_slabs is the colength the library counted before it swept
the last coordinate once per generator height: the slab at every height
below the pure power, reduced again from all the generators, with the
library's 2-D kernels at the bottom.
"""

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, factorial, gcd

from samfilt import (
    Adic,
    DiscreteValued,
    MonomialIdeal,
    NotPrimaryError,
    StairOneVar,
    Twist,
    integral_closure,
    make_irredundant,
    newton_facets,
    np_threshold_level,
    system_level,
)
from samfilt.equivalence import valuation_pairs
from samfilt.exactnum import as_exact

from samfilt import _kernels
from samfilt._linprog import OPTIMAL, lp_min, simplex_max, strict_cone_margin


def dominates(e, g):
    return all(a >= b for a, b in zip(e, g))


def in_monomial_ideal(e, gens):
    return any(dominates(e, g) for g in gens)


def minimal_points(points):
    """Quadratic-time antichain, no sorting tricks."""
    pts = list(dict.fromkeys(points))
    out = []
    for p in pts:
        if any(q != p and dominates(p, q) for q in pts):
            continue
        if p not in out:
            out.append(p)
    return sorted(out)


def power_gens(gens, m):
    """All m-fold sums of generators (no antichain reduction).

    Exponential in m; only use for tiny m.
    """
    if m == 0:
        return [tuple(0 for _ in gens[0])]
    acc = [tuple(g) for g in gens]
    for _ in range(m - 1):
        acc = [tuple(a + b for a, b in zip(p, g)) for p in acc for g in gens]
    return acc


def in_power(e, gens, m, _memo=None):
    """x^e in I^m, decided directly from the definition.

    Membership means e dominates a sum of m generators; peel one
    generator at a time.
    """
    if _memo is None:
        _memo = {}
    if m == 0:
        return True
    key = (e, m)
    if key in _memo:
        return _memo[key]
    ans = False
    for g in gens:
        if all(a >= b for a, b in zip(e, g)):
            rest = tuple(a - b for a, b in zip(e, g))
            if in_power(rest, gens, m - 1, _memo):
                ans = True
                break
    _memo[key] = ans
    return ans


def adic_order(gens, e, cap=60):
    """sup{m <= cap : x^e in I^m} by definition-chasing membership."""
    best = 0
    memo = {}
    for m in range(1, cap + 1):
        if in_power(tuple(e), gens, m, memo):
            best = m
        else:
            return best
    return best


def adic_order_dp(gens, e):
    """Largest m with x^e in I^m, by the dynamic program Adic.order ran
    before it searched the Briancon-Skoda window: 1 + the best order left
    after stripping one generator, over every exponent reachable by
    stripping, with an explicit stack of exponents still waiting for
    the orders of their remainders."""
    memo = {}
    stack = [tuple(e)]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        best, missing = 0, False
        for g in gens:
            rest = tuple(a - b for a, b in zip(top, g))
            if min(rest) < 0:
                continue
            got = memo.get(rest)
            if got is None:
                stack.append(rest)
                missing = True
            elif got >= best:
                best = got + 1
        if not missing:
            memo[top] = best
            stack.pop()
    return memo[tuple(e)]


def dv_level_members(pairs, m, box):
    """All e in the box with w.e >= ceil(m * a) for every pair (w, a)."""
    out = []
    for e in itertools.product(*(range(b + 1) for b in box)):
        ok = True
        for w, a in pairs:
            need = m * Fraction(a)
            dot = sum(wi * ei for wi, ei in zip(w, e))
            if dot < ceil(need):
                ok = False
                break
        if ok:
            out.append(e)
    return out


def dv_order(pairs, e, cap=500):
    """Largest m with w.e >= ceil(m*a) for all pairs, by scanning m."""
    for m in range(1, cap + 1):
        for w, a in pairs:
            dot = sum(wi * ei for wi, ei in zip(w, e))
            if dot < ceil(m * Fraction(a)):
                return m - 1
    return cap


def brute_colength(gens):
    """Count monomials outside the ideal by box enumeration."""
    n = len(gens[0])
    bounds = []
    for j in range(n):
        pure = [g[j] for g in gens if all(c == 0 for t, c in enumerate(g) if t != j)]
        if not pure:
            return None  # not primary
        bounds.append(min(pure))
    count = 0
    for e in itertools.product(*(range(b) for b in bounds)):
        if not in_monomial_ideal(e, gens):
            count += 1
    return count


def product_by_antichain(I, J):
    """I * J from every pairwise sum of generators."""
    if I.is_zero or J.is_zero:
        return MonomialIdeal.zero(I.n)
    sums = [tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens]
    return MonomialIdeal._trusted(I.n, sums)


def colength_by_slabs(gens):
    """Colength of a primary ideal from its minimal generators, one slab
    {e : (e, t) in I} per height t of the last coordinate."""
    n = len(gens[0])
    if n == 1:
        return min(g[0] for g in gens)
    if n == 2:
        return _kernels.colength_2d(list(gens))
    top = min(g[-1] for g in gens if all(c == 0 for c in g[:-1]))
    total = 0
    for t in range(top):
        slab = [g[:-1] for g in gens if g[-1] <= t]
        total += colength_by_slabs(_kernels.reduce_antichain(slab))
    return total


def staircase_by_each_y(rows, xmin=0, ymin=0):
    """Minimal generators of {e >= (xmin, ymin) : w1*e1 + w2*e2 >= c for
    every row (w1, w2, c)}: the least allowed x at every y up to the
    largest y any row needs, kept where it drops."""
    ylim = ymin
    for w1, w2, c in rows:
        rem = c - w1 * xmin
        if rem > 0:
            ylim = max(ylim, -(-rem // w2))
    out = []
    for y in range(ymin, ylim + 1):
        x = max([xmin] + [-(-(c - w2 * y) // w1) for w1, w2, c in rows])
        if not out or x < out[-1][0]:
            out.append((x, y))
        if x == xmin:
            break
    return out


def closure_members(gens, box, r_max=24):
    """e in the box with r*e in I^r for some r <= r_max."""
    out = []
    for e in itertools.product(*(range(b + 1) for b in box)):
        for r in range(1, r_max + 1):
            re = tuple(r * c for c in e)
            if in_power(re, gens, r):
                out.append(e)
                break
    return out


def min_linear(pairs, e):
    """min_i w_i.e / a_i with Fraction scales."""
    return min(
        Fraction(sum(wi * ei for wi, ei in zip(w, e)), 1) / Fraction(a)
        for w, a in pairs
    )


def strict_min_witness(pairs, i, grid_bound):
    """Grid point where pair i is the unique minimizer, or None."""
    n = len(pairs[0][0])
    wi, ai = pairs[i]
    for e in itertools.product(*(range(grid_bound + 1) for _ in range(n))):
        if all(c == 0 for c in e):
            continue
        mine = Fraction(sum(a * b for a, b in zip(wi, e))) / Fraction(ai)
        strict = True
        for j, (wj, aj) in enumerate(pairs):
            if j == i:
                continue
            other = Fraction(sum(a * b for a, b in zip(wj, e))) / Fraction(aj)
            if other <= mine:
                strict = False
                break
        if strict:
            return e
    return None


def primitive(w):
    g = 0
    for x in w:
        g = gcd(g, x)
    return tuple(x // g for x in w)


def irredundant_by_restart(pairs):
    """Sorted primitive (w, a) pairs, none removable, from (w, a) pairs
    with positive integer w and exact positive a.

    Pair i is essential when some x >= 0 has w_i.x/a_i < w_j.x/a_j for
    every other j, decided by one exact LP against the pairs present."""
    work = []
    for w, a in pairs:
        g = primitive(w)
        item = (g, as_exact(a) / (w[0] // g[0]))
        if item not in work:
            work.append(item)
    zero, one = as_exact(0), as_exact(1)

    def essential(i):
        wi, ai = work[i]
        rows = [[as_exact(x) / aj - as_exact(y) / ai for x, y in zip(wj, wi)]
                for j, (wj, aj) in enumerate(work) if j != i]
        return not rows or strict_cone_margin(rows, zero=zero, one=one)[0] > zero

    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            if not essential(i):
                del work[i]
                changed = True
                break
    return sorted(work)


def np_value_lp(gens, e):
    """max sum(mu) with sum_g mu_g g <= e, mu >= 0: the Newton polyhedron
    order of e, one exact LP per point."""
    zero, one = Fraction(0), Fraction(1)
    c = [one] * len(gens)
    A = [[Fraction(g[j]) for g in gens] for j in range(len(e))]
    b = [Fraction(x) for x in e]
    status, value, _ = simplex_max(c, A, b, zero=zero, one=one)
    assert status == OPTIMAL, status
    return value


# -- discrete valued multiplicity by inclusion-exclusion (d <= 3) -------


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
        return ((rhs[0] * e - b * rhs[1]) / det, (a * rhs[1] - rhs[0] * c) / det)
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


def _dot(w, x):
    total = as_exact(0)
    for a, b in zip(w, x):
        total = total + a * b
    return total


def _region_vertices(cuts, d):
    """Vertices of {x >= 0 : w.x <= rhs for (w, rhs) in cuts}: every
    d-subset of the planes, solved, kept when feasible."""
    zero, one = as_exact(0), as_exact(1)
    planes = list(cuts) + [
        (tuple(one if j == t else zero for t in range(d)), zero) for j in range(d)
    ]
    verts = {}
    for combo in itertools.combinations(planes, d):
        x = _solve_square([list(w) for w, _ in combo], [r for _, r in combo])
        if x is None or any(c < zero for c in x):
            continue
        if any(_dot(w, x) > r for w, r in cuts):
            continue
        verts[x] = True
    return list(verts)


def _ccw_sort(points, center):
    """Counterclockwise cyclic order around center, by exact sign tests."""

    def half(p):
        s = (p[1] - center[1]).sign()
        if s:
            return 0 if s > 0 else 1
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


def _centre(points):
    k = as_exact(len(points))
    return tuple(sum((p[j] for p in points[1:]), points[0][j]) / k for j in range(2))


def _region_volume(cuts, d):
    """Exact volume of {x >= 0 : w.x <= rhs for all cuts}, d <= 3."""
    if d == 1:
        return min(rhs / w[0] for w, rhs in cuts)
    verts = _region_vertices(cuts, d)
    if d == 2:
        if len(verts) < 3:
            return as_exact(0)
        ring = _ccw_sort(verts, _centre(verts))
        twice = as_exact(0)
        for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
            twice = twice + (x0 * y1 - x1 * y0)
        return abs(twice) / 2
    # d = 3: cone each cut facet over the origin, fanned from one vertex
    total = as_exact(0)
    for w, rhs in cuts:
        incident = [v for v in verts if _dot(w, v) == rhs]
        if len(incident) < 3:
            continue
        drop = max(range(3), key=lambda j: w[j])  # project out one axis
        keep = [j for j in range(3) if j != drop]
        flat = {(v[keep[0]], v[keep[1]]): v for v in incident}
        ring = [flat[f] for f in _ccw_sort(list(flat), _centre(list(flat)))]
        for v1, v2 in zip(ring[1:], ring[2:]):
            total = total + abs(_det3([ring[0], v1, v2])) / 6
    return total


def dv_multiplicity_ie(pairs):
    """d! vol{x >= 0 : w_i.x < a_i for some i} for d <= 3, by
    inclusion-exclusion over the simplices {x >= 0 : w_i.x < a_i}.

    pairs are (w, a) with positive integer w and exact positive a; pairs
    on the same plane (equal after dividing by gcd(w)) are merged first.
    Exponential in the number of distinct planes."""
    planes = {}
    for w, a in pairs:
        g = 0
        for x in w:
            g = gcd(g, x)
        planes[tuple(as_exact(x // g) for x in w), as_exact(a) / g] = True
    d = len(pairs[0][0])
    planes = list(planes)
    total = as_exact(0)
    for size in range(1, len(planes) + 1):
        for combo in itertools.combinations(planes, size):
            vol = _region_volume(combo, d)
            total = total + (vol if size % 2 else -vol)
    return total * factorial(d)


def closure_level_by_witnesses(F, m, r_max):
    """The union over r <= r_max of {e : r*e in closure(F.level(r*m))}.

    Its minimal elements are the componentwise ceilings g/r over the
    generators g of those closures.  Builds every level r*m."""
    cand = set()
    for r in range(1, r_max + 1):
        for g in integral_closure(F.level(r * m)).gens:
            cand.add(tuple(-(-x // r) for x in g))
    return MonomialIdeal(F.n, cand)


def dv_value_limit_lp(pairs, w):
    """min w.x over {x >= 0 : w_i.x >= a_i}, by one exact LP.

    pairs are (w_i, a_i) with positive integer w_i and exact positive a_i;
    w is a nonnegative integer weight vector."""
    zero, one = as_exact(0), as_exact(1)
    c = [as_exact(x) for x in w]
    A = [[as_exact(x) for x in wi] for wi, _ in pairs]
    b = [as_exact(a) for _, a in pairs]
    status, value, _ = lp_min(c, A, b, zero=zero, one=one)
    assert status == OPTIMAL, status
    return value


# -- per-engine closed forms, before the one-polyhedron contract ---------


def saturated_level_by_engine(F, t, strict=False):
    """{nubar >= t} (or > t): a twist asks its base at alpha*t."""
    if isinstance(F, Twist):
        return saturated_level_by_engine(F.base, F.alpha * t, strict)
    if isinstance(F, StairOneVar):
        t = F.alpha * t
        return MonomialIdeal(1, [(t.floor() + 1 if strict else t.ceil(),)])
    if isinstance(F, DiscreteValued):
        return system_level(F.n, [(v.w, a * t, strict) for v, a in F.pairs])
    return np_threshold_level(F.ideal, t, strict)


def value_limit_by_engine(F, w):
    """lim v(I_n)/n for the weight vector w: alpha times the base's value
    for a twist, w_1*alpha for a stair, an LP for discrete valued."""
    if isinstance(F, Twist):
        return F.alpha * value_limit_by_engine(F.base, w)
    if isinstance(F, StairOneVar):
        return as_exact(w[0]) * F.alpha
    if isinstance(F, DiscreteValued):
        return dv_value_limit_lp([(v.w, a) for v, a in F.pairs], w)
    return as_exact(min(_dot(w, g) for g in F.ideal.gens))


def multiplicity_by_engine(F):
    """e(F): alpha^d times the base's for a twist, alpha for a stair, and
    for d <= 3 the inclusion-exclusion over P's rows at a root."""
    if isinstance(F, Twist):
        e = multiplicity_by_engine(F.base)
        for _ in range(F.n):
            e = e * F.alpha
        return e
    if isinstance(F, StairOneVar):
        return F.alpha
    if isinstance(F, Adic):
        if not F.ideal.is_primary():
            raise NotPrimaryError("no pure power of some variable")
        pairs = [(f[:-1], f[-1]) for f in newton_facets(F.ideal)]
    else:
        pairs = [(v.w, a) for v, a in F.pairs]
    if F.n == 1:
        return max(as_exact(a) / w[0] for w, a in pairs)
    if F.n <= 3:
        return dv_multiplicity_ie(pairs)
    return F.multiplicity()  # no independent formula in 4-D


def nubar_by_engine(F, f):
    """nubar on a nonzero f: the base's value over alpha for a twist,
    ord(f)/alpha for a stair, min v_i(f)/a_i for discrete valued and the
    Newton polyhedron LP for adic."""
    if isinstance(F, Twist):
        return nubar_by_engine(F.base, f) / F.alpha
    if isinstance(F, StairOneVar):
        return as_exact(f.order_1var()) / F.alpha
    if isinstance(F, DiscreteValued):
        return min(as_exact(v.value(f)) / a for v, a in F.pairs)
    return as_exact(min(np_value_lp(F.ideal.gens, e) for e in f.exps))


def nubar_ratios_on_grid(nubar_f, nubar_g, n, bound):
    """The set of nubar_f(e) / nubar_g(e) over the nonzero exponents e in
    the box [0, bound]^n, both order functions given as callables."""
    ratios = set()
    for e in itertools.product(range(bound + 1), repeat=n):
        if any(e):
            ratios.add(as_exact(nubar_f(e)) / as_exact(nubar_g(e)))
    return ratios


def exponents_of_degree(n, d):
    """The exponents in n variables of total degree d, in lex order."""
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d + 1)
            for rest in exponents_of_degree(n - 1, d - first)]


def is_counterexample(omega_f, omega_g, e):
    """Whether omega_f / omega_g at e differs from its value at (1, ..., 1);
    both order functions are callables on exponent tuples."""
    one = (1,) * len(e)
    return omega_f(e) * omega_g(one) != omega_f(one) * omega_g(e)


def counterexample_by_scan(omega_f, omega_g, n, max_degree=64):
    """The first exponent, by degree then lex, of degree <= max_degree on
    which omega_f / omega_g is not its value at (1, ..., 1), or None."""
    for d in range(1, max_degree + 1):
        for e in exponents_of_degree(n, d):
            if is_counterexample(omega_f, omega_g, e):
                return e
    return None


def equivalent_by_normal_forms(F, G):
    """The alpha with nubar_F = alpha * nubar_G, or None: alpha is the ratio
    of the two normal forms at (1, ..., 1), and G's pairs must be F's with
    every scale times alpha."""
    rep_f = make_irredundant(valuation_pairs(F))
    rep_g = make_irredundant(valuation_pairs(G))
    one = (1,) * F.n
    alpha = rep_f.omega(one) / rep_g.omega(one)
    return alpha if rep_g.pairs == tuple((v, alpha * a) for v, a in rep_f.pairs) else None
