"""Independent brute-force oracles used to derive and defend expected values.

Everything here is deliberately naive: membership by definition-chasing
and exhaustive enumeration, no shared code with the library's algorithms
beyond the public data types.  The one exception is np_value_lp, which
solves its linear program with the library's exact simplex (tested on its
own in test_linprog).
"""

import itertools
from fractions import Fraction
from math import ceil, gcd

from samfilt._linprog import OPTIMAL, simplex_max


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
