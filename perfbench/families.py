"""Seeded input families shared by the workloads.

Every family is built by the benchmark from a ``random.Random`` and comes
with its expected answers, known by construction and confirmed with the
brute-force code in ``reference``.  Filtrations are handed to the library
only as JSON documents, the form the CLI reads.
"""

from __future__ import annotations

from fractions import Fraction

import reference as ref

SCALES = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(3), Fraction(4, 3))
GRID = 8
# fixed families for recover_valuations: two essential pairs, one mediant
# and one dominated pair each
RECOVER_2D = [((1, 2), Fraction(1)), ((2, 1), Fraction(1)), ((3, 3), Fraction(2)), ((2, 2), Fraction(1))]
RECOVER_3D = [((1, 1, 2), Fraction(1)), ((2, 1, 1), Fraction(1)), ((3, 2, 3), Fraction(2)),
              ((2, 1, 2), Fraction(1))]


def scalar_text(a: Fraction, surd: int = 0) -> str:
    """Exact scalar text for a (surd == 0) or a*sqrt(surd)."""
    a = Fraction(a)
    if surd:
        return "(0+%d*sqrt(%d))/%d" % (a.numerator, surd, a.denominator)
    return "%d/%d" % (a.numerator, a.denominator)


def dv_doc(pairs, surd: int = 0) -> dict:
    """JSON of the DV filtration with scales a_i (times sqrt(surd) if set)."""
    return {
        "type": "dv",
        "pairs": [{"w": list(w), "a": scalar_text(a, surd)} for w, a in pairs],
    }


def adic_doc(gens) -> dict:
    n = len(gens[0])
    return {"type": "adic", "ideal": {"n": n, "gens": [list(g) for g in gens]}}


def essential_family(rng, n: int, k: int):
    """k primitive pairs, each the unique minimiser of w.e/a somewhere on
    the grid {0..GRID}^n.

    Draws 3k random pairs and keeps k of those that win somewhere on the
    grid: a pair that wins at a point still wins there among fewer pairs.
    """
    while True:
        pool = [(tuple(rng.randint(1, 5) for _ in range(n)), rng.choice(SCALES)) for _ in range(3 * k)]
        winners = sorted(ref.strict_minimizers(pool, GRID))
        if len(winners) >= k:
            return rng.sample(winners, k)


def with_redundant(rng, essentials):
    """The essentials plus a dominated pair and a mediant pair, shuffled.

    A pair (w + delta, a) with every delta_j >= 1 is above (w, a) at every
    nonzero exponent; the mediant (w_i + w_j, a_i + a_j) is never below
    min(pair i, pair j) and above it wherever the two differ.  Neither can
    be the strict minimiser anywhere, nor tie with the pair that is.
    """
    w, a = rng.choice(essentials)
    dominated = (tuple(x + rng.randint(1, 2) for x in w), a)
    (w1, a1), (w2, a2) = rng.sample(essentials, 2)
    mediant = (tuple(x + y for x, y in zip(w1, w2)), a1 + a2)
    out = list(essentials) + [dominated, mediant]
    rng.shuffle(out)
    return out


def equivalence_case(rng, n: int, k: int, equivalent: bool, surd: bool):
    """(F pairs, G base pairs, scale, expected irredundant set of F).

    G is G base with every scale multiplied by ``scale`` (a Fraction, or
    a Fraction times sqrt(2) when ``surd``).  When not equivalent, one
    pair of G base has its scale doubled.
    """
    essentials = essential_family(rng, n, k)
    f_pairs = with_redundant(rng, essentials)
    base = list(essentials)
    if not equivalent:
        i = rng.randrange(k)
        base[i] = (base[i][0], base[i][1] * 2)
    g_pairs = with_redundant(rng, base)
    scale = rng.choice((Fraction(3, 2), Fraction(2, 5), Fraction(1), Fraction(7, 3)))
    if scale == 1 and equivalent and not surd:
        scale = Fraction(5, 4)
    return f_pairs, g_pairs, scale, ref.primitive_pairs(essentials)
