"""Randomized property suites.

Each suite runs 1000 independently generated cases from a fixed, printed
seed.  On failure the assertion message carries a JSON reproducer with the
suite name, seed, case index, and the generated data.
"""

import itertools
import random
from fractions import Fraction

from samfilt import (
    Adic,
    DiscreteValued,
    StairOneVar,
    Table,
    Twist,
    ic_filtration,
    k_filtration,
    nubar,
    nubar_estimate,
    rees_graded_integral_1var,
    rees_integral_witness_1var,
)
from samfilt.filtration import INF
from samfilt.monomial import MonomialIdeal, SupportPoly

mono = SupportPoly.monomial
from samfilt.valuation import MonomialValuation

from conftest import reproducer

SEED = 20250825
CASES = 1000


def fr(obj):
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    return obj


def rand_ideal(rnd, n=2, top=5):
    gens = []
    for axis in range(n):
        g = [0] * n
        g[axis] = rnd.randint(1, top)
        gens.append(tuple(g))
    for _ in range(rnd.randint(0, 2)):
        gens.append(tuple(rnd.randint(0, top) for _ in range(n)))
    if all(sum(g) == 0 for g in gens):
        gens.append((1,) * n)
    return MonomialIdeal(n, gens)


def rand_pairs(rnd, n=2, count=None):
    count = count if count is not None else rnd.randint(1, 3)
    return [
        (
            tuple(rnd.randint(1, 4) for _ in range(n)),
            Fraction(rnd.randint(1, 5), rnd.randint(1, 3)),
        )
        for _ in range(count)
    ]


def dv_from(pairs):
    return DiscreteValued([(MonomialValuation(w), a) for w, a in pairs])


def rand_engine(rnd):
    """A random exact engine together with a JSON-friendly descriptor."""
    kind = rnd.choice(("adic", "dv", "stair", "twist"))
    if kind == "adic":
        I = rand_ideal(rnd)
        return Adic(I), {"kind": kind, "gens": [list(g) for g in I.gens]}
    if kind == "dv":
        pairs = rand_pairs(rnd)
        return dv_from(pairs), {
            "kind": kind,
            "pairs": [[list(w), fr(a)] for w, a in pairs],
        }
    if kind == "stair":
        alpha = Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
        c = rnd.randint(0, 2)
        return StairOneVar(alpha, c), {"kind": kind, "alpha": fr(alpha), "c": c}
    pairs = rand_pairs(rnd)
    alpha = Fraction(rnd.randint(1, 4), rnd.randint(1, 3))
    return Twist(dv_from(pairs), alpha), {
        "kind": kind,
        "pairs": [[list(w), fr(a)] for w, a in pairs],
        "alpha": fr(alpha),
    }


def rand_exponent(rnd, n, top=4, nonzero=True):
    e = tuple(rnd.randint(0, top) for _ in range(n))
    if nonzero and not any(e):
        idx = rnd.randrange(n)
        e = tuple(1 if i == idx else v for i, v in enumerate(e))
    return e


def test_nubar_homogeneity_and_min_rule():
    print(f"suite=nubar_homogeneity seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        F, desc = rand_engine(rnd)
        e = rand_exponent(rnd, F.n)
        k = rnd.randint(2, 4)
        payload = {"suite": "nubar_homogeneity", "seed": SEED, "case": i,
                   "engine": desc, "e": list(e), "k": k}
        v = nubar(F, mono(e)).value
        vk = nubar(F, mono(tuple(k * x for x in e))).value
        assert vk == k * v, reproducer(payload)
        if F.n == 2:
            e2 = rand_exponent(rnd, 2)
            poly = SupportPoly(2, [e, e2])
            vp = nubar(F, poly).value
            vmin = min(v, nubar(F, mono(e2)).value)
            payload["e2"] = list(e2)
            assert vp == vmin, reproducer(payload)


def test_order_superadditive_and_min_rule():
    print(f"suite=order_superadditive seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        F, desc = rand_engine(rnd)
        e1 = rand_exponent(rnd, F.n)
        e2 = rand_exponent(rnd, F.n)
        payload = {"suite": "order_superadditive", "seed": SEED, "case": i,
                   "engine": desc, "e1": list(e1), "e2": list(e2)}
        o1, o2 = F.order(mono(e1)), F.order(mono(e2))
        prod = F.order(mono(tuple(a + b for a, b in zip(e1, e2))))
        if o1 is not INF and o2 is not INF:
            assert prod is INF or prod >= o1 + o2, reproducer(payload)
        if F.n == 2:
            both = F.order(SupportPoly(2, [e1, e2]))
            lo = o1 if (o2 is INF or (o1 is not INF and o1 <= o2)) else o2
            assert both == lo, reproducer(payload)
        # asymptotic order dominates plain order
        v = nubar(F, mono(e1)).value
        if o1 is not INF:
            assert v is INF or v >= o1, reproducer(payload)


def test_dv_inclusion_monotonicity():
    print(f"suite=dv_inclusion seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        pairs = rand_pairs(rnd, count=rnd.randint(2, 4))
        keep = sorted(rnd.sample(range(len(pairs)), rnd.randint(1, len(pairs))))
        sub = [pairs[j] for j in keep]
        F = dv_from(pairs)   # more constraints: smaller levels
        G = dv_from(sub)
        m = rnd.randint(1, 4)
        e = rand_exponent(rnd, 2, top=8)
        payload = {"suite": "dv_inclusion", "seed": SEED, "case": i,
                   "pairs": [[list(w), fr(a)] for w, a in pairs],
                   "keep": keep, "m": m, "e": list(e)}
        lf, lg = F.level(m), G.level(m)
        assert lf <= lg, reproducer(payload)
        if lf.contains_exponent(e):
            assert lg.contains_exponent(e), reproducer(payload)
        assert nubar(F, mono(e)).value <= nubar(G, mono(e)).value, reproducer(payload)


def test_saturation_sandwich():
    print(f"suite=saturation_sandwich seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        which = rnd.choice(("adic", "dv", "stair"))
        if which == "adic":
            F = Adic(rand_ideal(rnd, top=4))
            desc = {"kind": which, "gens": [list(g) for g in F.ideal.gens]}
        elif which == "dv":
            pairs = rand_pairs(rnd)
            F = dv_from(pairs)
            desc = {"kind": which,
                    "pairs": [[list(w), fr(a)] for w, a in pairs]}
        else:
            alpha = Fraction(rnd.randint(1, 4), rnd.randint(1, 2))
            c = rnd.randint(0, 2)
            F = StairOneVar(alpha, c)
            desc = {"kind": which, "alpha": fr(alpha), "c": c}
        m_max = 2
        e = rand_exponent(rnd, F.n, top=5)
        payload = {"suite": "saturation_sandwich", "seed": SEED, "case": i,
                   "engine": desc, "e": list(e)}
        K = k_filtration(F, m_max)
        J = ic_filtration(F, m_max)
        for m in range(1, m_max + 1):
            assert F.level(m) <= J.level(m) <= K.level(m), reproducer(payload)
        # compare estimates under identical horizon semantics
        FT = Table({m: F.level(m) for m in range(1, m_max + 1)}, m_max,
                   validate=False)
        est_f = nubar_estimate(FT, mono(e), m_max).value
        est_j = nubar_estimate(J, mono(e), m_max).value
        est_k = nubar_estimate(K, mono(e), m_max).value
        exact = nubar(F, mono(e)).value
        assert est_f <= est_j <= est_k, reproducer(payload)
        if exact is not INF:
            assert est_k <= exact, reproducer(payload)
        if which == "dv":
            for m in range(1, m_max + 1):
                assert K.level(m) == F.level(m), reproducer(payload)


def test_rees_linear_family():
    print(f"suite=rees_linear seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        p = rnd.randint(1, 10)
        q = rnd.randint(1, 10)
        payload = {"suite": "rees_linear", "seed": SEED, "case": i,
                   "p": p, "q": q}
        assert rees_graded_integral_1var(1, 0, p, q) == (p >= q), \
            reproducer(payload)
        alpha = Fraction(rnd.randint(1, 9), rnd.randint(1, 6))
        c = rnd.randint(0, 4)
        n = rnd.randint(1, 6)
        f_ord = rnd.randint(1, 12)
        payload.update({"alpha": fr(alpha), "c": c, "n": n, "f_ord": f_ord})
        got = rees_graded_integral_1var(alpha, c, f_ord, n)
        witness = rees_integral_witness_1var(alpha, c, f_ord, n)
        found = None
        for d in range(1, 201):
            if d * f_ord >= -((-alpha * n * d) // 1) + c:
                found = d
                break
        assert got == (found is not None), reproducer(payload)
        assert witness == found, reproducer(payload)


def test_k_fixed_point_and_membership():
    print(f"suite=k_fixed_point seed={SEED}")
    rnd = random.Random(SEED)
    for i in range(CASES):
        pairs = rand_pairs(rnd)
        F = dv_from(pairs)
        m_max = rnd.randint(1, 3)
        payload = {"suite": "k_fixed_point", "seed": SEED, "case": i,
                   "pairs": [[list(w), fr(a)] for w, a in pairs],
                   "m_max": m_max}
        K = k_filtration(F, m_max)
        for m in range(1, m_max + 1):
            assert K.level(m) == F.level(m), reproducer(payload)
        I = rand_ideal(rnd, top=3)
        payload["gens"] = [list(g) for g in I.gens]
        A = Adic(I)
        KA = k_filtration(A, 2)
        for m in (1, 2):
            lvl = KA.level(m)
            for g in lvl.gens:
                assert nubar(A, mono(g)).value >= m, reproducer(payload)
            for _ in range(3):
                e = rand_exponent(rnd, 2, top=6)
                inside = lvl.contains_exponent(e)
                v = nubar(A, mono(e)).value
                assert inside == (v >= m), reproducer(payload)
