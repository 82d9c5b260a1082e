"""Binding behavior checks, one test per numbered criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a single pass/fail line
per criterion.  All tolerances are exact unless a bound is stated inline.
Criterion 6 carries one extra test on the chain I_1 <= IC_1 <= K_1 (level,
graded integral closure, saturation).  For StairOneVar(1, 1) it reads
(x^2) = (x^2) < (x): x^p is integral at level 1 iff r*p >= r + 1 for some
r >= 1, i.e. p >= 2.  The adic filtration of (x^2, y^3) shows the other
strictness, I_1 < IC_1 = K_1.
"""

import random
from fractions import Fraction

from samfilt import (
    Adic,
    DiscreteValued,
    MonomialIdeal,
    OmegaOracle,
    StairOneVar,
    SupportPoly,
    Twist,
    bracket_twist,
    ic_filtration,
    k_filtration,
    make_irredundant,
    multiplicity_estimate,
    multiplicity_exact,
    nubar,
    nubar_estimate,
    projectively_equivalent,
    recover_valuations,
    rees_graded_integral_1var,
    sqrt,
    twist,
)
from samfilt.exactnum import as_exact, ceil_mul
from samfilt.valuation import MonomialValuation

import test_properties as props
from oracles import closure_members, dv_order, minimal_points

mono = SupportPoly.monomial
SEED = 424201


def P(w, a):
    return (MonomialValuation(tuple(w)), a)


def DV(pairs):
    return DiscreteValued([P(w, a) for w, a in pairs])


def test_criterion_01():
    """One-variable stair family: exact orders and asymptotic slope."""
    for c in (1, 2, 3):
        F = StairOneVar(1, c)
        for c0 in (1, 2, 3):
            for n in range(1, 9):
                want = n * c0 - c if n * c0 > c else 0
                assert F.order(mono((c0 * n,))) == want, (c, c0, n)
            r = nubar(F, mono((c0,)))
            assert r.kind == "exact" and r.value.as_fraction() == c0, (c, c0)


def test_criterion_02():
    """One-variable graded integrality battery, rational and quadratic."""
    # (i) with offset 0 the graded algebra is integrally closed:
    # membership is equivalent to integrality
    for alpha in (1, Fraction(3, 2), sqrt(2)):
        for p in range(1, 13):
            for n in range(1, 7):
                member = p >= ceil_mul(as_exact(alpha), n)
                got = rees_graded_integral_1var(alpha, 0, p, n)
                assert got == member, (alpha, p, n)
    # (ii) at sqrt(2) every level generator of the offset-0 family is
    # integral over the offset-1 algebra
    for n in range(1, 11):
        p = ceil_mul(sqrt(2), n)
        assert rees_graded_integral_1var(sqrt(2), 1, p, n), n
    # (iii) with offset 1 the boundary elements x^p t^q, alpha = p/q,
    # are not integral
    for p, q in ((1, 1), (1, 2), (2, 3)):
        assert not rees_graded_integral_1var(Fraction(p, q), 1, p, q), (p, q)


def test_criterion_03():
    """Saturation of the offset stair is the pure power chain."""
    F = StairOneVar(1, 1)
    K = k_filtration(F, 10)
    for m in range(1, 11):
        assert K.level(m).gens == ((m,),), m
    J1 = ic_filtration(F, 1).level(1)
    assert J1.gens == ((2,),)
    # (x^2) is a proper subset of the saturated level (x)
    assert J1 <= K.level(1) and J1 != K.level(1)


def test_criterion_04():
    """Closed-form orders match brute force; the power estimator
    approaches the exact asymptotic value from below with gap <= max_a/40."""
    rnd = random.Random(SEED)
    for case in range(50):
        n = rnd.randint(1, 3)
        s = rnd.randint(1, 3)
        pairs = []
        for j in range(s):
            w = tuple(rnd.randint(1, 5) for _ in range(n))
            if j == 0:
                a = Fraction(rnd.randint(1, 3))
            else:
                a = min(Fraction(rnd.randint(1, 6), rnd.randint(1, 2)),
                        Fraction(3))
            pairs.append((w, a))
        F = DV(pairs)
        e = tuple(rnd.randint(0, 4) for _ in range(n))
        if not any(e):
            e = (1,) * n
        assert F.order(mono(e)) == dv_order(pairs, e), (pairs, e)
        exact = nubar(F, mono(e)).value
        est = nubar_estimate(F, mono(e), 40).value
        gap = exact - est
        amax = max(a for _, a in pairs)
        assert 0 <= gap <= Fraction(amax, 40), (pairs, e, gap)


def test_criterion_05():
    """Reindexing law: nubar(F, f) = alpha * nubar(twist(F, alpha), f)."""
    rnd = random.Random(SEED + 5)
    alphas = (Fraction(2, 3), 5, sqrt(2), (as_exact(1) + sqrt(5)) / 2)
    for case in range(50):
        F, _ = props.rand_engine(rnd)
        e = props.rand_exponent(rnd, F.n)
        base = nubar(F, mono(e)).value
        for alpha in alphas:
            tw = nubar(twist(F, alpha), mono(e)).value
            assert base == as_exact(alpha) * tw, (case, alpha, e)


def test_criterion_06():
    """Saturation fixed points and the twist/value-scaling identity."""
    rnd = random.Random(SEED + 6)
    for case in range(20):
        pairs = props.rand_pairs(rnd)
        F = DV(pairs)
        K = k_filtration(F, 4)
        for m in range(1, 5):
            assert K.level(m) == F.level(m), (pairs, m)
        for alpha in (Fraction(2, 3), 5, sqrt(2)):
            KT = k_filtration(Twist(F, alpha), 3)
            B = bracket_twist(F, alpha)
            for m in range(1, 4):
                assert KT.level(m) == B.level(m), (pairs, alpha, m)
    # offset stair: the integral-closure level sits strictly inside the
    # saturated level
    F = StairOneVar(1, 1)
    J1 = ic_filtration(F, 1).level(1)
    K1 = k_filtration(F, 1).level(1)
    assert J1.gens == ((2,),) and K1.gens == ((1,),)
    assert J1 <= K1 and J1 != K1


def test_criterion_06_documented_defect_strict_inclusion():
    """Shape of the chain I_1 <= IC_1 <= K_1 and which inclusion is strict.

    StairOneVar(1, 1): I_1 = (x^2), and x^p is in IC_1 iff r*p >= r + 1
    for some r >= 1, which forces p >= 2, so IC_1 = (x^2) = I_1; nubar(x^p)
    = p, so K_1 = (x) and the second inclusion is strict.  For the adic
    filtration of (x^2, y^3) the first inclusion is strict instead:
    I_1 = (x^2, y^3) < IC_1 = K_1 = (x^2, xy^2, y^3).
    """
    # stair of slope alpha and offset c: I_m = (x^(alpha*m + c))
    alpha, c, m = 1, 1, 1
    i_q = alpha * m + c
    ic_q = min(
        q for q in range(1, 5)
        if any(r * q >= r * alpha * m + c for r in range(1, 25))
    )
    k_q = min(q for q in range(1, 5) if q >= alpha * m)  # nubar(x^q) = q/alpha
    assert (i_q, ic_q, k_q) == (2, 2, 1)
    F = StairOneVar(alpha, c)
    I1 = F.level(m)
    J1 = ic_filtration(F, m).level(m)
    K1 = k_filtration(F, m).level(m)
    assert I1.gens == ((i_q,),) and J1.gens == ((ic_q,),)
    assert K1.gens == ((k_q,),)
    assert I1 == J1 and J1 <= K1 and J1 != K1

    # adic (x^2, y^3): integral closure adds x*y^2, and by Rees's theorem
    # the saturation adds nothing further
    gens = [(2, 0), (0, 3)]
    box = (4, 4)
    F = Adic(MonomialIdeal(2, gens))
    I1 = F.level(1)
    J1 = ic_filtration(F, 1).level(1)
    K1 = k_filtration(F, 1).level(1)
    want_ic = minimal_points(closure_members(gens, box))
    assert want_ic == [(0, 3), (1, 2), (2, 0)]
    assert sorted(I1.gens) == sorted(gens)
    assert sorted(J1.gens) == want_ic and sorted(K1.gens) == want_ic
    assert I1 <= J1 and I1 != J1 and J1 == K1


def test_criterion_07():
    """Canonical representations are presentation-invariant, and the
    value-scaled filtration is detected with the exact factor."""
    rnd = random.Random(SEED + 1)
    for fam in range(20):
        n = rnd.choice((2, 3))
        s = rnd.randint(1, 3)
        pairs = [
            (
                tuple(rnd.randint(1, 4) for _ in range(n)),
                Fraction(rnd.randint(1, 3), rnd.randint(1, 2)),
            )
            for _ in range(s)
        ]
        target = make_irredundant([P(w, a) for w, a in pairs])
        for pres in range(5):
            noisy = list(pairs)
            for _ in range(rnd.randint(0, 2)):
                w0, a0 = rnd.choice(pairs)
                if rnd.choice((True, False)):
                    k = rnd.randint(2, 4)
                    noisy.append((tuple(k * x for x in w0), k * a0))
                else:
                    noisy.append(
                        (tuple(x + rnd.randint(0, 2) for x in w0), a0)
                    )
            k = rnd.randint(1, 3)
            noisy = [(tuple(k * x for x in w), k * a) for w, a in noisy]
            rnd.shuffle(noisy)
            got = make_irredundant([P(w, a) for w, a in noisy])
            assert got == target, (fam, pres, pairs, noisy)
        F = DV(pairs)
        for alpha in (Fraction(3, 2), Fraction(2, 3), 5, sqrt(2)):
            res = projectively_equivalent(F, bracket_twist(F, alpha))
            assert res.equivalent and res.alpha == as_exact(alpha), (
                fam, alpha,
            )


def test_criterion_08():
    """Recovery from black-box order data returns the canonical
    representation; redundant hidden components stay invisible."""
    rnd = random.Random(SEED + 1)
    for fam in range(20):
        n = rnd.choice((2, 3))
        s = rnd.randint(1, 3)
        pairs = [
            (
                tuple(rnd.randint(1, 4) for _ in range(n)),
                Fraction(rnd.randint(1, 3), rnd.randint(1, 2)),
            )
            for _ in range(s)
        ]
        # burn the same stream as criterion 7 so families coincide
        for pres in range(5):
            for _ in range(rnd.randint(0, 2)):
                w0, _ = rnd.choice(pairs)
                if rnd.choice((True, False)):
                    rnd.randint(2, 4)
                else:
                    tuple(x + rnd.randint(0, 2) for x in w0)
            rnd.randint(1, 3)
            rnd.shuffle(list(pairs))
        target = make_irredundant([P(w, a) for w, a in pairs])
        w0, a0 = pairs[0]
        hidden = list(pairs) + [(tuple(2 * x for x in w0), 2 * a0)]
        om = OmegaOracle.from_pairs([P(w, a) for w, a in hidden])
        rep = recover_valuations(om, 12)
        assert rep == target, (fam, pairs)


def test_criterion_09():
    """Exact multiplicities, the n_max = 1000 estimator, and agreement
    between a filtration and its saturation."""
    assert multiplicity_exact(DV([((1, 1), 1)])).as_fraction() == 1
    assert multiplicity_exact(DV([((1, 2), 1)])).as_fraction() == Fraction(1, 2)

    F = DV([((1, 2), 1), ((2, 1), 1)])
    exact = multiplicity_exact(F).as_fraction()
    est, _ = multiplicity_estimate(F, 1000)
    assert exact == Fraction(2, 3)
    assert abs(est - exact) <= Fraction(1, 100)

    # discrete valued saturation is the identity, so the estimates agree
    # level by level
    K = k_filtration(F, 30)
    est_f, _ = multiplicity_estimate(F, 30)
    est_k, _ = multiplicity_estimate(K, 30)
    assert est_f == est_k

    # adic saturation via closure powers: deviation shrinks along n
    A = Adic(MonomialIdeal(2, [(2, 0), (0, 3)]))
    KA = k_filtration(A, 1000)
    devs = []
    for n in (50, 200, 1000):
        ea, _ = multiplicity_estimate(A, n)
        ek, _ = multiplicity_estimate(KA, n)
        devs.append(abs(ea - ek))
    assert devs[0] > devs[1] > devs[2]
    assert devs == [Fraction(1, 25), Fraction(1, 100), Fraction(1, 500)]


def test_criterion_10():
    """All six randomized property suites, 1000 cases each, fixed seed."""
    props.test_nubar_homogeneity_and_min_rule()
    props.test_order_superadditive_and_min_rule()
    props.test_dv_inclusion_monotonicity()
    props.test_saturation_sandwich()
    props.test_rees_linear_family()
    props.test_k_fixed_point_and_membership()
