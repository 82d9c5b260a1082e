import itertools
import operator
import random
from fractions import Fraction

import pytest

from samfilt import (
    Adic,
    DiscreteValued,
    ExactReal,
    HorizonExceededError,
    MonomialIdeal,
    PlusInfinity,
    PreconditionError,
    StairOneVar,
    SupportPoly,
    Table,
    Twist,
    bracket_twist,
    filtration_value,
    ic_filtration,
    integral_closure,
    k_filtration,
    np_threshold_level,
    nubar,
    nubar_estimate,
    rees_graded_integral_1var,
    rees_integral_witness_1var,
    sqrt,
    twist,
)
from samfilt.exactnum import as_exact, ceil_mul, ceil_of
from samfilt.valuation import MonomialValuation

from oracles import adic_order, closure_level_by_witnesses, np_value_lp

BOX = MonomialIdeal(2, [(2, 0), (0, 3)])
mono = SupportPoly.monomial


def DV(*pairs):
    return DiscreteValued([(MonomialValuation(tuple(w)), a) for w, a in pairs])


class TestNubarExact:
    def test_adic_is_min_np_value(self):
        F = Adic(BOX)
        r = nubar(F, mono((1, 1)))
        assert r.kind == "exact" and r.value.as_fraction() == Fraction(5, 6)
        assert nubar(F, mono((1, 0))).value.as_fraction() == Fraction(1, 2)

    def test_adic_poly_uses_minimal_support(self):
        F = Adic(BOX)
        f = SupportPoly(2, [(1, 1), (4, 4)])
        assert nubar(F, f).value.as_fraction() == Fraction(5, 6)

    def test_dv_is_min_ratio(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        assert nubar(F, mono((1, 1))).value.as_fraction() == Fraction(3, 1)
        F2 = DV(((3, 2), Fraction(3, 2)))
        assert nubar(F2, mono((1, 1))).value.as_fraction() == Fraction(10, 3)

    def test_stair(self):
        S = StairOneVar(Fraction(3, 2), 1)
        assert nubar(S, mono((5,))).value.as_fraction() == Fraction(10, 3)
        # the additive offset c never shows in the asymptotic value
        S2 = StairOneVar(1, 2)
        assert nubar(S2, mono((1,))).value.as_fraction() == 1

    def test_twist_divides_by_alpha(self):
        base = Adic(BOX)
        r = nubar(twist(base, sqrt(2)), mono((1, 1)))
        assert r.kind == "exact"
        assert r.value == ExactReal(0, 5, 2, 12)  # (5/6)/sqrt(2)

    def test_nested_twist(self):
        base = DV(((1, 2), 1), ((2, 1), 1))
        T = twist(twist(base, Fraction(3, 2)), Fraction(2, 1))
        assert nubar(T, mono((1, 1))).value.as_fraction() == Fraction(1, 1)

    def test_zero_element_infinite(self):
        r = nubar(Adic(BOX), SupportPoly.zero(2))
        assert r.kind == "exact" and isinstance(r.value, PlusInfinity)

    def test_unit_ideal_infinite(self):
        r = nubar(Adic(MonomialIdeal.unit(2)), mono((1, 0)))
        assert isinstance(r.value, PlusInfinity)

    def test_zero_ideal_gives_zero(self):
        r = nubar(Adic(MonomialIdeal.zero(2)), mono((1, 0)))
        assert r.kind == "exact" and r.value.is_zero

    def test_str_forms(self):
        assert str(nubar(Adic(BOX), mono((1, 1)))) == "5/6 (exact)"


class TestNubarEstimate:
    def test_stair_example(self):
        r = nubar_estimate(StairOneVar(1, 2), mono((1,)), 10)
        assert r.kind == "lower_bound"
        assert r.value.as_fraction() == Fraction(4, 5)
        assert r.witness_n == 10 and not r.truncated
        assert str(r) == ">= 4/5 (witness n=10)"

    def test_bound_below_exact(self):
        engines = [
            Adic(BOX),
            DV(((1, 2), 1), ((2, 1), 1)),
            StairOneVar(Fraction(3, 2), 1),
            twist(Adic(BOX), Fraction(2, 3)),
        ]
        rnd = random.Random(71)
        for F in engines:
            for _ in range(5):
                e = tuple(rnd.randint(0, 3) for _ in range(F.n))
                f = mono(e)
                exact = nubar(F, f).value
                est = nubar_estimate(F, f, 8)
                if isinstance(exact, PlusInfinity):
                    continue
                assert est.value <= exact, (F, e)

    def test_monotone_in_horizon(self):
        F = Adic(BOX)
        f = mono((1, 1))
        vals = [nubar_estimate(F, f, n).value for n in (2, 4, 6, 8, 12)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b

    def test_hits_exact_at_denominator(self):
        # np value 5/6: the estimate is exact once n covers the denominator
        r = nubar_estimate(Adic(BOX), mono((1, 1)), 6)
        assert r.value.as_fraction() == Fraction(5, 6)
        assert r.witness_n == 6

    def test_table_truncation_flagged(self):
        T = Table({1: BOX, 2: BOX * BOX}, 2)
        r = nubar_estimate(T, mono((2, 0)), 6)
        assert r.kind == "lower_bound" and r.truncated
        assert r.value.as_fraction() == 1
        assert "truncated" in str(r)

    def test_nubar_on_table_estimates(self):
        T = Table({1: BOX, 2: BOX * BOX}, 2)
        r = nubar(T, mono((2, 0)))
        assert r.kind == "lower_bound"

    def test_zero_element(self):
        r = nubar_estimate(Adic(BOX), SupportPoly.zero(2), 5)
        assert r.kind == "exact" and isinstance(r.value, PlusInfinity)

    def test_horizon_must_be_positive(self):
        with pytest.raises(PreconditionError):
            nubar_estimate(Adic(BOX), mono((1, 1)), 0)

    def test_json(self):
        r = nubar_estimate(StairOneVar(1, 2), mono((1,)), 10)
        assert r.to_json() == {
            "value": "4/5",
            "kind": "lower_bound",
            "witness_n": 10,
            "truncated": False,
        }


class TestKFiltration:
    def test_adic_levels_are_threshold_levels(self):
        K = k_filtration(Adic(BOX), 3)
        for m in range(1, 4):
            assert K.level(m) == np_threshold_level(BOX, m)
        assert K.level(1) == integral_closure(BOX)

    def test_adic_level_one_frozen(self):
        K = k_filtration(Adic(BOX), 1)
        assert K.level(1).gens == ((2, 0), (0, 3), (1, 2))

    def test_dv_fixed_point(self):
        F = DV(((1, 2), 1), ((2, 1), Fraction(3, 2)))
        K = k_filtration(F, 4)
        for m in range(5):
            assert K.level(m) == F.level(m)

    def test_twist_of_dv_is_bracket_twist(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        for alpha in (Fraction(2, 3), Fraction(5, 1), sqrt(2)):
            K = k_filtration(twist(F, alpha), 3)
            B = bracket_twist(F, alpha)
            for m in range(4):
                assert K.level(m) == B.level(m), alpha

    def test_twist_of_adic_uses_scaled_threshold(self):
        T = twist(Adic(BOX), sqrt(2))
        K = k_filtration(T, 2)
        assert K.level(1).gens == ((3, 0), (1, 3), (2, 2), (0, 5))
        for m in (1, 2):
            assert K.level(m) == np_threshold_level(BOX, sqrt(2) * m)

    def test_stair_drops_offset(self):
        K = k_filtration(StairOneVar(Fraction(3, 2), 1), 3)
        assert [K.level(m).gens[0][0] for m in (1, 2, 3)] == [2, 3, 5]

    def test_contains_original_levels(self):
        engines = [
            Adic(BOX),
            DV(((2, 3), Fraction(1, 2))),
            StairOneVar(Fraction(3, 2), 2),
            twist(Adic(BOX), sqrt(2)),
        ]
        for F in engines:
            K = k_filtration(F, 3)
            for m in range(4):
                for g in F.level(m).gens:
                    assert K.level(m).contains_exponent(g), (F, m)

    def test_result_is_bounded_table(self):
        K = k_filtration(Adic(BOX), 2)
        assert isinstance(K, Table) and K.horizon == 2
        with pytest.raises(HorizonExceededError):
            K.level(3)

    def test_table_input_rejected(self):
        T = Table({1: BOX}, 1)
        with pytest.raises(PreconditionError):
            k_filtration(T, 1)

    def test_m_max_positive(self):
        with pytest.raises(PreconditionError):
            k_filtration(Adic(BOX), 0)


def _root_index(F, k):
    """The root under F's twists and the root index that F's level k reads."""
    while isinstance(F, Twist):
        k = ceil_mul(F.alpha, k)
        F = F.base
    return F, k


def _has_witness(F, e, m, r_max):
    """Some r <= r_max with r*e in closure(level r*m of F), decided at the
    root: the closure of an Adic or DiscreteValued level k is k*P, and a
    stair's levels are closed principal ideals."""
    root, _ = _root_index(F, 1)
    if isinstance(root, Adic):
        if root.ideal.is_unit:
            return True  # every level is R
        v = np_value_lp(root.ideal.gens, e)
    for r in range(1, r_max + 1):
        _, k = _root_index(F, r * m)
        if isinstance(root, StairOneVar):
            ok = r * e[0] >= ceil_mul(root.alpha, k) + root.c
        elif isinstance(root, Adic):
            ok = r * v >= k
        else:
            ok = all(r * sum(map(operator.mul, w.w, e)) >= ceil_mul(a, k)
                     for w, a in root.pairs)
        if ok:
            return True
    return False


class TestIcFiltration:
    def test_adic_levels_are_closures_of_powers(self):
        J = ic_filtration(Adic(BOX), 3)
        for m in range(1, 4):
            assert J.level(m) == integral_closure(BOX**m)

    def test_adic_closure_level_without_the_power(self):
        # closure(I^m) = {nubar >= m}, read off the facets of I; I^m is not
        # built.  The unit and zero ideals are their own powers and closures.
        rnd = random.Random(73)
        for n in (2, 3):
            ideals = [MonomialIdeal.unit(n), MonomialIdeal.zero(n)]
            for _ in range(8):
                gens = [
                    tuple(rnd.randint(0, 3) for _ in range(n))
                    for _ in range(rnd.randint(1, 3))
                ]
                gens += [tuple(rnd.randint(1, 4) if k == j else 0 for k in range(n))
                         for j in range(n)]
                ideals.append(MonomialIdeal(n, gens))
            for I in ideals:
                for m in range(1, 5):
                    A = Adic(I)
                    level = A.closure_level(m)
                    assert m not in A._cache
                    t = Fraction(2 * m - 1, 2)
                    if I.is_proper_nonzero:
                        assert level == np_threshold_level(I, m), (I, m)
                        assert A.saturated_level(t) == np_threshold_level(I, t), (I, t)
                    else:
                        assert level == I and A.saturated_level(t) == I
                    assert level == integral_closure(A.level(m)), (I, m)

    def test_twisted_3d_adic(self):
        # J_m = {e : r*e in closure(I^ceil(3rm/2)) for some r}, which r = 2
        # already takes to K_m = {nubar >= 3m/2}; checked point by point on
        # a box holding every generator, with one LP per point
        I = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
        alpha = Fraction(3, 2)
        J = ic_filtration(twist(Adic(I), alpha), 2)
        box = (6, 9, 15)
        order = {
            e: np_value_lp(I.gens, e)
            for e in itertools.product(*(range(b + 1) for b in box))
        }
        for m in (1, 2):
            level = J.level(m)
            assert all(g in order for g in level.gens)
            for e, v in order.items():
                witnessed = any(r * v >= ceil_of(alpha * r * m) for r in range(1, 7))
                assert level.contains_exponent(e) == witnessed == (v >= alpha * m), (m, e)

    def test_twisted_3d_adic_builds_no_power(self):
        # each J_m is the one saturated level {nubar >= 3m/2}, read with no
        # power I^k built
        I = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
        A = Adic(I)
        F = twist(A, Fraction(3, 2))
        J = ic_filtration(F, 3)
        K = k_filtration(F, 3)
        for m in (1, 2, 3):
            assert J.level(m) == K.level(m)
        assert not [k for k in A._cache if k >= 1] and not F._cache

    def test_closure_level_matches_witness_union(self):
        # exact over every witness r: the witness union up to r <= 5 lies
        # inside J_m and reaches it at the least r whose root index is
        # theta*r (theta = m times the product of the twist factors), when
        # there is one and the root is not a shifted stair; every generator
        # of J_m has a witness through the root, and no generator of
        # K_m outside J_m has one up to r = 3000
        rnd = random.Random(89)
        scales = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(5, 3),
                  sqrt(2), ExactReal(1, 1, 2, 2)]
        gaps = 0
        for i in range(90):
            kind = i % 3
            n = rnd.choice((2, 3))
            if kind == 0:
                F = StairOneVar(rnd.choice(scales), rnd.randint(0, 8))
            elif kind == 1:
                gens = [tuple(rnd.randint(0, 2) for _ in range(n))
                        for _ in range(rnd.randint(1, 2))]
                gens += [tuple(rnd.randint(1, 3) if k == j else 0 for k in range(n))
                         for j in range(n)]
                F = Adic(MonomialIdeal(n, gens))
            else:
                F = DV(*[(tuple(rnd.randint(1, 3) for _ in range(n)), rnd.choice(scales))
                         for _ in range(rnd.randint(1, 2))])
            theta = as_exact(1)
            for _ in range(rnd.randint(kind == 0, 2)):
                alpha = rnd.choice(scales)
                F = twist(F, alpha)
                theta = theta * alpha
            m, r_max = rnd.randint(1, 2), rnd.randint(1, 5)
            J = F.closure_level(m)
            K = F.saturated_level(m)
            assert closure_level_by_witnesses(F, m, r_max) <= J, (F, m, r_max)
            root, _ = _root_index(F, 1)
            if not (isinstance(root, StairOneVar) and root.c):
                exact = [r for r in range(1, 10)
                         if _root_index(F, r * m)[1] == theta * m * r]
                if exact:
                    assert closure_level_by_witnesses(F, m, exact[0]) == J == K, (F, m)
            for e in J.gens:
                assert _has_witness(F, e, m, 3000), (F, m, e)
            outside = [e for e in K.gens if not J.contains_exponent(e)]
            for e in outside:
                assert not _has_witness(F, e, m, 3000), (F, m, e)
            gaps += bool(outside)
        assert gaps  # some chain has J_m strictly inside K_m

    @pytest.mark.parametrize(
        "F",
        [
            # q = min over r of ceil((ceil(1*r) + 3)/r) = 2, at r >= 3; x lies
            # in K_1 = (x) but is never integral
            twist(StairOneVar(1, 3), 1),
            # level k of the stair is x^(2*ceil(k/2) + 3): nubar(x^q) = q again
            twist(StairOneVar(2, 3), Fraction(1, 2)),
            # the stair's own form: r*q >= r + 3 needs q >= 2
            StairOneVar(1, 3),
        ],
    )
    def test_twisted_stair(self, F):
        assert ic_filtration(F, 1).level(1).gens == ((2,),)
        assert k_filtration(F, 1).level(1).gens == ((1,),)

    def test_adic_level_two_frozen(self):
        J = ic_filtration(Adic(BOX), 2)
        assert J.level(2).gens == (
            (4, 0),
            (2, 3),
            (3, 2),
            (0, 6),
            (1, 5),
        )

    def test_dv_fixed(self):
        F = DV(((1, 2), 1), ((2, 1), Fraction(3, 2)))
        J = ic_filtration(F, 3)
        for m in range(4):
            assert J.level(m) == F.level(m)

    def test_stair_exact(self):
        J = ic_filtration(StairOneVar(1, 1), 3)
        assert [J.level(m).gens[0][0] for m in (1, 2, 3)] == [2, 3, 4]

    def test_stair_no_offset(self):
        J = ic_filtration(StairOneVar(Fraction(3, 2), 0), 3)
        assert [J.level(m).gens[0][0] for m in (1, 2, 3)] == [2, 3, 5]

    def test_rational_twist_reaches_saturation(self):
        F = twist(DV(((1, 1), 1)), Fraction(3, 2))
        J = ic_filtration(F, 2)
        K = k_filtration(F, 2)
        for m in (1, 2):
            assert J.level(m) == K.level(m)

    def test_witness_bound_sensitivity(self):
        # alpha = 1/2, scale 2: the level-1 witness for x and y needs r = 2,
        # which the exact level includes
        T = twist(DV(((1, 1), 2)), Fraction(1, 2))
        assert ic_filtration(T, 1).level(1).gens == ((0, 1), (1, 0))
        assert closure_level_by_witnesses(T, 1, 1).gens == ((0, 2), (1, 1), (2, 0))
        assert closure_level_by_witnesses(T, 1, 2) == T.closure_level(1)

    def test_irrational_boundary_reported(self):
        # nubar(x^e) = |e|, and no witness r reaches ceil(sqrt(2)*r*m) /
        # (sqrt(2)*r) = m, so J_m is the strict level {|e| > m}
        a = ExactReal(0, 1, 2, 2)  # sqrt(2)/2
        T = twist(DV(((1, 1), a)), sqrt(2))
        J = ic_filtration(T, 2)
        K = k_filtration(T, 2)
        assert J.level(1).gens == ((0, 2), (1, 1), (2, 0))
        assert K.level(1).gens == ((0, 1), (1, 0))
        assert J.level(1) <= K.level(1) and J.level(1) != K.level(1)
        assert J.level(2).gens == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_sandwich_between_levels_and_saturation(self):
        engines = [
            Adic(BOX),
            twist(Adic(BOX), Fraction(2, 3)),
            twist(DV(((1, 2), 1), ((2, 1), 1)), sqrt(2)),
        ]
        for F in engines:
            J = ic_filtration(F, 3)
            K = k_filtration(F, 3)
            for m in range(4):
                for g in F.level(m).gens:
                    assert J.level(m).contains_exponent(g), (F, m)
                for g in J.level(m).gens:
                    assert K.level(m).contains_exponent(g), (F, m)

    def test_inconclusive_points_lie_in_saturation_gap(self):
        # the monomials of K_m outside J_m lie on the boundary nubar = m
        # and are not integral: no witness r reaches them
        a = ExactReal(0, 1, 2, 2)
        T = twist(DV(((1, 1), a)), sqrt(2))
        J = ic_filtration(T, 2)
        K = k_filtration(T, 2)
        assert J.level(1).gens == ((0, 2), (1, 1), (2, 0))
        assert J.level(2).gens == ((0, 3), (1, 2), (2, 1), (3, 0))
        for m in (1, 2):
            gap = [e for e in K.level(m).gens if not J.level(m).contains_exponent(e)]
            assert gap == list(K.level(m).gens)
            for e in gap:
                assert nubar(T, mono(e)).value == m
                assert not _has_witness(T, e, m, 3000)

    def test_table_input_rejected(self):
        with pytest.raises(PreconditionError):
            ic_filtration(Table({1: BOX}, 1), 1)

    def test_bad_parameters(self):
        for m_max in (0, -1):
            with pytest.raises(PreconditionError):
                ic_filtration(Adic(BOX), m_max)


class TestTwistOverTable:
    """A twist answers through its base, so over a table it keeps the
    table's bounds and its refusals."""

    T = Table({1: BOX, 2: BOX * BOX}, 2)

    def test_nubar_is_base_bound_over_alpha(self):
        r = nubar(twist(self.T, 2), mono((2, 0)))
        assert r.kind == "lower_bound" and r.witness_n == 1 and r.truncated
        assert r.value.as_fraction() == Fraction(1, 2)
        assert str(r) == ">= 1/2 (witness n=1 truncated)"

    def test_no_saturated_levels(self):
        with pytest.raises(PreconditionError, match="saturated levels"):
            k_filtration(twist(self.T, 2), 1)

    def test_value_has_no_closed_form(self):
        res = filtration_value((1, 1), twist(self.T, 2), 1)
        assert res.exact is None and res.upper.as_fraction() == 4

    @pytest.mark.parametrize("m_max", [2, 12])
    def test_no_closure_levels_and_nothing_built(self, m_max):
        # refused before any level is read, within the horizon or past it
        T = Table({1: BOX, 2: BOX * BOX}, 2)
        G = twist(T, 1)
        with pytest.raises(PreconditionError, match="integral closure levels"):
            ic_filtration(G, m_max)
        assert not T._cache and not G._cache


class TestReesGradedIntegral:
    @pytest.mark.parametrize(
        "alpha,c,f_ord,n,want",
        [
            # closed levels: membership means integrality
            (1, 0, 2, 2, True),
            (1, 0, 1, 2, False),
            (Fraction(3, 2), 0, 3, 2, True),
            (Fraction(3, 2), 0, 2, 1, True),
            (Fraction(3, 2), 0, 1, 1, False),
            # offset breaks the boundary case
            (1, 1, 2, 2, False),
            (Fraction(1, 2), 1, 1, 2, False),
            (Fraction(2, 3), 1, 2, 3, False),
            (1, 1, 3, 2, True),
            # irrational threshold: the ceiling element is integral
            (sqrt(2), 1, 2, 1, True),
            (sqrt(2), 1, 3, 2, True),
            (sqrt(2), 1, 1, 1, False),
        ],
    )
    def test_cases(self, alpha, c, f_ord, n, want):
        assert rees_graded_integral_1var(alpha, c, f_ord, n) is want

    def test_witness_agrees_with_predicate(self):
        cases = [
            (1, 0, 2, 2),
            (Fraction(1, 2), 1, 1, 2),
            (sqrt(2), 1, 2, 1),
            (Fraction(5, 3), 2, 4, 2),
            (Fraction(5, 3), 2, 7, 4),
        ]
        for alpha, c, f_ord, n in cases:
            d = rees_integral_witness_1var(alpha, c, f_ord, n)
            member = rees_graded_integral_1var(alpha, c, f_ord, n)
            assert (d is not None) == member, (alpha, c, f_ord, n)
            if d is not None:
                lhs = d * f_ord
                rhs = ceil_of(as_exact(alpha) * (n * d)) + c
                assert lhs >= rhs
                for smaller in range(1, d):
                    assert smaller * f_ord < ceil_of(
                        as_exact(alpha) * (n * smaller)
                    ) + c

    def test_witness_smallest_by_scan(self):
        rnd = random.Random(73)
        for _ in range(80):
            alpha = Fraction(rnd.randint(1, 6), rnd.randint(1, 4))
            c = rnd.randint(0, 3)
            n = rnd.randint(1, 5)
            f_ord = rnd.randint(1, 12)
            d = rees_integral_witness_1var(alpha, c, f_ord, n)
            scan = None
            for cand in range(1, 400):
                if cand * f_ord >= ceil_of(as_exact(alpha) * (n * cand)) + c:
                    scan = cand
                    break
            assert d == scan, (alpha, c, f_ord, n)
        for _ in range(80):  # quadratic slopes (p + q sqrt 2)/r
            alpha = ExactReal(rnd.randint(0, 3), rnd.randint(1, 2), 2, rnd.randint(1, 3))
            c = rnd.randint(0, 3)
            n = rnd.randint(1, 5)
            f_ord = rnd.randint(1, 12)
            d = rees_integral_witness_1var(alpha, c, f_ord, n)
            scan = next((cand for cand in range(1, 400)
                         if cand * f_ord >= ceil_of(alpha * (n * cand)) + c), None)
            assert d == scan, (alpha, c, f_ord, n)

    def test_membership_is_power_membership_in_stair(self):
        # d-th power of x^f_ord lies in level n*d of the stair filtration
        rnd = random.Random(79)
        for _ in range(40):
            alpha = Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
            c = rnd.randint(0, 2)
            n = rnd.randint(1, 4)
            f_ord = rnd.randint(1, 10)
            S = StairOneVar(alpha, c)
            d = rees_integral_witness_1var(alpha, c, f_ord, n)
            if d is not None:
                assert S.level(n * d).contains_exponent((d * f_ord,))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rees_graded_integral_1var(0, 0, 1, 1)
        with pytest.raises(PreconditionError):
            rees_graded_integral_1var(1, -1, 1, 1)
        with pytest.raises(PreconditionError):
            rees_graded_integral_1var(1, 0, 0, 1)
        with pytest.raises(PreconditionError):
            rees_graded_integral_1var(1, 0, 1, 0)


class TestAsymptoticConsistency:
    def test_nubar_dominates_order_ratio(self):
        # nubar(f) >= ord(f^k)/k for every k (superadditive limit)
        F = Adic(BOX)
        f = mono((1, 1))
        v = nubar(F, f).value
        for k in range(1, 8):
            fk = mono((k, k))
            assert as_exact(F.order(fk)) / k <= v

    def test_adic_nubar_equals_power_order_limit(self):
        # every ratio ord(f^k)/k sits below the limit, and the limit is
        # attained at some k up to the largest facet constant
        rnd = random.Random(83)
        for _ in range(10):
            gens = [(rnd.randint(1, 3), 0), (0, rnd.randint(1, 3))]
            gens += [
                (rnd.randint(1, 3), rnd.randint(1, 3))
                for _ in range(rnd.randint(0, 2))
            ]
            I = MonomialIdeal(2, gens)
            F = Adic(I)
            e = (rnd.randint(1, 3), rnd.randint(1, 3))
            v = nubar(F, mono(e)).value.as_fraction()
            hit = False
            for k in range(1, 19):
                o = adic_order(I.gens, tuple(k * c for c in e), cap=20 * k)
                assert Fraction(o, k) <= v, (gens, e, k)
                if Fraction(o, k) == v:
                    hit = True
                    break
            assert hit, (gens, e, v)

    def test_twist_layers_multiply(self):
        # twisting by alpha then beta divides nubar by alpha*beta
        F = DV(((1, 2), 1), ((2, 1), 1))
        f = mono((1, 1))
        base = nubar(F, f).value
        T = twist(twist(F, Fraction(3, 2)), sqrt(2))
        got = nubar(T, f).value
        assert got == base / Fraction(3, 2) / sqrt(2)
