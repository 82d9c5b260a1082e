import itertools
import random
from fractions import Fraction

import pytest

from samfilt import (
    INF,
    Adic,
    DimensionMismatchError,
    DiscreteValued,
    ExactReal,
    HorizonExceededError,
    NotPrimaryError,
    PreconditionError,
    StairOneVar,
    Table,
    Twist,
    sqrt,
)
from samfilt.monomial import (
    MonomialIdeal,
    integral_closure,
    newton_facets,
    np_threshold_level,
)
from samfilt.exactnum import format_scalar
from samfilt.multiplicity import (
    colength,
    filtration_value,
    multiplicity_estimate,
    multiplicity_exact,
    saturation_check,
)
from samfilt.valuation import MonomialValuation

from oracles import (
    brute_colength,
    dv_level_members,
    dv_multiplicity_ie,
    dv_value_limit_lp,
    minimal_points,
)


def P(w, a):
    return (MonomialValuation(tuple(w)), a)


def DV(*pairs):
    return DiscreteValued([P(w, a) for w, a in pairs])


BOX = MonomialIdeal(2, [(2, 0), (0, 3)])


class TestColength:
    def test_box(self):
        assert colength(BOX) == 6

    def test_maximal_ideal_powers(self):
        m2 = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert colength(m2) == 3

    def test_one_var(self):
        assert colength(MonomialIdeal(1, [(5,)])) == 5

    def test_unit_ideal(self):
        assert colength(MonomialIdeal(2, [(0, 0)])) == 0

    def test_three_var_corner(self):
        gens = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert colength(MonomialIdeal(3, gens)) == brute_colength(gens)

    def test_three_var_staircase(self):
        gens = [(3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)]
        assert colength(MonomialIdeal(3, gens)) == brute_colength(gens)

    def test_not_primary(self):
        with pytest.raises(NotPrimaryError):
            colength(MonomialIdeal(2, [(2, 0)]))

    def test_zero_ideal_not_primary(self):
        with pytest.raises(NotPrimaryError):
            colength(MonomialIdeal(2, []))

    def test_random_vs_brute_2d(self):
        rnd = random.Random(211)
        for _ in range(60):
            gens = [(rnd.randint(1, 7), 0), (0, rnd.randint(1, 7))]
            gens += [
                (rnd.randint(0, 7), rnd.randint(0, 7))
                for _ in range(rnd.randint(0, 4))
            ]
            I = MonomialIdeal(2, gens)
            assert colength(I) == brute_colength(gens), gens

    def test_random_vs_brute_3d(self):
        rnd = random.Random(223)
        for _ in range(25):
            gens = [
                (rnd.randint(1, 5), 0, 0),
                (0, rnd.randint(1, 5), 0),
                (0, 0, rnd.randint(1, 5)),
            ]
            gens += [
                tuple(rnd.randint(0, 5) for _ in range(3))
                for _ in range(rnd.randint(0, 3))
            ]
            I = MonomialIdeal(3, gens)
            assert colength(I) == brute_colength(gens), gens


class TestMultiplicityExact:
    def test_single_row(self):
        assert multiplicity_exact(DV(((1, 2), 1))).as_fraction() == Fraction(1, 2)

    def test_two_rows(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        assert multiplicity_exact(F).as_fraction() == Fraction(2, 3)

    def test_all_ones(self):
        assert multiplicity_exact(DV(((1, 1), 1))).as_fraction() == 1

    def test_scaling_power_law(self):
        # doubling the threshold scales the complement region by 2^d
        assert multiplicity_exact(DV(((1, 1), 2))).as_fraction() == 4

    def test_irrational_threshold(self):
        assert multiplicity_exact(DV(((1, 1), sqrt(2)))).as_fraction() == 2

    def test_one_var(self):
        assert multiplicity_exact(DV(((2,), 1))).as_fraction() == Fraction(1, 2)

    def test_three_vars_single(self):
        assert multiplicity_exact(DV(((1, 1, 1), 1))).as_fraction() == 1

    def test_three_vars_nested(self):
        F = DV(((1, 1, 1), 1), ((2, 1, 1), 1))
        assert multiplicity_exact(F).as_fraction() == 1

    def test_three_vars_crossing(self):
        F = DV(((1, 1, 2), 1), ((2, 1, 1), 1))
        got = multiplicity_exact(F).as_fraction()
        # cross-check against the level-colength limit
        _, series = multiplicity_estimate(F, 60)
        n, c = series.samples[-1]
        approx = Fraction(6 * c, n**3)
        assert abs(approx - got) < Fraction(1, 4), (got, approx)

    def test_repeated_plane_counted_once(self):
        # copies of one cut, literally or up to a common factor of (w, a),
        # leave the region unchanged
        assert multiplicity_exact(DV(((1, 1, 1), 1), ((1, 1, 1), 1))).as_fraction() == 1
        F = DV(((1, 1, 2), 1), ((2, 2, 4), 2))
        assert multiplicity_exact(F).as_fraction() == Fraction(1, 2)
        F = DV(((1, 2), 1), ((2, 4), 2), ((2, 1), 1), ((2, 1), 1))
        assert multiplicity_exact(F).as_fraction() == Fraction(2, 3)

    def test_matches_estimate_2d(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        val, _ = multiplicity_estimate(F, 240)
        assert abs(val - Fraction(2, 3)) < Fraction(1, 50)

    def test_four_vars(self):
        # one pair: a^d / prod(w); a pair implied by another changes nothing
        assert multiplicity_exact(DV(((1, 1, 1, 1), 1))).as_fraction() == 1
        assert multiplicity_exact(DV(((1, 2, 3, 4), 2))).as_fraction() == Fraction(2, 3)
        F = DV(((1, 1, 1, 1), 1), ((2, 1, 1, 1), 1))
        assert multiplicity_exact(F).as_fraction() == 1
        # 24 (1/48 + 1/48 - 1/72): the cut x2 + x3 = s leaves a quadrilateral
        # of area (1 - s)^2 / 6 in the common part
        F = DV(((1, 1, 1, 2), 1), ((2, 1, 1, 1), 1))
        assert multiplicity_exact(F).as_fraction() == Fraction(2, 3)
        # the normalized colengths come down towards it from above
        est6, _ = multiplicity_estimate(F, 6)
        est12, _ = multiplicity_estimate(F, 12)
        assert est6 > est12 > Fraction(2, 3)

    def test_only_tables_rejected(self):
        tab = Table({1: MonomialIdeal(2, [(1, 0), (0, 1)])}, 1)
        for F in (tab, Twist(tab, 2)):
            with pytest.raises(PreconditionError, match="exact engine"):
                multiplicity_exact(F)
        assert multiplicity_exact(Adic(BOX)).as_fraction() == 6

    def test_random_matches_inclusion_exclusion(self):
        rnd = random.Random(601)
        for case in range(60):
            d = 1 + case % 3
            pairs = [
                (
                    tuple(rnd.randint(1, 5) for _ in range(d)),
                    Fraction(rnd.randint(1, 6), rnd.randint(1, 3)),
                )
                for _ in range(rnd.randint(1, 6 if d < 3 else 4))
            ]
            if case % 4 == 0:
                pairs = [(w, a * sqrt(2)) for w, a in pairs]
            got = multiplicity_exact(DV(*pairs))
            assert got == dv_multiplicity_ie(pairs), pairs


class TestMultiplicityEngines:
    def test_adic_hand_worked(self):
        cases = [
            (2, [(2, 0), (0, 3)], 6),
            (2, [(4, 0), (2, 1), (1, 3), (0, 5)], 14),
            (3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)], 30),
            (1, [(5,)], 5),
        ]
        for n, gens, want in cases:
            assert multiplicity_exact(Adic(MonomialIdeal(n, gens))) == want, gens

    def test_adic_maximal_ideal_powers(self):
        for d in range(1, 5):
            for k in range(1, 4):
                gens = [e for e in itertools.product(range(k + 1), repeat=d) if sum(e) == k]
                assert multiplicity_exact(Adic(MonomialIdeal(d, gens))) == k**d, (d, k)

    def test_adic_unit_and_not_primary(self):
        assert multiplicity_exact(Adic(MonomialIdeal.unit(2))) == 0
        for I in (MonomialIdeal(2, [(1, 1)]), MonomialIdeal(2, [(2, 0)]), MonomialIdeal.zero(2)):
            with pytest.raises(NotPrimaryError):
                multiplicity_exact(Adic(I))

    def test_adic_equals_dv_on_its_newton_polyhedron(self):
        # NP(I) = {x >= 0 : l . x >= c over the facets}, with l > 0 when I is
        # primary, so both engines see the same polyhedron
        rnd = random.Random(607)
        for case in range(45):
            n = 2 + case % 3
            gens = [tuple(rnd.randint(1, 6) if k == j else 0 for k in range(n)) for j in range(n)]
            gens += [tuple(rnd.randint(0, 4) for _ in range(n)) for _ in range(rnd.randint(0, 4))]
            I = MonomialIdeal(n, gens)
            if I.is_unit:
                continue
            F = DiscreteValued(
                [(MonomialValuation(f[:-1]), f[-1]) for f in newton_facets(I)]
            )
            assert multiplicity_exact(Adic(I)) == multiplicity_exact(F), gens

    def test_twist_scales_by_alpha_to_the_d(self):
        assert multiplicity_exact(Twist(DV(((1, 1, 1), 1)), Fraction(3, 2))) == Fraction(27, 8)
        assert multiplicity_exact(Twist(Adic(BOX), sqrt(2))) == 12
        inner = Twist(DV(((1, 2), 1), ((2, 1), 1)), 2)
        assert multiplicity_exact(Twist(inner, Fraction(1, 3))) == Fraction(2, 3) * Fraction(4, 9)

    def test_stair_is_alpha(self):
        assert multiplicity_exact(StairOneVar(Fraction(3, 2), 1)) == Fraction(3, 2)
        assert multiplicity_exact(StairOneVar(sqrt(2), 0)) == sqrt(2)
        assert multiplicity_exact(Twist(StairOneVar(Fraction(3, 2), 1), 2)) == 3


class TestMultiplicityEstimate:
    def test_adic_maximal(self):
        val, series = multiplicity_estimate(
            Adic(MonomialIdeal(2, [(1, 0), (0, 1)])), 50
        )
        assert val == Fraction(51, 50)
        assert series.samples[0] == (1, 1)
        assert series.samples[-1] == (50, 1275)

    def test_dv_all_ones(self):
        val, _ = multiplicity_estimate(DV(((1, 1), 1)), 100)
        assert val == Fraction(101, 100)

    def test_stair_one_var(self):
        val, series = multiplicity_estimate(StairOneVar(Fraction(3, 2), 1), 10)
        assert val == Fraction(8, 5)
        assert [c for _, c in series.samples] == [3, 4, 6, 7, 9, 10, 12, 13, 15, 16]

    def test_csv(self):
        _, series = multiplicity_estimate(
            Adic(MonomialIdeal(2, [(1, 0), (0, 1)])), 3
        )
        assert series.to_csv().splitlines() == [
            "n,colength,normalized",
            "1,1,2",
            "2,3,3/2",
            "3,6,4/3",
        ]

    def test_json_shape(self):
        _, series = multiplicity_estimate(DV(((1, 1), 1)), 4)
        assert series.to_json() == {
            "d": 2,
            "samples": [[1, 1], [2, 3], [3, 6], [4, 10]],
        }

    def test_sampling_capped(self):
        _, series = multiplicity_estimate(
            Adic(MonomialIdeal(2, [(1, 0), (0, 1)])), 300
        )
        assert len(series.samples) == 100
        assert series.samples[-1][0] == 300

    def test_adic_box_converges(self):
        # colength((x^2,y^3)^n)*2/n^2 -> 2*colength-density of the region
        val, _ = multiplicity_estimate(Adic(BOX), 120)
        assert abs(val - 6) < Fraction(1, 8)

    def test_table_beyond_horizon(self):
        tab = Table(
            {
                1: MonomialIdeal(2, [(1, 0), (0, 1)]),
                2: MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]),
            },
            2,
        )
        val, _ = multiplicity_estimate(tab, 2)
        assert val == Fraction(3, 2)
        with pytest.raises(HorizonExceededError):
            multiplicity_estimate(tab, 3)

    def test_n_max_positive(self):
        with pytest.raises(PreconditionError):
            multiplicity_estimate(DV(((1, 1), 1)), 0)

    def test_non_primary_level(self):
        with pytest.raises(NotPrimaryError):
            multiplicity_estimate(Adic(MonomialIdeal(2, [(1, 1)])), 3)


class TestFiltrationValue:
    def test_dv_exact(self):
        res = filtration_value(
            MonomialValuation((1, 2)), DV(((1, 2), 1), ((2, 1), 1)), 10
        )
        assert res.exact.as_fraction() == 1
        assert str(res) == "1/1 (exact; running inf 1/1 at n=1)"
        assert res.to_json() == {"exact": "1/1", "upper": "1/1", "upper_n": 1}

    def test_dv_fractional_optimum(self):
        # min e1+e2 over e1+2e2 >= 1, 2e1+e2 >= 1 is hit at (1/3, 1/3)
        res = filtration_value(
            MonomialValuation((1, 1)), DV(((1, 2), 1), ((2, 1), 1)), 8
        )
        assert res.exact.as_fraction() == Fraction(2, 3)

    def test_adic_is_ideal_value(self):
        res = filtration_value(MonomialValuation((1, 1)), Adic(BOX), 10)
        assert res.exact.as_fraction() == 2
        assert res.to_json() == {"exact": "2/1", "upper": "2/1", "upper_n": 1}

    def test_adic_unit_and_zero_ideals(self):
        # every level of the zero ideal is (0): v is +inf on all of them
        res = filtration_value(MonomialValuation((1, 1)), Adic(MonomialIdeal.zero(2)), 3)
        assert res.exact is INF and res.upper is INF and res.upper_n == 1
        assert str(res) == "inf (exact; running inf inf at n=1)"
        assert res.to_json() == {"exact": "inf", "upper": "inf", "upper_n": 1}
        res = filtration_value(MonomialValuation((1, 1)), Adic(MonomialIdeal.unit(2)), 3)
        assert res.to_json() == {"exact": "0/1", "upper": "0/1", "upper_n": 1}

    def test_dv_matches_lp_oracle(self):
        # the least value over the vertices of P equals the LP optimum
        rnd = random.Random(607)
        scales = [Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(5, 4),
                  sqrt(2), ExactReal(1, 1, 2, 2), ExactReal(3, 2, 2, 5)]
        for case in range(330):
            d = 1 + case % 3
            pairs = [
                (tuple(rnd.randint(1, 5) for _ in range(d)), rnd.choice(scales))
                for _ in range(rnd.randint(1, 5))
            ]
            w = tuple(rnd.randint(1, 6) for _ in range(d))
            got = DV(*pairs).value_limit(MonomialValuation(w))
            want = dv_value_limit_lp(pairs, w)
            assert got == want and format_scalar(got) == format_scalar(want), (pairs, w)

    def test_stair(self):
        res = filtration_value(
            MonomialValuation((2,)), StairOneVar(Fraction(3, 2), 1), 10
        )
        assert res.exact.as_fraction() == 3
        assert res.to_json() == {"exact": "3/1", "upper": "16/5", "upper_n": 10}

    def test_twist_scales(self):
        inner = DV(((1, 1), 1))
        res = filtration_value(
            MonomialValuation((1, 2)), Twist(inner, Fraction(3, 2)), 10
        )
        assert res.exact.as_fraction() == Fraction(3, 2)

    def test_twist_irrational(self):
        res = filtration_value(
            MonomialValuation((1, 1)), Twist(DV(((1, 1), 1)), sqrt(2)), 6
        )
        assert res.exact == sqrt(2)
        assert res.to_json() == {
            "exact": "(0+1*sqrt(2))/1",
            "upper": "3/2",
            "upper_n": 2,
        }

    def test_table_upper_only(self):
        tab = Table(
            {
                1: MonomialIdeal(2, [(1, 0), (0, 1)]),
                2: MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]),
            },
            2,
        )
        res = filtration_value(MonomialValuation((1, 1)), tab, 2)
        assert res.exact is None
        assert str(res) == "<= 1/1 (running inf at n=1)"
        assert res.to_json() == {"exact": None, "upper": "1/1", "upper_n": 1}

    def test_upper_bounds_exact(self):
        rnd = random.Random(227)
        for _ in range(25):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 4), rnd.randint(1, 2)),
                )
                for _ in range(rnd.randint(1, 3))
            ]
            F = DV(*pairs)
            v = MonomialValuation(tuple(rnd.randint(1, 4) for _ in range(2)))
            res = filtration_value(v, F, 6)
            assert res.exact is not None
            assert res.upper >= res.exact, (pairs, v.w)
            # running inf matches a direct scan of the recorded level
            lvl = F.level(res.upper_n)
            best = min(v.value_exponent(e) for e in lvl.gens)
            assert res.upper.as_fraction() == Fraction(best, res.upper_n)

    def test_n_max_positive(self):
        with pytest.raises(PreconditionError):
            filtration_value(MonomialValuation((1, 1)), DV(((1, 1), 1)), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            filtration_value(MonomialValuation((1, 1, 1)), DV(((1, 1), 1)), 3)
        with pytest.raises(DimensionMismatchError):
            saturation_check(DV(((1, 1), 1)), [(1, 1, 1)], 3)


class TestSaturationCheck:
    def test_adic_rows(self):
        v = MonomialValuation((3, 2))
        rep = saturation_check(Adic(BOX), [v], 4)
        assert [x.as_fraction() for x in rep.values] == [6]
        assert not rep.all_equal()
        row1 = rep.rows[0]
        assert row1.sat.gens == ((2, 0), (0, 3), (1, 2))
        for row in rep.rows:
            assert row.contained and not row.equal
            # outer approximation agrees with both saturation constructions
            assert row.sat == np_threshold_level(BOX, row.n)
            assert row.sat == integral_closure(BOX ** row.n)

    def test_dv_defining_valuations_appended(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        rep = saturation_check(F, [], 3)
        assert [v.w for v in rep.valuations] == [(1, 2), (2, 1)]
        assert [x.as_fraction() for x in rep.values] == [1, 1]
        assert rep.all_equal()
        for row in rep.rows:
            assert row.equal and row.contained
            assert row.sat == F.level(row.n)

    def test_dv_extra_valuation_prepended(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        rep = saturation_check(F, [MonomialValuation((1, 1))], 2)
        assert [v.w for v in rep.valuations] == [(1, 1), (1, 2), (2, 1)]
        assert [x.as_fraction() for x in rep.values] == [Fraction(2, 3), 1, 1]

    def test_sat_is_valuation_intersection(self):
        v = MonomialValuation((3, 2))
        rep = saturation_check(Adic(BOX), [v], 3)
        for row in rep.rows:
            want = minimal_points(
                [
                    e
                    for e in itertools.product(range(20), repeat=2)
                    if 3 * e[0] + 2 * e[1] >= 6 * row.n
                ]
            )
            assert sorted(row.sat.gens) == want

    def test_to_json(self):
        F = DV(((1, 1), 1))
        rep = saturation_check(F, [], 2)
        assert rep.to_json() == {
            "valuations": [[1, 1]],
            "values": ["1/1"],
            "rows": [
                {
                    "n": 1,
                    "sat": {"n": 2, "gens": [[0, 1], [1, 0]]},
                    "contained": True,
                    "equal": True,
                },
                {
                    "n": 2,
                    "sat": {"n": 2, "gens": [[0, 2], [1, 1], [2, 0]]},
                    "contained": True,
                    "equal": True,
                },
            ],
        }

    def test_value_zero_gives_unit_rows(self):
        # v is 0 on the unit ideal, so Sat_n is cut out by no row
        rep = saturation_check(Adic(MonomialIdeal.unit(2)), [MonomialValuation((1, 2))], 3)
        assert [x.as_fraction() for x in rep.values] == [0]
        assert [r.sat for r in rep.rows] == [MonomialIdeal.unit(2)] * 3
        assert rep.all_equal()

    def test_adic_needs_valuation(self):
        with pytest.raises(PreconditionError):
            saturation_check(Adic(BOX), [], 2)

    def test_n_max_positive(self):
        with pytest.raises(PreconditionError):
            saturation_check(DV(((1, 1), 1)), [], 0)

    def test_equal_iff_levels_match(self):
        # a normal ideal: (x,y)^2 has all powers integrally closed
        I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        rep = saturation_check(
            Adic(I), [MonomialValuation((1, 1))], 3
        )
        assert rep.all_equal()
        for row in rep.rows:
            assert row.sat == I ** row.n
