import itertools
import random
from fractions import Fraction

import pytest

from samfilt import (
    Adic,
    AtLeast,
    ConstructionError,
    DimensionMismatchError,
    DiscreteValued,
    HorizonExceededError,
    MonomialIdeal,
    ParseError,
    PlusInfinity,
    PreconditionError,
    StairOneVar,
    SupportPoly,
    Table,
    Twist,
    bracket_twist,
    filtration_from_json,
    ic_filtration,
    k_filtration,
    newton_facets,
    nubar,
    parse_scalar,
    sqrt,
    twist,
)
from samfilt.exactnum import format_scalar
from samfilt.valuation import MonomialValuation

from oracles import adic_order, adic_order_dp, dv_level_members, dv_order, minimal_points

BOX = MonomialIdeal(2, [(2, 0), (0, 3)])
xy = SupportPoly.monomial((1, 1))


def mono(*e):
    return SupportPoly.monomial(tuple(e))


def DV(*pairs):
    return DiscreteValued(
        [(MonomialValuation(tuple(w)), a) for w, a in pairs]
    )


class TestLevelContractAllEngines:
    def engines(self):
        return [
            Adic(BOX),
            DV(((1, 2), 1), ((2, 1), 1)),
            DV(((3, 2), Fraction(3, 2))),
            StairOneVar(Fraction(3, 2), 1),
            twist(Adic(BOX), Fraction(2, 3)),
            twist(DV(((1, 1), 1)), sqrt(2)),
        ]

    def test_level_zero_is_unit(self):
        for F in self.engines():
            assert F.level(0).is_unit, F

    def test_levels_descend(self):
        for F in self.engines():
            for m in range(0, 6):
                big, small = F.level(m), F.level(m + 1)
                for g in small.gens:
                    assert big.contains_exponent(g), (F, m)

    def test_product_rule(self):
        for F in self.engines():
            for a in range(0, 4):
                for b in range(0, 4):
                    prod = F.level(a) * F.level(b)
                    target = F.level(a + b)
                    for g in prod.gens:
                        assert target.contains_exponent(g), (F, a, b)

    def test_negative_level_rejected(self):
        for F in self.engines():
            with pytest.raises(PreconditionError):
                F.level(-1)

    def test_order_of_zero_is_infinite(self):
        for F in self.engines():
            n = F.n
            assert isinstance(F.order(SupportPoly.zero(n)), PlusInfinity)

    def test_order_dimension_checked(self):
        for F in self.engines():
            bad = SupportPoly.one(F.n + 1)
            with pytest.raises(DimensionMismatchError):
                F.order(bad)

    def test_order_consistent_with_levels(self):
        for F in self.engines():
            for e in itertools.product(range(4), repeat=F.n):
                f = SupportPoly.monomial(e)
                o = F.order(f)
                if isinstance(o, PlusInfinity) or isinstance(o, AtLeast):
                    continue
                assert F.level(o).contains(f), (F, e, o)
                assert not F.level(o + 1).contains(f), (F, e, o)


class TestAdic:
    def test_levels_are_powers(self):
        F = Adic(BOX)
        assert F.level(1) == BOX
        assert F.level(2) == BOX * BOX
        assert F.level(3) == BOX**3

    def test_order_examples(self):
        F = Adic(BOX)
        assert F.order(mono(1, 1)) == 0
        assert F.order(mono(2, 0)) == 1
        assert F.order(mono(3, 3)) == 2
        assert F.order(mono(6, 0)) == 3
        # one window test each, answered by a dive: e0 // 2 + e1 // 3
        assert F.order(mono(3000, 4000)) == 2833
        assert F.order(mono(30001, 40000)) == 28333

    def test_order_of_poly_is_min_over_support(self):
        F = Adic(BOX)
        f = SupportPoly(2, [(6, 0), (1, 1)])
        assert F.order(f) == 0

    def test_order_matches_definition_chasing(self):
        rnd = random.Random(51)
        for _ in range(25):
            gens = [
                (rnd.randint(0, 3), rnd.randint(1, 3))
                for _ in range(rnd.randint(1, 3))
            ]
            gens.append((rnd.randint(1, 3), 0))
            I = MonomialIdeal(2, gens)
            F = Adic(I)
            for _ in range(6):
                e = (rnd.randint(0, 9), rnd.randint(0, 9))
                assert F.order(SupportPoly.monomial(e)) == adic_order(
                    I.gens, e, cap=30
                ), (gens, e)

    def test_order_matches_the_dp_oracle(self):
        # the benchmark's six corners, one per residue class mod (2, 3);
        # two at the foot of the window, order = floor(nubar) - n + 1;
        # then seeded ideals in 1-4 variables, half of them with pure
        # powers added, the rest mostly non-primary
        cases = [(BOX, (200 - i % 2, 225 - i % 3)) for i in range(6)]
        cases += [(MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]), (5, 5, 5)),
                  (MonomialIdeal(4, [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0),
                                     (0, 0, 0, 4)]), (7, 7, 7, 7))]
        rnd = random.Random(18)
        while len(cases) < 2400:
            n = rnd.randint(1, 4)
            gens = [tuple(rnd.randint(0, 4) for _ in range(n))
                    for _ in range(rnd.randint(1, 4))]
            if rnd.random() < 0.5:
                gens += [tuple(rnd.randint(2, 6) * (i == j) for i in range(n))
                         for j in range(n)]
            if all(any(g) for g in gens):
                e = tuple(rnd.randint(0, (40, 40, 16, 9)[n - 1]) for _ in range(n))
                cases.append((MonomialIdeal(n, gens), e))
        assert sum(not I.is_primary() for I, _ in cases) > 500
        for I, e in cases:
            assert Adic(I).order(mono(*e)) == adic_order_dp(I.gens, e), (I, e)

    def test_order_keeps_no_state(self):
        # a test that holds in 2-D, and two that fail in 3-D
        cubes = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        for I, e, want in ((BOX, (3000, 4000), 2833), (cubes, (5, 5, 5), 3)):
            F = Adic(I)
            assert F.order(mono(*e)) == want
            assert vars(F) == {"_cache": {}, "ideal": I, "n": I.n}

    def test_unit_ideal_gives_infinite_order(self):
        F = Adic(MonomialIdeal.unit(2))
        assert F.level(5).is_unit
        assert isinstance(F.order(mono(1, 0)), PlusInfinity)

    def test_zero_ideal(self):
        F = Adic(MonomialIdeal.zero(2))
        assert F.level(1).is_zero
        assert F.order(mono(1, 0)) == 0
        assert isinstance(F.order(SupportPoly.zero(2)), PlusInfinity)

    @pytest.mark.parametrize("query", ["nubar", "k", "ic"])
    @pytest.mark.parametrize("gens", [[(2, 0), (0, 3)], [(2, 0, 0), (0, 3, 0), (1, 1, 1)]])
    def test_facets_wait_for_first_query(self, query, gens):
        # parsing and constructing do no polyhedral work; the first
        # nubar, k or ic query computes the facets and keeps them
        n = len(gens[0])
        doc = {"type": "adic", "ideal": {"n": n, "gens": [list(g) for g in gens]}}
        run = {
            "nubar": lambda F: nubar(F, mono(*([1] * n))),
            "k": lambda F: k_filtration(F, 2),
            "ic": lambda F: ic_filtration(F, 2),
        }[query]
        for F in (filtration_from_json(doc), Adic(MonomialIdeal(n, gens))):
            assert getattr(F.ideal, "_facets", None) is None
            run(F)
            assert F.ideal._facets == newton_facets(F.ideal)


class TestDiscreteValued:
    def test_level_matches_inequalities(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        assert F.level(2).gens == ((0, 2), (1, 1), (2, 0))

    def test_level_brute(self):
        rnd = random.Random(53)
        for _ in range(20):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 6), rnd.randint(1, 3)),
                )
                for _ in range(rnd.randint(1, 3))
            ]
            F = DV(*pairs)
            m = rnd.randint(1, 4)
            members = dv_level_members(pairs, m, (14, 14))
            assert sorted(F.level(m).gens) == minimal_points(members), (pairs, m)

    def test_order_closed_form(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        # ord(x^a y^b) = floor(min(a+2b, 2a+b))
        assert F.order(xy) == 3
        assert F.order(mono(2, 0)) == 2
        assert F.order(mono(0, 5)) == 5

    def test_order_fractional_scale(self):
        F = DV(((3, 2), Fraction(3, 2)))
        # ord = floor((3a+2b) / (3/2))
        assert F.order(mono(1, 1)) == 3  # 5/(3/2) = 10/3
        assert F.order(mono(0, 1)) == 1  # 2/(3/2) = 4/3

    def test_order_brute(self):
        rnd = random.Random(59)
        for _ in range(20):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 6), rnd.randint(1, 3)),
                )
                for _ in range(rnd.randint(1, 3))
            ]
            F = DV(*pairs)
            for _ in range(6):
                e = (rnd.randint(0, 8), rnd.randint(0, 8))
                assert F.order(SupportPoly.monomial(e)) == dv_order(pairs, e), (
                    pairs,
                    e,
                )

    def test_irrational_scale(self):
        F = DV(((1, 1), sqrt(2)))
        # level m: e1+e2 >= ceil(m*sqrt2)
        assert F.level(1).gens == ((0, 2), (1, 1), (2, 0))
        assert F.level(2).gens == ((0, 3), (1, 2), (2, 1), (3, 0))
        # ord(x^2) = floor(2/sqrt2) = floor(sqrt2) = 1
        assert F.order(mono(2, 0)) == 1

    def test_rejects_bad_pairs(self):
        with pytest.raises(PreconditionError):
            DV(((1, 1), 0))
        with pytest.raises(PreconditionError):
            DV(((1, 1), -1))
        with pytest.raises(PreconditionError):
            DiscreteValued([])
        with pytest.raises(DimensionMismatchError):
            DiscreteValued(
                [
                    (MonomialValuation((1, 1)), 1),
                    (MonomialValuation((1, 1, 1)), 1),
                ]
            )


class TestTwist:
    def test_level_is_base_at_ceiling(self):
        F = Adic(BOX)
        T = twist(F, Fraction(3, 2))
        for m in range(6):
            assert T.level(m) == F.level(-((-3 * m) // 2))

    def test_irrational_twist_levels(self):
        T = twist(Adic(BOX), sqrt(2))
        # ceil(sqrt2 * m) for m = 1,2,3 -> 2,3,5
        assert T.level(1) == BOX**2
        assert T.level(2) == BOX**3
        assert T.level(3) == BOX**5

    def test_nested_twists_not_flattened(self):
        F = Adic(BOX)
        a = Fraction(4, 3)
        nested = twist(twist(F, a), a)
        flat = twist(F, a * a)
        # m=1: ceil(4/3 * ceil(4/3)) = ceil(8/3) = 3 vs ceil(16/9) = 2
        assert nested.level(1) == F.level(3)
        assert flat.level(1) == F.level(2)
        assert nested.level(1) != flat.level(1)

    def test_order_is_scaled_floor(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        T = twist(F, Fraction(3, 2))
        # ord_T(f) = floor(ord_F-exact(f)/alpha) with exact rational order...
        # ord_F(xy) = 3; floor(3 / (3/2)) = 2
        assert T.order(xy) == 2

    def test_order_matches_level_membership(self):
        # a chain rounds at every twist: level m of the second reads the
        # root at ceil(2*ceil(m/2)), not at m
        for T in (twist(DV(((1, 1), 1)), sqrt(2)),
                  twist(twist(Adic(BOX), 2), Fraction(1, 2))):
            for e in itertools.product(range(5), repeat=2):
                f = SupportPoly.monomial(e)
                o = T.order(f)
                assert T.level(o).contains(f)
                assert not T.level(o + 1).contains(f)

    def test_alpha_must_be_positive(self):
        with pytest.raises(PreconditionError):
            twist(Adic(BOX), 0)
        with pytest.raises(PreconditionError):
            twist(Adic(BOX), Fraction(-2, 3))

    def test_twist_of_zero_order_stays_zero(self):
        T = twist(Adic(BOX), Fraction(1, 7))
        assert T.order(xy) == 0


class TestBracketTwist:
    def test_scales_the_scale(self):
        F = DV(((1, 2), 1), ((2, 1), Fraction(1, 2)))
        B = bracket_twist(F, Fraction(3, 2))
        assert [(v.w, a.as_fraction()) for v, a in B.pairs] == [
            ((1, 2), Fraction(3, 2)),
            ((2, 1), Fraction(3, 4)),
        ]

    def test_only_discrete_valued(self):
        with pytest.raises(PreconditionError):
            bracket_twist(Adic(BOX), 2)

    def test_level_identity(self):
        # level m of the bracket twist is {e : w.e >= alpha*m*a}
        F = DV(((1, 1), 1))
        B = bracket_twist(F, sqrt(2))
        for m in range(5):
            want = F.level(0) if m == 0 else MonomialIdeal(
                2,
                minimal_points(
                    [
                        e
                        for e in itertools.product(range(12), repeat=2)
                        if e[0] + e[1] >= (sqrt(2) * m).ceil()
                        or e[0] + e[1] == sqrt(2) * m
                    ]
                ),
            )
            assert B.level(m) == want


class TestStairOneVar:
    def test_levels(self):
        S = StairOneVar(Fraction(3, 2), 1)
        assert [S.level(m).gens for m in range(4)] == [
            ((0,),),
            ((3,),),
            ((4,),),
            ((6,),),
        ]

    def test_levels_integer_alpha(self):
        S = StairOneVar(1, 2)
        assert [S.level(m).gens for m in range(4)] == [
            ((0,),),
            ((3,),),
            ((4,),),
            ((5,),),
        ]

    def test_c_zero_level_one_has_no_offset(self):
        S = StairOneVar(2, 0)
        assert S.level(1).gens == ((2,),)
        assert S.level(3).gens == ((6,),)

    def test_order(self):
        S = StairOneVar(Fraction(3, 2), 1)
        assert S.order(mono(5)) == 2
        assert S.order(mono(2)) == 0
        assert S.order(SupportPoly.one(1)) == 0

    def test_order_matches_level_scan(self):
        rnd = random.Random(61)
        for _ in range(20):
            alpha = Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
            c = rnd.randint(0, 3)
            S = StairOneVar(alpha, c)
            for q in range(0, 12):
                f = mono(q)
                o = S.order(f)
                assert S.level(o).contains(f)
                assert not S.level(o + 1).contains(f)

    def test_irrational_alpha(self):
        S = StairOneVar(sqrt(2), 0)
        assert [S.level(m).gens[0][0] for m in range(1, 5)] == [2, 3, 5, 6]

    def test_rejects_bad_params(self):
        with pytest.raises(PreconditionError):
            StairOneVar(0, 1)
        with pytest.raises(PreconditionError):
            StairOneVar(1, -1)


class TestTable:
    def levels(self):
        return {1: BOX, 2: BOX * BOX, 3: BOX**3}

    def test_valid_table(self):
        T = Table(self.levels(), 3)
        assert T.level(2) == BOX * BOX
        assert T.horizon == 3

    def test_level_zero_implicit(self):
        T = Table(self.levels(), 3)
        assert T.level(0).is_unit

    def test_horizon_exceeded(self):
        T = Table(self.levels(), 3)
        with pytest.raises(HorizonExceededError):
            T.level(4)

    def test_must_cover_exactly(self):
        with pytest.raises(ConstructionError):
            Table({1: BOX, 3: BOX**3}, 3)
        with pytest.raises(ConstructionError):
            Table({1: BOX, 2: BOX**2}, 3)

    def test_levels_must_be_ideals(self):
        for levels in ({1: None}, {1: None, 2: BOX**2}, {1: BOX, 2: None}, {1: BOX, 2: (2, 0)}):
            with pytest.raises(ConstructionError):
                Table(levels, len(levels))

    def test_chain_violation_rejected(self):
        with pytest.raises(ConstructionError):
            Table({1: BOX, 2: MonomialIdeal(2, [(1, 0)])}, 2)

    def test_product_violation_rejected(self):
        # I_1 * I_1 not inside I_2
        with pytest.raises(ConstructionError):
            Table(
                {
                    1: MonomialIdeal(2, [(1, 0)]),
                    2: MonomialIdeal(2, [(2, 0)]),
                    3: MonomialIdeal(2, [(9, 0)]),
                },
                3,
            )

    def test_validate_false_skips_checks(self):
        T = Table({1: MonomialIdeal(2, [(1, 0)]), 2: MonomialIdeal(2, [(9, 0)])}, 2, validate=False)
        assert T.level(2).gens == ((9, 0),)

    def test_order_within_horizon(self):
        T = Table(self.levels(), 3)
        assert T.order(mono(2, 0)) == 1
        # (2,3) lies in level 2 = (x^4, x^2 y^3, y^6) but not level 3
        assert T.order(mono(2, 3)) == 2
        assert T.order(mono(1, 1)) == 0

    def test_order_at_horizon_is_lower_bound(self):
        T = Table(self.levels(), 3)
        o = T.order(mono(9, 9))
        assert isinstance(o, AtLeast) and o.bound == 3
        assert str(o) == ">= 3"

    def test_order_matches_linear_scan(self):
        rnd = random.Random(67)
        levels = {m: BOX**m for m in range(1, 9)}
        T = Table(levels, 8)
        for _ in range(30):
            e = (rnd.randint(0, 10), rnd.randint(0, 10))
            o = T.order(SupportPoly.monomial(e))
            scan = 0
            for m in range(1, 9):
                if levels[m].contains_exponent(e):
                    scan = m
                else:
                    break
            if isinstance(o, AtLeast):
                assert scan == 8
            else:
                assert o == scan


class TestFiltrationJson:
    def round_trips(self):
        return [
            Adic(BOX),
            DV(((1, 2), 1), ((2, 1), Fraction(2, 3))),
            DV(((1, 1), sqrt(2))),
            StairOneVar(Fraction(3, 2), 1),
            StairOneVar(sqrt(2), 0),
            twist(Adic(BOX), Fraction(2, 3)),
            twist(twist(Adic(BOX), Fraction(4, 3)), sqrt(2)),
            Table({1: BOX, 2: BOX * BOX}, 2),
        ]

    def test_round_trip_levels(self):
        for F in self.round_trips():
            G = filtration_from_json(F.to_json())
            assert type(G) is type(F)
            top = 2 if isinstance(F, Table) else 4
            for m in range(top + 1):
                assert F.level(m) == G.level(m), F

    def test_twist_json_keeps_nesting(self):
        T = twist(twist(Adic(BOX), Fraction(4, 3)), Fraction(4, 3))
        doc = T.to_json()
        assert doc["type"] == "twist"
        assert doc["base"]["type"] == "twist"

    def test_deep_twist_chain_to_json_and_repr(self):
        # deeper than the recursion limit: both walk the chain in a loop
        F = Adic(BOX)
        alphas = [Fraction(1 + i % 3, 2) for i in range(3000)]
        T = F
        for a in alphas:
            T = Twist(T, a)
        doc = T.to_json()
        for a in reversed(alphas):
            assert doc.keys() == {"type", "alpha", "base"}
            assert doc["type"] == "twist" and doc["alpha"] == format_scalar(a)
            doc = doc["base"]
        assert doc == F.to_json()
        r = repr(T)
        assert r.startswith("Twist(" * 3000 + repr(F) + ", 1/2), 1/1), 3/2), ")
        assert r.endswith("), 3/2)") and r.count(")") == r.count("(")

    def test_twist_repr_nests(self):
        F = Adic(BOX)
        a, b = Fraction(4, 3), sqrt(2)
        assert repr(twist(twist(F, a), b)) == "Twist(Twist(%r, %s), %s)" % (F, a, b)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"type": "nope"},
            {"type": "adic"},
            {"type": "adic", "ideal": {"n": 2}},
            {"type": "dv", "pairs": []},
            {"type": "dv", "pairs": [{"w": [1, 0], "a": "1"}]},
            {"type": "stair1", "alpha": "0", "c": 1},
            {"type": "twist", "alpha": "1/2"},
            {"type": "table", "horizon": 2, "levels": []},
            {"type": "stair1", "alpha": "x", "c": 0},
        ],
    )
    def test_parse_errors(self, doc):
        with pytest.raises(ParseError):
            filtration_from_json(doc)
