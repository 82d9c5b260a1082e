import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from samfilt import (
    DimensionMismatchError,
    MonomialIdeal,
    ParseError,
    PreconditionError,
    SupportPoly,
    as_exact,
    integral_closure,
    monomial_str,
    newton_facets,
    np_threshold_level,
    np_value,
    sqrt,
    system_level,
)
from samfilt import _kernels

from oracles import (
    adic_order,
    closure_members,
    in_monomial_ideal,
    minimal_points,
    np_value_lp,
    power_gens,
    product_by_antichain,
)


def random_ideal(rnd, n, hi):
    """A proper nonzero ideal in n variables; primary only some of the time."""
    while True:
        gens = [
            tuple(rnd.randint(0, hi) for _ in range(n))
            for _ in range(rnd.randint(1, 4))
        ]
        for j in range(n):
            if rnd.random() < 0.5:
                gens.append(tuple(rnd.randint(1, hi) if k == j else 0 for k in range(n)))
        I = MonomialIdeal(n, gens)
        if I.is_proper_nonzero:
            return I


class TestMonomialIdeal:
    def test_canonical_gens(self):
        I = MonomialIdeal(2, [(0, 3), (2, 0), (2, 3), (2, 0)])
        assert I.gens == ((2, 0), (0, 3))

    def test_gens_degree_then_lex(self):
        I = MonomialIdeal(2, [(0, 4), (3, 0), (1, 2), (2, 1)])
        assert I.gens == ((1, 2), (2, 1), (3, 0), (0, 4))

    def test_zero_unit(self):
        Z = MonomialIdeal.zero(2)
        U = MonomialIdeal.unit(2)
        assert Z.is_zero and Z.gens == ()
        assert U.is_unit and U.gens == ((0, 0),)
        assert not U.is_proper_nonzero and not Z.is_proper_nonzero
        assert MonomialIdeal(2, [(1, 1)]).is_proper_nonzero

    def test_contains_exponent(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert I.contains_exponent((2, 5))
        assert not I.contains_exponent((1, 2))

    def test_contains_poly(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert I.contains(SupportPoly(2, [(2, 1), (0, 3)]))
        assert not I.contains(SupportPoly(2, [(2, 1), (1, 1)]))

    def test_product(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert (I * I).gens == ((4, 0), (2, 3), (0, 6))

    def test_power(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert (I**3).gens == ((6, 0), (4, 3), (2, 6), (0, 9))
        assert (I**0).is_unit

    def test_product_with_unit_zero(self):
        I = MonomialIdeal(2, [(1, 1)])
        assert (I * MonomialIdeal.unit(2)) == I
        assert (I * MonomialIdeal.zero(2)).is_zero

    def test_dimension_mismatch(self):
        I = MonomialIdeal(2, [(1, 1)])
        J = MonomialIdeal(3, [(1, 1, 1)])
        with pytest.raises(DimensionMismatchError):
            I * J

    def test_negative_exponent_rejected(self):
        with pytest.raises(Exception):
            MonomialIdeal(2, [(-1, 2)])

    def test_is_primary(self):
        assert MonomialIdeal(2, [(2, 0), (0, 3)]).is_primary()
        assert not MonomialIdeal(2, [(1, 2)]).is_primary()
        assert not MonomialIdeal.zero(2).is_primary()

    def test_json_round_trip(self):
        I = MonomialIdeal(3, [(1, 0, 2), (0, 3, 0)])
        assert MonomialIdeal.from_json(I.to_json()) == I

    def test_str(self):
        assert str(MonomialIdeal(2, [(2, 0), (0, 3)])) == "(x^2, y^3)"
        assert str(MonomialIdeal.unit(2)) == "(1)"
        assert str(MonomialIdeal.zero(2)) == "(0)"

    def test_random_product_matches_raw_expansion(self):
        rnd = random.Random(3)
        for _ in range(40):
            gens = [
                tuple(rnd.randint(0, 4) for _ in range(2))
                for _ in range(rnd.randint(1, 4))
            ]
            I = MonomialIdeal(2, gens)
            m = rnd.randint(1, 3)
            want = minimal_points(power_gens(gens, m))
            assert sorted((I**m).gens) == want


class TestProductByMerge:
    """2-D products merge shifted staircases; every other product, and the
    oracle, reduces all pairwise sums."""

    SPECIAL = [
        MonomialIdeal.unit(2),
        MonomialIdeal.zero(2),
        MonomialIdeal(2, [(3, 1)]),
        MonomialIdeal(2, [(2, 0), (1, 1)]),
    ]

    def test_2d_products_match_antichain_oracle(self):
        rnd = random.Random(97)
        for _ in range(3000):
            I, J = (
                rnd.choice(self.SPECIAL) if rnd.random() < 0.2 else random_ideal(rnd, 2, 9)
                for _ in range(2)
            )
            assert (I * J).gens == product_by_antichain(I, J).gens, (I, J)

    def test_2d_system_level_is_its_reduced_staircase(self):
        rnd = random.Random(101)
        for _ in range(500):
            rows = [
                (
                    (rnd.randint(0, 4), rnd.randint(0, 4)),
                    Fraction(rnd.randint(0, 24), rnd.randint(1, 3)),
                    rnd.random() < 0.5,
                )
                for _ in range(rnd.randint(1, 4))
            ]
            got = system_level(2, rows)
            assert got.gens == tuple(_kernels.reduce_antichain(got.gens)), rows
            box = range(max(math.ceil(c) for _, c, _ in rows) + 2)
            members = [
                e
                for e in itertools.product(box, repeat=2)
                if all(
                    (operator.gt if strict else operator.ge)(sum(map(operator.mul, w, e)), c)
                    for w, c, strict in rows
                )
            ]
            assert got == MonomialIdeal(2, members), rows


def revalidated(I):
    """I rebuilt through the validating constructor, which checks that every
    generator is n nonnegative ints."""
    J = MonomialIdeal(I.n, I.gens)
    assert J.gens == I.gens
    return J


class TestValidationBoundary:
    BAD = [(-1, 2), (True, 2), (1.0, 2), (1, 2, 3), (1,)]

    @pytest.mark.parametrize("gen", BAD)
    def test_public_constructor_rejects(self, gen):
        with pytest.raises(PreconditionError):
            MonomialIdeal(2, [(1, 1), gen])

    @pytest.mark.parametrize("gen", BAD)
    def test_from_json_raises_parse_error(self, gen):
        with pytest.raises(ParseError):
            MonomialIdeal.from_json({"n": 2, "gens": [[1, 1], list(gen)]})

    @pytest.mark.parametrize("w", BAD)
    def test_system_level_rejects_bad_weights(self, w):
        with pytest.raises(PreconditionError):
            system_level(2, [((1, 1), 3, False), (w, 3, False)])

    def test_built_ideals_equal_validated_rebuilds(self):
        rnd = random.Random(29)
        for _ in range(60):
            n = rnd.randint(1, 4)
            I, J = random_ideal(rnd, n, 5), random_ideal(rnd, n, 5)
            assert revalidated(I * J) == MonomialIdeal(
                n, [tuple(map(sum, zip(g, h))) for g in I.gens for h in J.gens]
            )
            assert revalidated(I & J) == MonomialIdeal(
                n, [tuple(map(max, zip(g, h))) for g in I.gens for h in J.gens]
            )
            # a minimal generator e has e_i <= ceil(c) + 1 for the largest
            # threshold c, so the box below holds every one of them
            hi = 12 if n < 4 else 6
            rows = [
                (
                    tuple(rnd.randint(0, 3) for _ in range(n)),
                    Fraction(rnd.randint(0, hi), rnd.randint(1, 3)),
                    rnd.random() < 0.5,
                )
                for _ in range(rnd.randint(1, 3))
            ]
            box = range(max(math.ceil(c) for _, c, _ in rows) + 2)
            members = [
                e
                for e in itertools.product(box, repeat=n)
                if all(
                    (operator.gt if strict else operator.ge)(sum(map(operator.mul, w, e)), c)
                    for w, c, strict in rows
                )
            ]
            assert revalidated(system_level(n, rows)) == MonomialIdeal(n, members)


def pure_powers_by_membership(I):
    """Least b with x_j^b in I for each j, None when no power of x_j is in I."""
    top = max((max(g) for g in I.gens), default=0)
    return [
        next(
            (b for b in range(top + 1) if I.contains_exponent(tuple(b * (k == j) for k in range(I.n)))),
            None,
        )
        for j in range(I.n)
    ]


class TestPurePowers:
    @pytest.mark.parametrize(
        "I",
        [
            MonomialIdeal.unit(1),
            MonomialIdeal.unit(3),
            MonomialIdeal.zero(1),
            MonomialIdeal.zero(3),
            MonomialIdeal(1, [(4,)]),
            MonomialIdeal(4, [(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 1), (1, 1, 1, 0)]),
            MonomialIdeal(4, [(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (1, 0, 0, 1)]),
            MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (1, 1, 1)]),
            # the pure powers come after (1, 1) in canonical order
            MonomialIdeal(2, [(7, 0), (1, 1), (0, 5)]),
        ],
        ids=str,
    )
    def test_match_definition(self, I):
        want = pure_powers_by_membership(I)
        assert I.is_primary() == (None not in want)

    def test_random_match_definition(self):
        rnd = random.Random(31)
        for _ in range(80):
            I = random_ideal(rnd, rnd.randint(1, 4), 6)
            want = pure_powers_by_membership(I)
            assert I.is_primary() == (None not in want)


class TestSupportPoly:
    def test_monomial(self):
        f = SupportPoly.monomial((1, 2))
        assert f.n == 2 and f.exps == frozenset({(1, 2)})

    def test_zero_one(self):
        assert SupportPoly.zero(2).is_zero
        assert SupportPoly.one(2).exps == frozenset({(0, 0)})

    def test_min_support(self):
        f = SupportPoly(2, [(1, 1), (2, 0), (0, 3), (2, 2)])
        assert f.min_support() == [(1, 1), (2, 0), (0, 3)]

    def test_product_is_minkowski_sum(self):
        f = SupportPoly(2, [(1, 0), (0, 1)])
        g = f * f
        assert g.exps == frozenset({(2, 0), (1, 1), (0, 2)})

    def test_order_1var(self):
        assert SupportPoly(1, [(3,), (5,)]).order_1var() == 3
        with pytest.raises(PreconditionError):
            SupportPoly(2, [(1, 1)]).order_1var()

    def test_dimension_checked(self):
        with pytest.raises(Exception):
            SupportPoly(2, [(1, 2, 3)])


class TestNewtonFacets:
    def test_box_corner(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert newton_facets(I) == ((3, 2, 6),)

    def test_two_facets(self):
        J = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
        assert newton_facets(J) == ((1, 1, 2), (1, 2, 3))

    def test_facets_support_all_gens(self):
        rnd = random.Random(5)
        for _ in range(40):
            gens = [
                (rnd.randint(0, 6), rnd.randint(0, 6))
                for _ in range(rnd.randint(1, 5))
            ]
            gens.append((rnd.randint(1, 6), 0))
            gens.append((0, rnd.randint(1, 6)))
            I = MonomialIdeal(2, gens)
            facets = newton_facets(I)
            assert facets
            for w1, w2, c in facets:
                # every generator on or above the facet, at least one on it
                vals = [w1 * x + w2 * y for x, y in I.gens]
                assert min(vals) >= c
                assert c in vals


    def test_hand_worked_3d(self):
        # xyz lies above the plane 15x + 10y + 6z = 30 through the pure powers
        I = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
        assert newton_facets(I) == ((15, 10, 6, 30),)
        # xyz below x + y + z = 4 is a vertex: three facets through it
        J = MonomialIdeal(3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        assert newton_facets(J) == ((1, 1, 2, 4), (1, 2, 1, 4), (2, 1, 1, 4))

    def test_non_primary(self):
        # (xy, x^3): x >= 1 and y-free part x^3 give the facets x >= 1, x + 2y >= 3
        I = MonomialIdeal(2, [(1, 1), (3, 0)])
        assert newton_facets(I) == ((1, 0, 1), (1, 2, 3))
        assert newton_facets(MonomialIdeal(3, [(0, 2, 0)])) == ((0, 1, 0, 2),)
        assert newton_facets(MonomialIdeal(1, [(3,)])) == ((1, 3),)

    def test_random_facets_are_tight_and_primitive(self):
        rnd = random.Random(17)
        for n in (1, 2, 3, 4):
            for _ in range(15):
                I = random_ideal(rnd, n, 4)
                for f in newton_facets(I):
                    l, c = f[:-1], f[-1]
                    assert min(l) >= 0 and c > 0
                    assert math.gcd(*l) == 1
                    assert c == min(sum(a * b for a, b in zip(l, g)) for g in I.gens)

    def test_improper_rejected(self):
        with pytest.raises(PreconditionError):
            newton_facets(MonomialIdeal.unit(2))
        with pytest.raises(PreconditionError):
            newton_facets(MonomialIdeal.zero(3))


class TestNpValue:
    def test_frozen_box(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert np_value(I, (1, 1)).as_fraction() == Fraction(5, 6)

    def test_zero_exponent(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert np_value(I, (0, 0)).is_zero

    def test_generators_have_value_at_least_one(self):
        I = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
        for g in I.gens:
            assert np_value(I, g) >= 1

    def test_homogeneous_in_exponent(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        v = np_value(I, (1, 1))
        for k in (2, 3, 5):
            assert np_value(I, (k, k)) == v * k

    def test_three_vars(self):
        I = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert np_value(I, (1, 1, 1)).as_fraction() == Fraction(3, 2)
        M = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert np_value(M, (2, 3, 4)) == 9

    def test_random_matches_lp_oracle(self):
        rnd = random.Random(41)
        for n in (1, 2, 3, 4):
            for _ in range(12):
                I = random_ideal(rnd, n, 4)
                for _ in range(6):
                    e = tuple(rnd.randint(0, 6) for _ in range(n))
                    assert np_value(I, e).as_fraction() == np_value_lp(I.gens, e), (
                        I,
                        e,
                    )

    def test_rejects_improper(self):
        with pytest.raises(PreconditionError):
            np_value(MonomialIdeal.unit(2), (1, 1))
        with pytest.raises(PreconditionError):
            np_value(MonomialIdeal.zero(2), (1, 1))

    def test_limit_of_power_orders(self):
        # np value is the limit (here: exact at the lcm of facet denominators)
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        e = (1, 1)
        k = 6
        ord_k = adic_order(I.gens, tuple(k * c for c in e), cap=10)
        assert Fraction(ord_k, k) == np_value(I, e).as_fraction()

    def test_random_matches_power_order_bound(self):
        # ord(k*e)/k <= np_value(e), with equality for some k <= 6
        rnd = random.Random(9)
        for _ in range(25):
            gens = [
                (rnd.randint(0, 3), rnd.randint(1, 3))
                for _ in range(rnd.randint(1, 3))
            ]
            gens.append((rnd.randint(1, 3), 0))
            gens.append((0, rnd.randint(1, 3)))
            I = MonomialIdeal(2, gens)
            e = (rnd.randint(0, 4), rnd.randint(0, 4))
            v = np_value(I, e).as_fraction()
            hit = False
            for k in range(1, 7):
                o = adic_order(I.gens, tuple(k * c for c in e), cap=40)
                assert Fraction(o, k) <= v
                if Fraction(o, k) == v:
                    hit = True
            assert hit, (gens, e, v)


class TestIntegralClosure:
    def test_frozen_box(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert integral_closure(I).gens == ((2, 0), (0, 3), (1, 2))
        # in one variable the box is (x^4), and it is integrally closed
        assert integral_closure(MonomialIdeal(1, [(4,)])).gens == ((4,),)

    def test_frozen_triangle(self):
        J = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
        assert integral_closure(J).gens == ((0, 2), (1, 1), (3, 0))

    def test_three_vars(self):
        K3 = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        got = integral_closure(K3).gens
        want = sorted(
            e
            for e in itertools.product(range(3), repeat=3)
            if sum(e) == 2
        )
        assert sorted(got) == want

    def test_idempotent(self):
        J = MonomialIdeal(2, [(5, 0), (2, 1), (0, 4)])
        c = integral_closure(J)
        assert integral_closure(c) == c

    def test_closure_contains_ideal(self):
        J = MonomialIdeal(2, [(5, 0), (0, 4)])
        c = integral_closure(J)
        for g in J.gens:
            assert c.contains_exponent(g)

    def test_matches_power_membership_witnesses(self):
        # closure members are exactly those e with r*e in I^r for some r
        rnd = random.Random(21)
        for _ in range(15):
            gens = [
                (rnd.randint(0, 4), rnd.randint(0, 4))
                for _ in range(rnd.randint(1, 3))
            ]
            gens.append((rnd.randint(1, 4), 0))
            gens.append((0, rnd.randint(1, 4)))
            I = MonomialIdeal(2, gens)
            c = integral_closure(I)
            box = (6, 6)
            want = closure_members(I.gens, box, r_max=12)
            got = [
                e
                for e in itertools.product(range(box[0] + 1), range(box[1] + 1))
                if c.contains_exponent(e)
            ]
            assert got == want, (gens,)

    def test_unit_zero_passthrough(self):
        assert integral_closure(MonomialIdeal.unit(2)).is_unit
        assert integral_closure(MonomialIdeal.zero(2)).is_zero


    def test_sixth_power_3d_matches_oracle(self):
        I = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
        I6 = I**6
        c = integral_closure(I6)
        # the closure is 6 NP(I) = {15x + 10y + 6z >= 180}
        assert c == np_threshold_level(I, 6)
        # boxes across that facet, with witness bounds that reach every member
        for box, r_max in (((12, 0, 30), 6), ((6, 9, 15), 2)):
            got = [
                e
                for e in itertools.product(*(range(b + 1) for b in box))
                if c.contains_exponent(e)
            ]
            assert got and got == closure_members(I6.gens, box, r_max=r_max)


class TestNpThresholdLevel:
    def test_threshold_one_is_closure(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert np_threshold_level(I, 1) == integral_closure(I)

    def test_fractional_threshold(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert np_threshold_level(I, Fraction(1, 2)).gens == ((1, 0), (0, 2))

    def test_strict_excludes_boundary(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        strict = np_threshold_level(I, 1, strict=True)
        assert strict.gens == ((1, 2), (2, 1), (3, 0), (0, 4))
        assert not strict.contains_exponent((2, 0))  # value exactly 1

    def test_irrational_threshold_strictness_immaterial(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        t = sqrt(2)
        assert np_threshold_level(I, t) == np_threshold_level(I, t, strict=True)

    def test_nonpositive_threshold(self):
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert np_threshold_level(I, 0).is_unit
        assert np_threshold_level(I, -1).is_unit

    def test_members_characterized_by_np_value(self):
        rnd = random.Random(33)
        for _ in range(20):
            gens = [(rnd.randint(1, 4), 0), (0, rnd.randint(1, 4))]
            gens += [
                (rnd.randint(1, 4), rnd.randint(1, 4))
                for _ in range(rnd.randint(0, 2))
            ]
            I = MonomialIdeal(2, gens)
            t = Fraction(rnd.randint(1, 8), rnd.randint(1, 4))
            L = np_threshold_level(I, t)
            for e in itertools.product(range(8), repeat=2):
                inside = L.contains_exponent(e)
                if e == (0, 0):
                    assert inside == (t <= 0)
                    continue
                want = np_value(I, e).as_fraction() >= t
                assert inside == want, (gens, t, e)

    def test_random_matches_box_membership(self):
        # brute force: e is in the level iff its LP order is >= t (or > t);
        # every minimal generator lies in the box ceil(3/2 max_g g_j) + 1
        rnd = random.Random(57)
        for n, count, hi in ((1, 6, 4), (2, 6, 4), (3, 6, 3), (4, 3, 2)):
            for _ in range(count):
                I = random_ideal(rnd, n, hi)
                box = [
                    math.ceil(Fraction(3, 2) * max(g[j] for g in I.gens)) + 1
                    for j in range(n)
                ]
                order = {
                    e: as_exact(np_value_lp(I.gens, e))
                    for e in itertools.product(*(range(b + 1) for b in box))
                }
                for t in (as_exact(1), as_exact(Fraction(3, 2)), sqrt(2)):
                    for strict in (False, True):
                        L = np_threshold_level(I, t, strict)
                        assert all(g in order for g in L.gens), (I, t, strict)
                        for e, v in order.items():
                            want = v > t if strict else v >= t
                            assert L.contains_exponent(e) == want, (I, t, strict, e)

    def test_three_var_threshold(self):
        M = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        L = np_threshold_level(M, 2)
        want = minimal_points(
            [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
        )
        assert sorted(L.gens) == want


class TestMonomialStr:
    def test_names(self):
        assert monomial_str((1, 0)) == "x"
        assert monomial_str((2, 3)) == "x^2*y^3"
        assert monomial_str((0, 0)) == "1"
        assert monomial_str((0, 1, 2)) == "y*z^2"
        # four or more variables: indexed names throughout
        assert monomial_str((0, 0, 1, 2)) == "x3*x4^2"
