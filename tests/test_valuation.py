import itertools
import random
from fractions import Fraction

import pytest

from samfilt import (
    INF,
    DimensionMismatchError,
    MonomialIdeal,
    PlusInfinity,
    PreconditionError,
    SupportPoly,
    primitive_pair,
    sqrt,
    system_level,
)
from samfilt.valuation import MonomialValuation

from oracles import minimal_points


class TestMonomialValuation:
    def test_value_exponent(self):
        v = MonomialValuation((3, 2))
        assert v.value_exponent((1, 1)) == 5
        assert v.value_exponent((0, 0)) == 0

    def test_value_of_poly_is_min_over_support(self):
        v = MonomialValuation((3, 2))
        f = SupportPoly(2, [(1, 1), (2, 0), (0, 3)])
        assert v.value(f) == 5

    def test_value_of_zero_poly_is_infinite(self):
        v = MonomialValuation((3, 2))
        assert isinstance(v.value(SupportPoly.zero(2)), PlusInfinity)

    def test_value_of_ideal(self):
        v = MonomialValuation((3, 2))
        I = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert v.value_of_ideal(I) == 6
        assert isinstance(v.value_of_ideal(MonomialIdeal.zero(2)), PlusInfinity)
        assert v.value_of_ideal(MonomialIdeal.unit(2)) == 0

    def test_valuation_ideal(self):
        # the valuation ideal {3x + 2y >= 6} is one row of system_level
        assert system_level(2, [((3, 2), 6, False)]).gens == ((2, 0), (0, 3), (1, 2))

    def test_valuation_ideal_nonintegral_threshold(self):
        # w.e >= 3/2 means w.e >= 2
        assert system_level(2, [((1, 1), Fraction(3, 2), False)]).gens == ((0, 2), (1, 1), (2, 0))

    def test_valuation_ideal_members(self):
        rnd = random.Random(15)
        for _ in range(30):
            w = tuple(rnd.randint(1, 5) for _ in range(2))
            t = Fraction(rnd.randint(1, 20), rnd.randint(1, 3))
            L = system_level(2, [(w, t, False)])
            for e in itertools.product(range(9), repeat=2):
                want = sum(a * b for a, b in zip(w, e)) >= t
                assert L.contains_exponent(e) == want, (w, t, e)

    def test_weights_must_be_positive(self):
        with pytest.raises(PreconditionError):
            MonomialValuation((0, 1))
        with pytest.raises(PreconditionError):
            MonomialValuation((1, -2))
        with pytest.raises(PreconditionError):
            MonomialValuation(())

    def test_is_primitive(self):
        v = MonomialValuation((3, 2))
        assert primitive_pair(v, 1) == (v, 1)
        assert primitive_pair(MonomialValuation((2, 4)), 1)[0] != MonomialValuation((2, 4))

    def test_json_round_trip(self):
        v = MonomialValuation((5, 1, 2))
        assert MonomialValuation.from_json(v.to_json()) == v

    def test_dimension_mismatch(self):
        v = MonomialValuation((1, 2))
        with pytest.raises(DimensionMismatchError):
            v.value(SupportPoly(3, [(1, 1, 1)]))

    def test_eq_hash(self):
        assert MonomialValuation((1, 2)) == MonomialValuation((1, 2))
        assert hash(MonomialValuation((1, 2))) == hash(MonomialValuation((1, 2)))
        assert MonomialValuation((1, 2)) != MonomialValuation((2, 1))


class TestPrimitivePair:
    def test_reduces_common_factor(self):
        v, a = primitive_pair(MonomialValuation((2, 4)), 3)
        assert v.w == (1, 2)
        assert a.as_fraction() == Fraction(3, 2)

    def test_already_primitive(self):
        v, a = primitive_pair(MonomialValuation((3, 2)), Fraction(1, 2))
        assert v.w == (3, 2) and a.as_fraction() == Fraction(1, 2)

    def test_scale_must_be_positive(self):
        with pytest.raises(PreconditionError):
            primitive_pair(MonomialValuation((1, 1)), 0)
        with pytest.raises(PreconditionError):
            primitive_pair(MonomialValuation((1, 1)), Fraction(-1, 2))

    def test_irrational_scale(self):
        v, a = primitive_pair(MonomialValuation((2, 2)), sqrt(2))
        assert v.w == (1, 1) and a == sqrt(2) / 2


class TestSystemLevel:
    def test_multiple_constraints(self):
        got = system_level(2, [((1, 2), 3, False), ((2, 1), 3, False)])
        members = []
        for e in itertools.product(range(6), repeat=2):
            if e[0] + 2 * e[1] >= 3 and 2 * e[0] + e[1] >= 3:
                members.append(e)
        assert sorted(got.gens) == minimal_points(members)

    def test_strict_constraint(self):
        lax = system_level(2, [((1, 1), 2, False)])
        strict = system_level(2, [((1, 1), 2, True)])
        assert lax.contains_exponent((1, 1))
        assert not strict.contains_exponent((1, 1))
        assert strict.contains_exponent((2, 1))

    def test_irrational_threshold(self):
        s2 = sqrt(2)  # w.e >= sqrt(2): integer dot, so >= 2
        got = system_level(2, [((1, 1), s2, False)])
        assert got == system_level(2, [((1, 1), 2, False)])

    def test_strict_at_irrational_threshold_same_as_lax(self):
        s2 = sqrt(2)
        a = system_level(2, [((2, 3), s2 * 3, False)])
        b = system_level(2, [((2, 3), s2 * 3, True)])
        assert a == b

    def test_trivial_level_is_unit(self):
        assert system_level(2, [((1, 1), 0, False)]).is_unit
        assert system_level(2, [((1, 1), -5, False)]).is_unit

    def test_no_constraints_is_unit(self):
        assert system_level(2, []).is_unit

    def test_infinite_threshold_rejected(self):
        # callers deal with infinite thresholds; the solver takes exact
        # scalars only
        with pytest.raises(PreconditionError):
            system_level(2, [((1, 1), INF, False)])

    def test_three_vars_members(self):
        rnd = random.Random(27)
        for _ in range(15):
            rows = [
                (
                    tuple(rnd.randint(1, 3) for _ in range(3)),
                    Fraction(rnd.randint(1, 12), rnd.randint(1, 2)),
                    rnd.random() < 0.3,
                )
                for _ in range(rnd.randint(1, 3))
            ]
            got = system_level(3, rows)
            for e in itertools.product(range(6), repeat=3):
                want = True
                for w, t, strict in rows:
                    dot = sum(a * b for a, b in zip(w, e))
                    if strict:
                        if not dot > t:
                            want = False
                    elif not dot >= t:
                        want = False
                assert got.contains_exponent(e) == want, (rows, e)
