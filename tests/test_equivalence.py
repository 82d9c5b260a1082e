import itertools
import random
from fractions import Fraction

import pytest

from samfilt import (
    DiscreteValued,
    IrredundantRep,
    OmegaOracle,
    PreconditionError,
    RecoveryError,
    bracket_twist,
    make_irredundant,
    projectively_equivalent,
    recover_valuations,
    sqrt,
)
from samfilt.exactnum import as_exact
from samfilt.valuation import MonomialValuation

from oracles import min_linear, strict_min_witness


def P(w, a):
    return (MonomialValuation(tuple(w)), a)


def DV(*pairs):
    return DiscreteValued([P(w, a) for w, a in pairs])


def rep_data(rep):
    return [(v.w, a.as_fraction()) for v, a in rep.pairs]


class TestMakeIrredundant:
    def test_dominated_direction_dropped(self):
        rep = make_irredundant([P((1, 1), 1), P((1, 2), 1)])
        assert rep_data(rep) == [((1, 1), Fraction(1))]

    def test_scaled_duplicate_merged(self):
        rep = make_irredundant([P((2, 2), 2), P((1, 1), 1)])
        assert rep_data(rep) == [((1, 1), Fraction(1))]

    def test_crossing_pair_kept(self):
        rep = make_irredundant([P((2, 1), 1), P((1, 2), 1)])
        assert rep_data(rep) == [((1, 2), Fraction(1)), ((2, 1), Fraction(1))]

    def test_same_direction_weaker_scale_dropped(self):
        rep = make_irredundant([P((1, 1), 1), P((1, 1), 2)])
        assert rep_data(rep) == [((1, 1), Fraction(2))]

    def test_canonical_order(self):
        rep = make_irredundant(
            [P((3, 1), 5), P((1, 3), 5), P((1, 1), Fraction(3, 2))]
        )
        ws = [v.w for v, _ in rep.pairs]
        assert ws == sorted(ws)

    def test_three_vars(self):
        rep = make_irredundant(
            [P((1, 1, 1), 1), P((2, 1, 1), 1), P((1, 1, 2), 1)]
        )
        # (2,1,1) and (1,1,2) dominate (1,1,1) pointwise
        assert rep_data(rep) == [((1, 1, 1), Fraction(1))]

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            make_irredundant([])

    def test_omega_preserved_on_grid(self):
        rnd = random.Random(101)
        for _ in range(40):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 5), rnd.randint(1, 2)),
                )
                for _ in range(rnd.randint(1, 4))
            ]
            rep = make_irredundant([P(w, a) for w, a in pairs])
            red = [(v.w, a.as_fraction()) for v, a in rep.pairs]
            for e in itertools.product(range(7), repeat=2):
                if e == (0, 0):
                    continue
                assert rep.omega(e) == min_linear(pairs, e), (pairs, e)
                assert min_linear(red, e) == min_linear(pairs, e), (pairs, e)

    def test_every_kept_pair_has_strict_witness(self):
        rnd = random.Random(103)
        for _ in range(30):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 5), rnd.randint(1, 2)),
                )
                for _ in range(rnd.randint(1, 4))
            ]
            rep = make_irredundant([P(w, a) for w, a in pairs])
            red = [(v.w, a.as_fraction()) for v, a in rep.pairs]
            for i in range(len(red)):
                assert strict_min_witness(red, i, 20) is not None, (pairs, red, i)

    def test_invariant_under_presentation(self):
        rnd = random.Random(107)
        for _ in range(25):
            pairs = [
                (
                    tuple(rnd.randint(1, 4) for _ in range(2)),
                    Fraction(rnd.randint(1, 5), rnd.randint(1, 2)),
                )
                for _ in range(rnd.randint(1, 3))
            ]
            rep = make_irredundant([P(w, a) for w, a in pairs])
            # shuffle, duplicate, and rescale the presentation
            noisy = list(pairs) + [pairs[0]]
            k = rnd.randint(2, 4)
            w0, a0 = pairs[0]
            noisy.append((tuple(k * x for x in w0), k * a0))
            rnd.shuffle(noisy)
            rep2 = make_irredundant([P(w, a) for w, a in noisy])
            assert rep == rep2, (pairs, noisy)

    def test_rep_equality_and_hash(self):
        r1 = make_irredundant([P((1, 2), 1), P((2, 1), 1)])
        r2 = make_irredundant([P((2, 1), 1), P((1, 2), 1)])
        assert r1 == r2 and hash(r1) == hash(r2)
        assert len(r1) == 2

    def test_to_filtration_levels(self):
        rep = make_irredundant([P((1, 2), 1), P((2, 1), 1)])
        F = rep.to_filtration()
        assert F.level(2).gens == ((0, 2), (1, 1), (2, 0))

    def test_str(self):
        rep = make_irredundant([P((1, 2), 1), P((2, 1), 1)])
        assert str(rep) == "w=1,2 a=1/1; w=2,1 a=1/1"

    def test_irrational_scales(self):
        rep = make_irredundant([P((1, 1), sqrt(2)), P((1, 2), sqrt(2))])
        assert [(v.w, a) for v, a in rep.pairs] == [((1, 1), sqrt(2))]


class TestProjectiveEquivalence:
    def test_self_equivalence(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        r = projectively_equivalent(F, F)
        assert r.equivalent and bool(r)
        assert r.alpha.as_fraction() == 1

    def test_scaling_detected(self):
        F = DV(((1, 1), 1))
        G = DV(((1, 1), 3))
        r = projectively_equivalent(F, G)
        assert r.alpha.as_fraction() == 3

    def test_inverse_direction(self):
        F = DV(((1, 1), 3))
        G = DV(((1, 1), 1))
        assert projectively_equivalent(F, G).alpha.as_fraction() == Fraction(1, 3)

    def test_hidden_by_presentation(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        G = DV(((2, 4), 3), ((2, 1), Fraction(3, 2)))
        r = projectively_equivalent(F, G)
        assert r.equivalent and r.alpha.as_fraction() == Fraction(3, 2)

    def test_bracket_twist_is_equivalent(self):
        F = DV(((1, 2), 1), ((2, 1), 1), ((1, 1), Fraction(3, 4)))
        for alpha in (Fraction(2, 3), 5, sqrt(2)):
            G = bracket_twist(F, alpha)
            r = projectively_equivalent(F, G)
            assert r.equivalent, alpha
            assert r.alpha == as_exact(alpha)

    def test_not_equivalent_has_counterexample(self):
        F = DV(((1, 1), 1))
        G = DV(((1, 2), 1), ((2, 1), 1))
        r = projectively_equivalent(F, G)
        assert not r.equivalent and not bool(r)
        assert r.alpha is None
        e = r.counterexample
        assert e is not None
        # the witness breaks proportionality against the all-ones point
        base = (1,) * 2
        lhs = r.left.omega(e) * r.right.omega(base)
        rhs = r.left.omega(base) * r.right.omega(e)
        assert lhs != rhs

    def test_redundant_components_invisible(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        G = DV(((1, 2), 2), ((2, 1), 2), ((1, 1), Fraction(4, 3)))
        # (1,1)/(4/3): at e=(1,1): 2/(4/3) = 3/2 vs (1+2)/2 = 3/2 -> never
        # strictly below, so it is redundant and G is 2 F
        r = projectively_equivalent(F, G)
        assert r.equivalent and r.alpha.as_fraction() == 2

    def test_same_directions_different_ratio_pattern(self):
        F = DV(((1, 2), 1), ((2, 1), 1))
        G = DV(((1, 2), 2), ((2, 1), 3))
        r = projectively_equivalent(F, G)
        assert not r.equivalent and r.counterexample is not None

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            projectively_equivalent(DV(((1, 1), 1)), DV(((1, 1, 1), 1)))


class TestOmegaOracle:
    def test_from_pairs_evaluates_min(self):
        om = OmegaOracle.from_pairs([P((1, 2), 1), P((2, 1), 1)])
        assert om((1, 1)).as_fraction() == 3
        assert om((1, 0)).as_fraction() == 1

    def test_caches(self):
        calls = []

        def fn(e):
            calls.append(e)
            return sum(e)

        om = OmegaOracle(2, fn)
        om((1, 2))
        om((1, 2))
        assert calls == [(1, 2)]


class TestRecoverValuations:
    def test_single_valuation(self):
        om = OmegaOracle.from_pairs([P((1, 1), 1)])
        rep = recover_valuations(om, 1)
        assert rep_data(rep) == [((1, 1), Fraction(1))]

    def test_two_valuations(self):
        om = OmegaOracle.from_pairs([P((1, 2), 1), P((2, 1), 1)])
        rep = recover_valuations(om, 6)
        assert rep_data(rep) == [
            ((1, 2), Fraction(1)),
            ((2, 1), Fraction(1)),
        ]

    def test_fractional_scales(self):
        hidden = [P((3, 1), Fraction(5, 2)), P((1, 4), Fraction(3, 2))]
        om = OmegaOracle.from_pairs(hidden)
        rep = recover_valuations(om, 10)
        assert rep == make_irredundant(hidden)

    def test_redundant_component_invisible(self):
        visible = [P((1, 2), 1), P((2, 1), 1)]
        hidden = visible + [P((1, 1), Fraction(2, 3))]
        # (1,1)/(2/3) is 3/2 * (e1+e2) >= min(e1+2e2, 2e1+e2)? at (1,1):
        # 3 = 3 (tie, never strict) -> redundant
        assert make_irredundant(hidden) == make_irredundant(visible)
        om = OmegaOracle.from_pairs(hidden)
        rep = recover_valuations(om, 8)
        assert rep == make_irredundant(visible)

    def test_three_vars(self):
        hidden = [P((1, 1, 2), 1), P((2, 1, 1), 1)]
        om = OmegaOracle.from_pairs(hidden)
        rep = recover_valuations(om, 8)
        assert rep == make_irredundant(hidden)

    def test_unstable_first_sighting_does_not_hide_stable_direction(self):
        # e = (0, 2) shows the form of (4,1) before it stabilizes; the
        # stable sighting at e = (0, 3) must still be used
        hidden = [P((1, 1), 2), P((1, 2), 3), P((4, 1), Fraction(5, 2))]
        rep = recover_valuations(OmegaOracle.from_pairs(hidden), 6)
        assert rep == make_irredundant(hidden)
        assert rep_data(rep) == [
            ((1, 1), Fraction(2)),
            ((1, 2), Fraction(3)),
            ((4, 1), Fraction(5, 2)),
        ]

    def test_round_trip_random(self):
        rnd = random.Random(109)
        for _ in range(15):
            pairs = [
                (
                    tuple(rnd.randint(1, 3) for _ in range(2)),
                    Fraction(rnd.randint(1, 4), rnd.randint(1, 2)),
                )
                for _ in range(rnd.randint(1, 3))
            ]
            target = make_irredundant([P(w, a) for w, a in pairs])
            om = OmegaOracle.from_pairs([P(w, a) for w, a in pairs])
            rep = recover_valuations(om, 12)
            assert rep == target, pairs

    def test_non_homogeneous_oracle_rejected(self):
        om = OmegaOracle(2, lambda e: e[0] * e[1])
        with pytest.raises(RecoveryError):
            recover_valuations(om, 4)

    def test_non_piecewise_linear_oracle_rejected(self):
        om = OmegaOracle(2, lambda e: min(e[0] * e[0], e[1] + 1))
        with pytest.raises(RecoveryError):
            recover_valuations(om, 5)

    def test_degree_bound_positive(self):
        om = OmegaOracle.from_pairs([P((1, 1), 1)])
        with pytest.raises(PreconditionError):
            recover_valuations(om, 0)

    def test_degree_bound_too_small_to_separate(self):
        # two very close directions need a fine grid; a coarse bound must
        # either recover them or fail loudly, never return a wrong rep
        hidden = [P((5, 4), 1), P((4, 5), 1)]
        om = OmegaOracle.from_pairs(hidden)
        try:
            rep = recover_valuations(om, 2)
        except RecoveryError:
            return
        assert rep == make_irredundant(hidden)
