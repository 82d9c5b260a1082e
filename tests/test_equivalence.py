import itertools
import random
from fractions import Fraction

import pytest

from samfilt import (
    Adic,
    DimensionMismatchError,
    DiscreteValued,
    IrredundantRep,
    MonomialIdeal,
    NotPrimaryError,
    OmegaOracle,
    PreconditionError,
    RecoveryError,
    StairOneVar,
    SupportPoly,
    Table,
    bracket_twist,
    make_irredundant,
    newton_facets,
    projectively_equivalent,
    recover_valuations,
    sqrt,
    twist,
)
import samfilt.equivalence
from samfilt.equivalence import valuation_pairs
from samfilt.exactnum import as_exact
from samfilt.valuation import MonomialValuation

from conftest import reproducer
from oracles import (
    counterexample_by_scan,
    equivalent_by_normal_forms,
    irredundant_by_restart,
    is_counterexample,
    min_linear,
    np_value_lp,
    nubar_by_engine,
    nubar_ratios_on_grid,
    strict_min_witness,
)


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

    def test_sweep_matches_restart_oracle(self):
        """One sweep gives the restart loop's normal form on 300 random
        1-4-D families: sqrt(2) scales, scaled duplicates, and families
        padded with pairs that another pair dominates."""
        rnd = random.Random(109)
        for trial in range(300):
            n = trial % 4 + 1
            pairs = []
            for _ in range(rnd.randint(1, 4)):
                a = as_exact(Fraction(rnd.randint(1, 6), rnd.randint(1, 3)))
                if trial % 6 == 5:  # exact sqrt(2) arithmetic costs more
                    a = rnd.choice([a, a * sqrt(2), a + sqrt(2)])
                pairs.append((tuple(rnd.randint(1, 5) for _ in range(n)), a))
            if rnd.random() < 0.5:
                w, a = rnd.choice(pairs)
                k = rnd.randint(2, 3)
                pairs.append((tuple(k * x for x in w), k * a))
            if trial % 3 == 0:  # mostly redundant: w grows, a shrinks
                for _ in range(rnd.randint(len(pairs), len(pairs) + 2)):
                    w, a = rnd.choice(pairs)
                    w = tuple(x + rnd.randint(0, 2) for x in w)
                    pairs.append((w, a * Fraction(rnd.randint(1, 4), 4)))
            rnd.shuffle(pairs)
            rep = make_irredundant([P(w, a) for w, a in pairs])
            got = [(v.w, a) for v, a in rep.pairs]
            assert got == irredundant_by_restart(pairs), pairs


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
        wf, wg = engine_nubar(F), engine_nubar(G)
        assert wf(e) * wg(base) != wf(base) * wg(e)

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
        with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
            projectively_equivalent(DV(((1, 1), 1)), DV(((1, 1, 1), 1)))


I2 = MonomialIdeal(2, [(4, 0), (1, 1), (0, 3)])
I3 = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
THIN_F = [((102, 1), 1), ((1, 101), 1), ((103, 102), Fraction(100001, 50000))]


def facets(I):
    return [(f[:-1], f[-1]) for f in newton_facets(I)]


def adic_nubar(I):
    return lambda e: np_value_lp(I.gens, e)


def engine_nubar(F):
    """nubar by the per-engine formulas, on exponent tuples."""
    return lambda e: nubar_by_engine(F, SupportPoly.monomial(e))


class TestEveryExactEngine:
    """Projective equivalence on any two exact engines, each answer checked
    against the nubar ratios on a grid, computed by brute force."""

    def test_adic_against_its_power(self):
        for I, k, bound in ((I2, 2, 5), (I2, 3, 4), (I3, 2, 2)):
            res = projectively_equivalent(Adic(I), Adic(I**k))
            assert res.alpha == k
            assert nubar_ratios_on_grid(adic_nubar(I), adic_nubar(I**k), I.n, bound) == {k}

    def test_adic_against_the_dv_family_of_its_facets(self):
        for I, bound in ((I2, 5), (I3, 3)):
            pairs = facets(I)
            res = projectively_equivalent(Adic(I), DV(*pairs))
            assert res.alpha == 1
            omega = lambda e: min_linear(pairs, e)  # noqa: E731
            assert nubar_ratios_on_grid(adic_nubar(I), omega, I.n, bound) == {1}

    def test_against_a_twist(self):
        for F in (Adic(I2), DV(((1, 2), 1), ((3, 1), Fraction(3, 2))), Adic(I3)):
            for beta in (Fraction(3, 2), sqrt(2)):
                G = twist(F, beta)
                assert projectively_equivalent(F, G).alpha == as_exact(beta)
                ratios = nubar_ratios_on_grid(engine_nubar(F), engine_nubar(G), F.n, 3)
                assert ratios == {as_exact(beta)}

    def test_stair_against_its_dv_family(self):
        for alpha in (Fraction(3, 2), sqrt(2)):
            S, D = StairOneVar(alpha, 2), DV(((1,), alpha))
            assert projectively_equivalent(S, D).alpha == 1
            assert nubar_ratios_on_grid(engine_nubar(S), engine_nubar(D), 1, 8) == {1}

    def test_non_homothetic_adics_have_a_counterexample(self):
        F, G = Adic(I2), Adic(MonomialIdeal(2, [(2, 0), (0, 3)]))
        res = projectively_equivalent(F, G)
        assert not res.equivalent
        e, one = res.counterexample, (1, 1)
        nf, ng = adic_nubar(F.ideal), adic_nubar(G.ideal)
        assert nf(e) * ng(one) != nf(one) * ng(e)

    def test_recover_an_adic_filtration_returns_its_facets(self):
        for I in (I2, MonomialIdeal(2, [(2, 0), (0, 3)])):
            rep = recover_valuations(OmegaOracle.from_pairs(valuation_pairs(Adic(I))), 8)
            assert rep_data(rep) == [(w, Fraction(c)) for w, c in facets(I)]

    def test_non_primary_adic_rejected(self):
        F = Adic(MonomialIdeal(2, [(2, 0), (1, 1)]))  # no power of y
        with pytest.raises(NotPrimaryError, match="zero entry"):
            projectively_equivalent(F, Adic(I2))
        with pytest.raises(NotPrimaryError, match="the zero ideal"):
            valuation_pairs(Adic(MonomialIdeal.zero(2)))
        with pytest.raises(PreconditionError, match="the unit ideal"):
            valuation_pairs(Adic(MonomialIdeal.unit(2)))

    def test_table_rooted_rejected(self):
        T = Table({1: MonomialIdeal(2, [(1, 0), (0, 1)])}, 1)
        for F in (T, twist(T, 2)):
            with pytest.raises(PreconditionError, match="exact engine"):
                projectively_equivalent(F, DV(((1, 1), 1)))

    def test_no_counterexample_of_small_degree(self):
        # the normal forms differ only on a cone too thin to hold a monomial
        # of degree <= 64; the vertex (100, 101)/10301 of P_G lies off P_F
        F, G = DV(*THIN_F), DV(*THIN_F[:2])
        res = projectively_equivalent(F, G)
        assert not res.equivalent and res.alpha is None
        assert len(make_irredundant(F.pairs)) == 3 and len(make_irredundant(G.pairs)) == 2
        assert res.counterexample == (100, 101)
        wf, wg = engine_nubar(F), engine_nubar(G)
        assert is_counterexample(wf, wg, res.counterexample)
        assert counterexample_by_scan(wf, wg, 2) is None


# the thin cone of THIN_F on the face x_3 = ... = 0: the extra weights 3 of
# the cutting pair keep it above the other two off that face
THIN_3 = [((102, 1, 1), 1), ((1, 101, 1), 1), ((103, 102, 3), Fraction(100001, 50000))]
THIN_4 = [((102, 1, 1, 1), 1), ((1, 101, 1, 1), 1),
          ((103, 102, 3, 3), Fraction(100001, 50000))]
SCALES = (1, 2, Fraction(3, 2), Fraction(5, 3), sqrt(2), 1 + sqrt(2))
BETAS = (Fraction(2, 3), 1, Fraction(7, 4), sqrt(2), 1 + sqrt(2))


def random_family(rng, n, surd):
    """One to four pairs, their scales mixing rationals with sqrt(2) ones
    when surd."""
    scales = SCALES if surd else SCALES[:4]
    return [(tuple(rng.randint(1, 5) for _ in range(n)), rng.choice(scales))
            for _ in range(rng.randint(1, 4))]


def random_pair(rng, i):
    """(F, G, whether equivalent by construction) in 1 + i % 4 variables."""
    n, surd = 1 + i % 4, i % 3 != 0
    f = random_family(rng, n, surd)
    kind = rng.randrange(5)
    if kind == 0:  # G = beta * F, hidden behind a redundant mediant
        beta = as_exact(rng.choice(BETAS))
        (w1, a1), (w2, a2) = f[0], f[-1]
        mediant = (tuple(x + y for x, y in zip(w1, w2)), as_exact(a1) + a2)
        g = [(w, beta * a) for w, a in f + [mediant]]
        rng.shuffle(g)
        return DV(*f), DV(*g), True
    if kind == 1:
        return DV(*f), twist(DV(*f), rng.choice(BETAS)), True
    if kind == 2:  # one scale moved, which may leave the pair redundant
        j = rng.randrange(len(f))
        g = f[:j] + [(f[j][0], as_exact(f[j][1]) * rng.choice((Fraction(3, 4), 2)))] + f[j + 1:]
        return DV(*f), DV(*g), False
    if kind == 3:
        return DV(*f), DV(*random_family(rng, n, surd)), False
    top = {1: 9, 2: 6, 3: 4, 4: 3}[n]
    gens = [tuple(top if k == j else 0 for k in range(n)) for j in range(n)]
    gens += [tuple(rng.randint(0, top - 1) for _ in range(n)) for _ in range(2)]
    return Adic(MonomialIdeal(n, [g for g in gens if any(g)])), DV(*f), False


class TestCounterexamplesFromPoints:
    """A non-equivalent pair always has a counterexample: the least one,
    by degree then lex, that a point of P_F or P_G gives."""

    def test_thin_cones_in_three_and_four_variables(self):
        # the old scan to degree 64 took seconds here and, in 4-D, found none
        for pairs, want in ((THIN_3, (100, 101, 0)), (THIN_4, (100, 101, 0, 0))):
            F, G = DV(*pairs), DV(*pairs[:2])
            res = projectively_equivalent(F, G)
            assert res.alpha is None and res.counterexample == want
            assert is_counterexample(engine_nubar(F), engine_nubar(G), want)

    def test_irrational_vertex_is_floored(self):
        # the vertex ((2 sqrt(2) - 1)/3, (2 - sqrt(2))/3) of P_F, off P_G, is
        # on an irrational ray: the counterexample is floor(k * p), with k
        # set by a slack over the rows as given; G's row ((1, 2), 1) is not a
        # facet of P_G, and it raises k above what the facets alone give
        f = [((1, 2), 1), ((2, 1), sqrt(2))]
        F, G = DV(*f), DV(*f, ((2, 3), 2))
        assert any(not (p[0] / p[1]).is_rational for p in F._points() if p[1] != 0)
        assert len(make_irredundant(G.pairs)) == 2
        res = projectively_equivalent(F, G)
        assert res.counterexample == (37, 12)
        wf, wg = engine_nubar(F), engine_nubar(G)
        assert is_counterexample(wf, wg, (37, 12))
        # the least counterexample lies on no ray through a point
        assert counterexample_by_scan(wf, wg, 2) == (2, 1)

    def test_random_pairs_against_the_oracles(self, rng):
        kinds = {True: 0, False: 0}
        for i in range(320):
            F, G, by_construction = random_pair(rng, i)
            case = reproducer({"i": i, "F": F.to_json(), "G": G.to_json()})
            res = projectively_equivalent(F, G)
            assert res.alpha == equivalent_by_normal_forms(F, G), case
            wf, wg = engine_nubar(F), engine_nubar(G)
            scan = counterexample_by_scan(wf, wg, F.n, 4)
            if res.equivalent:
                assert res.counterexample is None and scan is None, case
                assert nubar_ratios_on_grid(wf, wg, F.n, 2) == {res.alpha}, case
            else:
                e = res.counterexample
                assert res.alpha is None and not by_construction, case
                assert len(e) == F.n and all(isinstance(x, int) and x >= 0 for x in e), case
                assert is_counterexample(wf, wg, e), case
                assert scan is None or (sum(scan), scan) <= (sum(e), e), case
            kinds[res.equivalent] += 1
        assert min(kinds.values()) >= 100


class TestNoNormalForm:
    """Equivalence is decided on the points of the two polyhedra: it
    builds no normal form, so it solves no strict-cone LP."""

    def test_answers_without_the_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("projectively_equivalent solved an LP")

        monkeypatch.setattr(samfilt.equivalence, "strict_cone_margin", refuse)
        F = DV(((1, 2), 1), ((2, 1), 1))
        G = DV(((2, 4), 3), ((2, 1), Fraction(3, 2)))
        assert projectively_equivalent(F, G).alpha == Fraction(3, 2)
        F = DV(((1, 2), 1), ((2, 1), 1), ((1, 1), Fraction(3, 4)))
        for alpha in (Fraction(2, 3), sqrt(2)):
            assert projectively_equivalent(F, bracket_twist(F, alpha)).alpha == as_exact(alpha)
        for I, k in ((I2, 3), (I3, 2)):
            assert projectively_equivalent(Adic(I), Adic(I**k)).alpha == k
        S = StairOneVar(sqrt(2), 2)
        assert projectively_equivalent(S, DV(((1,), sqrt(2)))).alpha == 1
        for pairs, want in ((THIN_F, (100, 101)), (THIN_3, (100, 101, 0))):
            res = projectively_equivalent(DV(*pairs), DV(*pairs[:2]))
            assert res.alpha is None and res.counterexample == want


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
