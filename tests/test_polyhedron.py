"""Every exact engine answers from one polyhedron P (Filtration._rows and
_points).  The answers must match the per-engine formulas the library
used before, kept in oracles as *_by_engine, on random engines: adic in
one to four variables, discrete valued with sqrt(2) scales, stairs with
shifts, and twist chains with rational and sqrt(2) factors."""

from fractions import Fraction

import pytest

from samfilt import (
    Adic,
    DimensionMismatchError,
    DiscreteValued,
    MonomialIdeal,
    MonomialValuation,
    NotPrimaryError,
    PreconditionError,
    StairOneVar,
    SupportPoly,
    Table,
    Twist,
    filtration,
    projectively_equivalent,
    saturation_check,
    sqrt,
)
from samfilt.exactnum import as_exact

from conftest import reproducer
from oracles import (
    multiplicity_by_engine,
    nubar_by_engine,
    saturated_level_by_engine,
    value_limit_by_engine,
)

SCALES = [1, 2, Fraction(3, 2), Fraction(5, 3), sqrt(2), 1 + sqrt(2)]
FACTORS = [Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2, sqrt(2), sqrt(2) / 2]


def random_adic(rng, n):
    top = {1: 9, 2: 6, 3: 4, 4: 3}[n]
    gens = []
    for j in range(n):
        if rng.random() < 0.9:  # now and then a variable without a pure power
            gens.append(tuple(rng.randint(1, top) if k == j else 0 for k in range(n)))
    for _ in range(rng.randint(0, 3)):
        gens.append(tuple(rng.randint(0, top - 1) for _ in range(n)))
    gens = [g for g in gens if any(g)] or [(1,) * n]
    return Adic(MonomialIdeal(n, gens))


def random_dv(rng, n):
    pairs = [
        (MonomialValuation(tuple(rng.randint(1, 4) for _ in range(n))), rng.choice(SCALES))
        for _ in range(rng.randint(1, 4))
    ]
    # one field of radicals per engine: sqrt(2) scales, or rational ones
    if rng.random() < 0.5:
        pairs = [(v, as_exact(a)) for v, a in pairs if as_exact(a).is_rational] or [
            (MonomialValuation((1,) * n), as_exact(1))
        ]
    return DiscreteValued(pairs)


def random_engine(rng, i):
    kind = i % 3
    if kind == 0:
        F = random_adic(rng, 1 + (i // 3) % 4)
    elif kind == 1:
        F = random_dv(rng, 1 + (i // 3) % 3)
    else:
        F = StairOneVar(rng.choice(SCALES), rng.randint(0, 3))
    for _ in range(rng.choice((0, 0, 1, 2))):
        F = Twist(F, rng.choice(FACTORS))
    return F


def random_poly(rng, n):
    exps = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    return SupportPoly(n, exps)


def test_answers_match_the_per_engine_formulas(rng):
    for i in range(330):
        F = random_engine(rng, i)
        case = reproducer({"i": i, "engine": F.to_json()})
        ts = (1,) if F.n == 4 else (1, 2, Fraction(3, 2))
        for t in ts:
            for strict in (False, True):
                want = saturated_level_by_engine(F, t, strict)
                assert F.saturated_level(t, strict) == want, case
        w = tuple(rng.randint(1, 4) for _ in range(F.n))
        assert F.value_limit(MonomialValuation(w)) == value_limit_by_engine(F, w), case
        f = random_poly(rng, F.n)
        assert F.asymptotic_order(f, None).value == nubar_by_engine(F, f), case
        try:
            want = multiplicity_by_engine(F)
        except NotPrimaryError:
            with pytest.raises(NotPrimaryError, match="no pure power"):
                F.multiplicity()
        else:
            assert F.multiplicity() == want, case


def test_nubar_and_value_limit_check_the_dimension():
    f, v = SupportPoly.monomial((1, 1, 1)), MonomialValuation((1, 1, 1))
    for F in (DiscreteValued([((1, 2), 1)]), StairOneVar(2, 1), Twist(StairOneVar(2, 0), 3)):
        with pytest.raises(DimensionMismatchError):
            F.asymptotic_order(f, None)
        with pytest.raises(DimensionMismatchError):
            F.value_limit(v)


def test_tables_have_no_polyhedron():
    T = Table({1: MonomialIdeal(1, [(1,)]), 2: MonomialIdeal(1, [(2,)])}, 2)
    for F in (T, Twist(T, 2)):
        assert F._rows() is None and F._points() is None
        assert F.value_limit(MonomialValuation((1,))) is None
        for ask in (lambda: F.saturated_level(1), F.multiplicity, lambda: F.closure_level(1)):
            with pytest.raises(PreconditionError, match="exact engine"):
                ask()


def test_deep_twist_chain_answers_like_its_root():
    # every walk over a twist chain is a loop: 3,000 twists by 1 cost no stack
    A = F = Adic(MonomialIdeal(2, [(2, 0), (0, 3)]))
    for _ in range(3000):
        F = Twist(F, 1)
    f = SupportPoly.monomial((3, 4))
    assert F.level(2) == A.level(2)
    assert F.order(f) == A.order(f)
    assert F.asymptotic_order(f, None).value == A.asymptotic_order(f, None).value
    assert F.saturated_level(2) == A.saturated_level(2)
    assert F.closure_level(2) == A.closure_level(2)
    assert F.multiplicity() == A.multiplicity()
    v = MonomialValuation((1, 1))
    assert F.value_limit(v) == A.value_limit(v)


def test_twist_factors_multiply_before_the_root_scales():
    # sqrt(3) * sqrt(3) / 2 = 3/2 is rational, so P = 3/2 * [1 + sqrt(2), inf)
    # needs one radical although the factors and the stair's slope need two
    F = StairOneVar(1 + sqrt(2), 1)
    for alpha in (Fraction(1, 2), sqrt(3), sqrt(3)):
        F = Twist(F, alpha)
    assert F.multiplicity() == Fraction(3, 2) * (1 + sqrt(2))
    assert F.value_limit(MonomialValuation((2,))) == 3 * (1 + sqrt(2))
    assert F.saturated_level(2).gens == ((8,),)


def test_discrete_valued_vertices_are_found_once(monkeypatch):
    # value_limit, multiplicity, saturation_check and projectively_equivalent
    # all read the vertices: one cone_rays run per engine serves them all
    calls, cone_rays = [], filtration.cone_rays

    def counted(rows, n):
        calls.append(n)
        return cone_rays(rows, n)

    monkeypatch.setattr(filtration, "cone_rays", counted)
    F = DiscreteValued([((1, 2), 1), ((2, 1), sqrt(2)), ((1, 1), Fraction(4, 5))])
    assert F._points() is F._points()
    F.value_limit(MonomialValuation((1, 1)))
    F.multiplicity()
    saturation_check(F, [(1, 1), (1, 3)], 2)
    assert projectively_equivalent(F, Adic(MonomialIdeal(2, [(2, 0), (0, 3)]))).counterexample
    assert calls == [2]
