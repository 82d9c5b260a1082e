import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samfilt
import samfilt.exactnum
from samfilt import (
    INF,
    ExactReal,
    MixedRadicalError,
    ParseError,
    PlusInfinity,
    as_exact,
    ceil_of,
    floor_of,
    format_scalar,
    parse_scalar,
    sqrt,
)
from samfilt.exactnum import ceil_mul
from samfilt.errors import PreconditionError


def ER(p, q=0, d=0, r=1):
    return ExactReal(p, q, d, r)


class TestConstruction:
    def test_integer(self):
        x = ER(7)
        assert x.is_rational and x.is_integer
        assert x == 7

    def test_fraction_normalization(self):
        x = ER(6, 0, 0, 4)
        assert x.as_fraction() == Fraction(3, 2)

    def test_square_radicand_collapses(self):
        # sqrt(9) = 3 must normalize to a rational
        x = sqrt(9)
        assert x.is_integer and x == 3

    def test_square_factor_extracted(self):
        # sqrt(8) = 2*sqrt(2)
        x = sqrt(8)
        assert not x.is_rational
        assert x == ER(0, 2, 2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(Exception):
            ER(1, 0, 0, 0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(Exception):
            ER(0, 1, -2, 1)

    def test_from_fraction(self):
        assert as_exact(Fraction(-5, 10)) == ER(-1, 0, 0, 2)

    def test_large_radicand_rejected(self):
        # trial division up to sqrt(d) would run for hours on these
        with pytest.raises(PreconditionError):
            sqrt(10**20 + 39)
        with pytest.raises(PreconditionError):
            ER(1, 1, 10**45 + 7, 2)
        with pytest.raises(ParseError):
            parse_scalar("(0+1*sqrt(100000000000000000039))/1")
        assert sqrt(10**12) == 10**6
        assert parse_scalar("(0+1*sqrt(%d))/1" % 10**12) == 10**6

    @pytest.mark.parametrize(
        "text",
        ["1" + "0" * 5000, "-1/" + "7" * 4301, "(1+1*sqrt(2))/" + "3" * 4301],
        ids=["integer", "denominator", "surd-denominator"],
    )
    def test_long_integer_rejected(self, text):
        # refused before int(), whose own error names an interpreter setting
        with pytest.raises(ParseError) as info:
            parse_scalar(text)
        assert str(info.value) == "scalar %r... has an integer of more than 4300 digits" % text[:20]
        assert parse_scalar("9" * 4300) == 10**4300 - 1

    def test_as_exact_passthrough(self):
        assert as_exact(3) == ER(3)
        assert as_exact(Fraction(1, 3)) == ER(1, 0, 0, 3)
        x = sqrt(2)
        assert as_exact(x) is x


class TestArithmetic:
    def test_golden_ratio_identity(self):
        # phi^2 = phi + 1
        phi = ER(1, 1, 5, 2)
        assert phi * phi == phi + ER(1)

    def test_sqrt2_squares_to_two(self):
        assert sqrt(2) * sqrt(2) == ER(2)

    def test_same_field_sum(self):
        a = ER(1, 1, 2, 2)  # (1+sqrt2)/2
        b = ER(0, 1, 2, 3)  # sqrt2/3
        assert a + b == ER(3, 5, 2, 6)

    def test_mixed_radicals_rejected(self):
        with pytest.raises(MixedRadicalError):
            sqrt(2) + sqrt(3)
        with pytest.raises(MixedRadicalError):
            sqrt(2) * sqrt(3)

    def test_rational_with_surd_ok(self):
        assert ER(1, 0, 0, 2) + sqrt(2) == ER(1, 2, 2, 2)

    def test_division(self):
        # 1 / sqrt(2) = sqrt(2)/2
        assert ER(1) / sqrt(2) == ER(0, 1, 2, 2)
        # conjugate case: 1 / (1 + sqrt(2)) = sqrt(2) - 1
        assert ER(1) / (ER(1) + sqrt(2)) == ER(-1, 1, 2, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ER(1) / ER(0)

    def test_neg_sub(self):
        x = ER(2, -3, 7, 5)
        assert x - x == ER(0)
        assert -x + x == ER(0)

    def test_int_mixing(self):
        assert sqrt(2) * 2 == ER(0, 2, 2, 1)
        assert 2 * sqrt(2) == sqrt(8)
        assert sqrt(2) + 1 == ER(1, 1, 2, 1)


class TestCompare:
    def test_sign_exactness_near_tie(self):
        # 140/99 < sqrt(2) < 99/70 (continued-fraction convergents straddle);
        # floats alone cannot be trusted this close
        assert ER(140, 0, 0, 99) < sqrt(2)
        assert sqrt(2) < ER(99, 0, 0, 70)

    def test_sign_of_difference_of_surds(self):
        # 3*sqrt(2) vs 4.242640687119285... exact: 3*sqrt2 > 4242640/1000000
        lhs = 3 * sqrt(2)
        assert lhs > ER(4242640, 0, 0, 1000000)
        assert lhs < ER(4242641, 0, 0, 1000000)

    def test_compare_with_infinity(self):
        assert INF == INF and INF >= INF
        assert INF > sqrt(2) and sqrt(2) < INF
        assert -5 < INF and Fraction(7, 2) < INF

    def test_total_order_consistency(self):
        vals = [ER(0), sqrt(2), ER(3, 0, 0, 2), ER(-1, 1, 2, 1), ER(2)]
        s = sorted(vals)
        for a, b in zip(s, s[1:]):
            assert a <= b and not b < a

    def test_eq_hash(self):
        assert hash(ER(1, 0, 0, 2)) == hash(ER(2, 0, 0, 4))
        assert ER(4, 2, 2, 2) == ER(2, 1, 2, 1)


class TestFloorCeil:
    @pytest.mark.parametrize(
        "x,fl,ce",
        [
            (ER(7), 7, 7),
            (ER(-7, 0, 0, 2), -4, -3),
            (sqrt(2), 1, 2),
            (ER(0, -1, 2, 1), -2, -1),
            (ER(1, 1, 5, 2), 1, 2),  # golden ratio 1.618...
            (ER(0, 1, 2, 1) * 5, 7, 8),  # 5*sqrt2 = 7.07...
        ],
    )
    def test_values(self, x, fl, ce):
        assert x.floor() == fl
        assert x.ceil() == ce

    def test_floor_of_integeriness(self):
        # an irrational can never sit exactly on an integer
        x = sqrt(2) * 100
        assert x.floor() == 141 and x.ceil() == 142

    def test_floor_ceil_helpers(self):
        assert floor_of(Fraction(7, 2)) == 3
        assert ceil_of(Fraction(7, 2)) == 4
        assert floor_of(5) == ceil_of(5) == 5

    def test_ceil_mul_exactness(self):
        # ceil(sqrt2 * m) for m = 1..12 against integer-sqrt arithmetic
        for m in range(1, 13):
            want = math.isqrt(2 * m * m)
            if want * want < 2 * m * m:
                want += 1
            assert ceil_mul(sqrt(2), m) == want

    def test_ceil_mul_zero_and_bad(self):
        assert ceil_mul(Fraction(3, 2), 0) == 0
        with pytest.raises(PreconditionError):
            ceil_mul(Fraction(-1, 2), 3)
        with pytest.raises(PreconditionError):
            ceil_mul(Fraction(1, 2), -1)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,val",
        [
            ("5", ER(5)),
            ("-3", ER(-3)),
            ("3/2", ER(3, 0, 0, 2)),
            ("-7/4", ER(-7, 0, 0, 4)),
            ("(0+1*sqrt(2))/1", sqrt(2)),
            ("(1+1*sqrt(5))/2", ER(1, 1, 5, 2)),
            ("(2-3*sqrt(7))/5", ER(2, -3, 7, 5)),
            ("inf", INF),
        ],
    )
    def test_parse(self, text, val):
        got = parse_scalar(text)
        if isinstance(val, PlusInfinity):
            assert isinstance(got, PlusInfinity)
        else:
            assert got == val

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "(1+0*sqrt(2))/1", "(1+1*sqrt(1))/2", "sqrt(2)", "1.5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    def test_format_round_trip(self):
        for x in [ER(5), ER(-3, 0, 0, 7), sqrt(2), ER(1, 1, 5, 2), ER(2, -3, 7, 5)]:
            assert parse_scalar(format_scalar(x)) == x
        assert format_scalar(INF) == "inf"


class TestInfinity:
    def test_singleton_repr(self):
        assert str(INF) == "inf"
        assert isinstance(INF, PlusInfinity)


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_rational_arithmetic_matches_fraction(a, b):
    ea, eb = as_exact(a), as_exact(b)
    assert (ea + eb).as_fraction() == a + b
    assert (ea - eb).as_fraction() == a - b
    assert (ea * eb).as_fraction() == a * b
    if b != 0:
        assert (ea / eb).as_fraction() == a / b
    assert (ea < eb, ea == eb, ea > eb) == (a < b, a == b, a > b)


@settings(deadline=None)  # the first draw of 999999999989 factors it, about 0.3 s
@given(
    st.integers(-10**30, 10**30),
    st.integers(-10**20, 10**20),
    st.sampled_from([2, 3, 5, 6, 7, 10, 30021, 999999999989]),
    st.integers(1, 10**20),
)
def test_floor_brackets_value(p, q, d, r):
    x = ExactReal(p, q, d, r)
    f = x.floor()
    assert ER(f) <= x < ER(f + 1)
    c = x.ceil()
    assert ER(c - 1) < x <= ER(c)
    assert f <= c <= f + 1


@given(
    st.integers(-200, 200),
    st.integers(-30, 30),
    st.sampled_from([2, 3, 5, 6, 7, 10]),
    st.integers(1, 40),
)
def test_float_agrees_with_exact_sign(p, q, d, r):
    x = ExactReal(p, q, d, r)
    approx = (p + q * math.sqrt(d)) / r
    if abs(approx) > 1e-9:
        assert (x.sign() > 0) == (approx > 0)


FRACS = st.fractions(min_value=-60, max_value=60, max_denominator=30)


def surd(a, b, d):
    """a + b*sqrt(d) for Fractions a, b."""
    r = a.denominator * b.denominator
    return ExactReal(int(a * r), int(b * r), d, r)


def model_of(x, d):
    """(a, b) with x == a + b*sqrt(d)."""
    assert x.q == 0 or x.d == d
    return Fraction(x.p, x.r), Fraction(x.q, x.r)


def model_sign(a, b, d):
    """Sign of a + b*sqrt(d), decided by integer square roots only."""
    r = a.denominator * b.denominator
    p, q = int(a * r), int(b * r)
    if q == 0:
        return (p > 0) - (p < 0)
    s = math.isqrt(q * q * d)  # s < |q|*sqrt(d) < s + 1, since d is not a square
    lo, hi = (p + s, p + s + 1) if q > 0 else (p - s - 1, p - s)
    return 1 if lo >= 0 else -1 if hi <= 0 else None


@given(FRACS, FRACS, FRACS, FRACS, st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_surd_arithmetic_matches_pair_model(a1, b1, a2, b2, d):
    x, y = surd(a1, b1, d), surd(a2, b2, d)
    assert model_of(x + y, d) == (a1 + a2, b1 + b2)
    assert model_of(x - y, d) == (a1 - a2, b1 - b2)
    assert model_of(x * y, d) == (a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1)
    norm = a2 * a2 - b2 * b2 * d  # zero only when y is
    if norm != 0:
        want = ((a1 * a2 - b1 * b2 * d) / norm, (a2 * b1 - a1 * b2) / norm)
        assert model_of(x / y, d) == want
    for (a, b), z in (((a1, b1), x), ((a1 - a2, b1 - b2), x - y)):
        assert z.sign() == model_sign(a, b, d)
    assert (x < y) == (model_sign(a1 - a2, b1 - b2, d) < 0)


def test_public_names_resolve():
    # "import *" raises AttributeError on an __all__ entry that does not resolve
    for mod in (samfilt, samfilt.exactnum):
        scope = {}
        exec("from %s import *" % mod.__name__, scope)
        assert set(mod.__all__) <= set(scope)


def test_radicand_is_factored_once():
    # a result's radicand is its operands', so over 1,000 results in
    # Q(sqrt(999999999989)) trial-divide it at most once
    split = samfilt.exactnum._squarefree_split
    misses = split.cache_info().misses
    x = ER(1, 1, 999999999989, 2)
    results = [x * k - x / (k + 1) for k in range(1, 335)]
    assert all(y.d == 999999999989 for y in results)
    assert split.cache_info().misses - misses <= 1
