"""Exact scalar arithmetic: rationals and quadratic irrationals.

A value is either rational p/r or a surd (p + q*sqrt(d))/r with d squarefree,
d >= 2 and q != 0.  Integers are arbitrary precision, so nothing ever wraps
around.  Comparisons, floors and ceilings are decided exactly by integer sign
and squaring arguments; no floating point enters any decision.

Arithmetic is closed within a single quadratic extension Q(sqrt(d)).
Combining two distinct radicals raises MixedRadicalError.  A radicand is
reduced to its squarefree part by trial division, so radicands above
MAX_RADICAND (10^12, at most 10^6 divisions) are refused: PreconditionError
from sqrt and ExactReal, ParseError from parse_scalar, which also refuses
integers of more than MAX_DIGITS digits (int()'s default limit);
format_scalar raises LimitError rather than write one.  The comparison
operators order INF, ints, Fractions and ExactReals with one another.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import LimitError, MixedRadicalError, ParseError, PreconditionError

__all__ = [
    "ExactReal",
    "INF",
    "PlusInfinity",
    "as_exact",
    "ceil_mul",
    "ceil_of",
    "floor_of",
    "parse_scalar",
    "format_scalar",
    "sqrt",
]

MAX_RADICAND = 10**12
MAX_DIGITS = 4300
_DIGIT_CAP = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d0) with d == s*s*d0 and d0 squarefree."""
    if d > MAX_RADICAND:
        raise PreconditionError("radicand exceeds 10^12")
    s, d0 = 1, d
    k = 2
    while k * k <= d0:
        k2 = k * k
        while d0 % k2 == 0:
            d0 //= k2
            s *= k
        k += 1
    return s, d0


def _floor_sqrt_scaled(q: int, d: int) -> int:
    """Exact floor(q * sqrt(d)) for integer q (any sign), d >= 2."""
    if q == 0:
        return 0
    m = q * q * d
    root = math.isqrt(m)
    if q > 0:
        return root
    # floor(-x) = -ceil(x)
    return -root if root * root == m else -root - 1


class ExactReal:
    """Immutable exact number (p + q*sqrt(d)) / r.

    Rational values are stored with q == 0 and d == 0.  Construction
    normalizes: r > 0, gcd(p, q, r) == 1, d squarefree; perfect-square
    radicals collapse to rationals.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if q == 0:
            d = 0
        else:
            if d < 2:
                raise PreconditionError("radicand must be >= 2 for a surd part")
            s, d0 = _squarefree_split(d)
            if d0 == 1:
                p, q, d = p + q * s, 0, 0
            else:
                q, d = q * s, d0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactReal is immutable")

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 0 and self.r == 1

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise PreconditionError("surd has no rational value")
        return Fraction(self.p, self.r)

    # -- arithmetic ---------------------------------------------------

    def _join_radical(self, other: "ExactReal") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise MixedRadicalError(
                "cannot combine sqrt(%d) with sqrt(%d)" % (self.d, other.d)
            )
        return self.d

    def __add__(self, other):
        if isinstance(other, PlusInfinity):
            return INF
        other = as_exact(other)
        d = self._join_radical(other)
        return ExactReal(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            d,
            self.r * other.r,
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactReal(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        return self + (-as_exact(other))

    def __rsub__(self, other):
        return as_exact(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, PlusInfinity):
            return INF * self
        other = as_exact(other)
        d = self._join_radical(other)
        return ExactReal(
            self.p * other.p + self.q * other.q * (d if d else 0),
            self.p * other.q + self.q * other.p,
            d,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "ExactReal":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.q == 0:
            return ExactReal(self.r, 0, 0, self.p)
        # 1 / ((p + q sqrt d)/r) = r (p - q sqrt d) / (p^2 - q^2 d)
        den = self.p * self.p - self.q * self.q * self.d
        return ExactReal(self.r * self.p, -self.r * self.q, self.d, den)

    def __truediv__(self, other):
        return self * as_exact(other)._inverse()

    def __rtruediv__(self, other):
        return as_exact(other) * self._inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        # sign of p + q*sqrt(d), r > 0
        if p >= 0 and q > 0:
            return 1
        if p <= 0 and q < 0:
            return -1
        # opposite signs: p^2 against q^2 d decides
        lhs, rhs = p * p, q * q * self.d
        if lhs == rhs:
            return 0  # impossible for squarefree d >= 2, kept for safety
        if p > 0:  # q < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def _cmp(self, other) -> int:
        other = as_exact(other)
        if self.q == other.q == 0:
            lhs = self.p * other.r
            rhs = other.p * self.r
            return (lhs > rhs) - (lhs < rhs)
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, PlusInfinity):
            return False
        if not isinstance(other, (ExactReal, int, Fraction)):
            return NotImplemented
        o = as_exact(other)
        return (self.p, self.q, self.d, self.r) == (o.p, o.q, o.d, o.r)

    def __ne__(self, other):
        res = self.__eq__(other)
        return res if res is NotImplemented else not res

    def __lt__(self, other):
        if isinstance(other, PlusInfinity):
            return True
        return self._cmp(other) < 0

    def __le__(self, other):
        if isinstance(other, PlusInfinity):
            return True
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if isinstance(other, PlusInfinity):
            return False
        return self._cmp(other) > 0

    def __ge__(self, other):
        if isinstance(other, PlusInfinity):
            return False
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    # -- floor / ceiling ----------------------------------------------

    def floor(self) -> int:
        if self.q == 0:
            return self.p // self.r
        k = (self.p + _floor_sqrt_scaled(self.q, self.d)) // self.r
        # correct the estimate by exact comparison (at most one step off)
        while self._cmp(k + 1) >= 0:
            k += 1
        while self._cmp(k) < 0:
            k -= 1
        return k

    def ceil(self) -> int:
        return -((-self).floor())

    def __repr__(self):
        return "ExactReal(%r)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


class PlusInfinity:
    """Order value of 0: larger than every ExactReal, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, PlusInfinity)

    def __hash__(self):
        return hash("samfilt-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, PlusInfinity)

    def __gt__(self, other):
        return not isinstance(other, PlusInfinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, PlusInfinity):
            return self
        if as_exact(other).sign() <= 0:
            raise PreconditionError("infinity times a nonpositive value")
        return self

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PlusInfinity):
            raise PreconditionError("infinity divided by infinity")
        if as_exact(other).sign() <= 0:
            raise PreconditionError("infinity divided by a nonpositive value")
        return self

    def __neg__(self):
        raise PreconditionError("minus infinity is not modeled")

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"


INF = PlusInfinity()

Scalar = Union[int, Fraction, ExactReal]
ScalarOrInf = Union[Scalar, PlusInfinity]


def as_exact(x: Scalar) -> ExactReal:
    """Coerce int or Fraction to ExactReal; ExactReal passes through."""
    if isinstance(x, ExactReal):
        return x
    if isinstance(x, bool):
        raise PreconditionError("bool is not a scalar")
    if isinstance(x, int):
        return ExactReal(x)
    if isinstance(x, Fraction):
        return ExactReal(x.numerator, 0, 0, x.denominator)
    raise PreconditionError("not an exact scalar: %r" % (x,))


def floor_of(x: Scalar) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    return as_exact(x).floor()


def ceil_of(x: Scalar) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return -((-x.numerator) // x.denominator)
    return as_exact(x).ceil()


def ceil_mul(alpha: Scalar, m: int) -> int:
    """Exact ceil(alpha * m) for a nonnegative integer m and alpha > 0."""
    alpha = as_exact(alpha)
    if alpha.sign() <= 0:
        raise PreconditionError("twist exponent must be positive")
    if m < 0:
        raise PreconditionError("level index must be nonnegative")
    if m == 0:
        return 0
    return (alpha * m).ceil()


def sqrt(d: int) -> ExactReal:
    """Exact square root of a nonnegative integer."""
    if d < 0:
        raise PreconditionError("negative radicand")
    if d in (0, 1):
        return ExactReal(d)
    return ExactReal(0, 1, d, 1)


_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")
_SURD_RE = re.compile(
    r"^\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(\d+)$"
)
_DIGITS_RE = re.compile(r"\d+")


def _quoted(text: str) -> str:
    """The first 20 characters of an input, quoted, for an error message."""
    return "%r..." % text[:20] if len(text) > 20 else repr(text)


def parse_scalar(text: str) -> ScalarOrInf:
    """Parse 'p', 'p/q', '(p+q*sqrt(d))/r' or 'inf'."""
    s = text.strip()
    if s == "inf":
        return INF
    if len(s) > MAX_DIGITS and max(map(len, _DIGITS_RE.findall(s)), default=0) > MAX_DIGITS:
        raise ParseError(
            "scalar %s has an integer of more than %d digits" % (_quoted(s), MAX_DIGITS)
        )
    if _INT_RE.match(s):
        return ExactReal(int(s))
    m = _RAT_RE.match(s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ParseError("zero denominator in %s" % _quoted(text))
        return ExactReal(num, 0, 0, den)
    m = _SURD_RE.match(s)
    if m:
        p = int(m.group(1))
        q = int(m.group(3)) * (1 if m.group(2) == "+" else -1)
        d = int(m.group(4))
        r = int(m.group(5))
        if r == 0:
            raise ParseError("zero denominator in %s" % _quoted(text))
        if d < 2:
            raise ParseError("radicand must be >= 2 in %s" % _quoted(text))
        if q == 0:
            raise ParseError("zero surd coefficient in %s" % _quoted(text))
        if d > MAX_RADICAND:
            raise ParseError("radicand exceeds 10^12 in %s" % _quoted(text))
        return ExactReal(p, q, d, r)
    raise ParseError("cannot parse scalar %s" % _quoted(text))


def format_scalar(x: ScalarOrInf) -> str:
    """Render a scalar in the grammar accepted by parse_scalar."""
    if isinstance(x, PlusInfinity):
        return "inf"
    x = as_exact(x)
    if max(abs(x.p), abs(x.q), x.r) >= _DIGIT_CAP:
        raise LimitError(
            "cannot write a scalar with an integer of more than %d digits" % MAX_DIGITS
        )
    if x.q == 0:
        return "%d/%d" % (x.p, x.r)
    sign = "+" if x.q > 0 else "-"
    return "(%d%s%d*sqrt(%d))/%d" % (x.p, sign, abs(x.q), x.d, x.r)
