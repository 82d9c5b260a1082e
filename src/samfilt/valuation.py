"""Monomial valuations.

A monomial valuation is given by a strictly positive integer weight vector
w; it sends a monomial x^e to w.e and a polynomial to the minimum over its
support.  Its valuation ideals {e : w.e >= T}, and their intersections, are
system_level, defined with the monomial ideals and re-exported here.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DimensionMismatchError, ParseError, PreconditionError
from .exactnum import INF, ExactReal, as_exact
from .monomial import MonomialIdeal, SupportPoly, system_level


class MonomialValuation:
    """Weight-vector valuation v(x^e) = w . e with all weights >= 1."""

    __slots__ = ("w",)

    def __init__(self, w: Sequence[int]):
        t = tuple(w)
        if not t:
            raise PreconditionError("weight vector must be nonempty")
        for x in t:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise PreconditionError("weights must be positive integers")
        object.__setattr__(self, "w", t)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MonomialValuation is immutable")

    @property
    def n(self) -> int:
        return len(self.w)

    def value_exponent(self, e: Sequence[int]) -> int:
        if len(e) != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return sum(a * b for a, b in zip(self.w, e))

    def value(self, f: SupportPoly):
        """Minimum weight over the support; +inf on the zero polynomial."""
        if f.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        if f.is_zero:
            return INF
        return min(self.value_exponent(e) for e in f.exps)

    def value_of_ideal(self, ideal: MonomialIdeal):
        """min over the ideal; 0 for the unit ideal, +inf for the zero ideal."""
        if ideal.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        if ideal.is_zero:
            return INF
        w = self.w
        return min([sum(map(operator.mul, w, g)) for g in ideal.gens])

    def to_json(self) -> dict:
        return {"w": list(self.w)}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialValuation":
        try:
            w = data["w"]
        except (TypeError, KeyError) as exc:
            raise ParseError("valuation JSON needs 'w'") from exc
        try:
            return cls(tuple(w))
        except (PreconditionError, TypeError) as exc:
            raise ParseError("valuation JSON: %s" % exc) from exc

    def __eq__(self, other):
        if not isinstance(other, MonomialValuation):
            return NotImplemented
        return self.w == other.w

    def __hash__(self):
        return hash(self.w)

    def __repr__(self):
        return "MonomialValuation(%r)" % (self.w,)


def primitive_pair(v: MonomialValuation, a) -> tuple[MonomialValuation, ExactReal]:
    """Divide (w, a) by gcd(w); the ratio w/a and hence all orders and
    asymptotic orders are unchanged."""
    a = as_exact(a)
    if a.sign() <= 0:
        raise PreconditionError("scale must be positive")
    g = math.gcd(*v.w) if len(v.w) > 1 else v.w[0]
    if g == 1:
        return v, a
    return MonomialValuation(tuple(x // g for x in v.w)), a / g
