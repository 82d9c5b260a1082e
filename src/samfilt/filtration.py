"""Filtrations of monomial ideals: I_0 = R, I_a * I_b inside I_{a+b}.

Five engines:

* Adic(I): levels are the powers I^m.
* DiscreteValued(pairs): levels are intersections of valuation ideals,
  I_m = {e : w_i . e >= ceil(m * a_i) for every pair (w_i, a_i)}.
* Twist(base, alpha): levels I_m = base level at ceil(alpha * m).  Nested
  twists are kept nested; ceil(alpha*ceil(beta*m)) differs from
  ceil(alpha*beta*m), so flattening would change the filtration.
* StairOneVar(alpha, c): one variable, I_m = (x^(ceil(alpha*m)+c)).
* Table(levels, horizon): finitely many explicit levels; queries beyond the
  horizon raise, and membership at the horizon yields an AtLeast marker.

order(F, f) is the largest m with f in I_m (PlusInfinity when f lies in
every level).  Level results are cached per filtration; with the GIL a
plain dict is safe for concurrent readers, at worst a level is computed
twice.

An adic order builds no level: with t = floor(nubar(x^e)), Briancon-Skoda
gives t - n + 1 <= order(x^e) <= t.  Tests from t down strip generators
depth first; one that holds costs about a state per generator stripped,
one that fails every remainder between two levels (3-D: seconds, no budget).

Every exact engine has one polyhedron P in the orthant, P + orthant =
P, with nubar(x^e) the largest t such that e is in t*P: NP(I) for
Adic(I), {x >= 0 : w_i . x >= a_i} for DiscreteValued, [alpha, inf) for
a stair and alpha*P of the base for a twist.  An engine supplies P by
_rows, the rows (l, c), c > 0, with P = {x >= 0 : l . x >= c}, and
_points, a point set of P holding every vertex.  Filtration answers
from P, exactly and in any dimension: asymptotic_order (the least
l.e/c), saturated_level ({nubar >= t}, or {nubar > t} when strict),
value_limit (lim v(I_n)/n, the least v over P) and multiplicity (d!
covol(P)).  Table, and twists over one, have no P: None from both
means bounds only (the nubar estimator, PreconditionError otherwise).

closure_level(m), the graded integral closure J_m = {e : r*e in
closure(I_{r*m}) for some r >= 1}, is exact over every r and lives once,
in Filtration.  On a twist chain over a root engine, r*e is in
closure(I_{r*m}) iff nubar(e) >= m*rho(r), where rho(r) >= 1 is the
rounding the chain's ceilings (and a stair's shift c) add at scale r and
tends to 1.  So J_m is the saturated level K_m when rho(r) = 1 for some
r, which holds exactly when the root reaches it (Adic and DiscreteValued
at r = 1, a stair when c = 0) and every twist factor is rational; it is
the strict level {nubar > m} otherwise.  Each engine answers which case
it is in by _bound_reached.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    ConstructionError,
    DimensionMismatchError,
    HorizonExceededError,
    NotPrimaryError,
    ParseError,
    PreconditionError,
)
from .exactnum import (
    INF,
    ExactReal,
    PlusInfinity,
    as_exact,
    ceil_mul,
    format_scalar,
    parse_scalar,
)
from .monomial import (
    MonomialIdeal,
    SupportPoly,
    cone_rays,
    newton_facets,
    normalized_covolume,
    np_value,
)
from .valuation import MonomialValuation, system_level


@dataclass(frozen=True)
class AtLeast:
    """Order result 'at least bound': the element lies in the deepest
    stored level, so only a lower bound for the order is known."""

    bound: int

    def __str__(self):
        return ">= %d" % self.bound


OrderValue = Union[int, PlusInfinity, AtLeast]


class NubarResult:
    """Value of the asymptotic order, with how it was obtained.

    kind is "exact" (closed form) or "lower_bound" (best ratio
    order(f^n)/n seen, achieved at witness_n).  truncated marks lower
    bounds that were capped by a table horizon, so enlarging n_max alone
    cannot improve them.
    """

    __slots__ = ("value", "kind", "witness_n", "truncated")

    def __init__(self, value, kind, witness_n=None, truncated=False):
        if not isinstance(value, PlusInfinity):
            value = as_exact(value)
        self.value = value
        self.kind = kind
        self.witness_n = witness_n
        self.truncated = truncated

    def __str__(self):
        if self.kind == "exact":
            return "%s (exact)" % format_scalar(self.value)
        tail = " truncated" if self.truncated else ""
        return ">= %s (witness n=%d%s)" % (
            format_scalar(self.value),
            self.witness_n,
            tail,
        )

    def __repr__(self):
        return "NubarResult(%s)" % self

    def to_json(self):
        return {
            "value": format_scalar(self.value),
            "kind": self.kind,
            "witness_n": self.witness_n,
            "truncated": self.truncated,
        }


_BOUNDS_ONLY = "%s need an exact engine (table filtrations only determine bounds)"


class Filtration:
    """Base class; subclasses implement _level and order, and exact engines
    supply their polyhedron P by _rows and _points."""

    n: int

    def __init__(self):
        self._cache: dict[int, MonomialIdeal] = {}

    def level(self, m: int) -> MonomialIdeal:
        if m < 0:
            raise PreconditionError("level index must be nonnegative")
        ideal = self._cache.get(m)
        if ideal is None:
            ideal = self._level(m)
            self._cache[m] = ideal
        return ideal

    def _level(self, m: int) -> MonomialIdeal:
        raise NotImplementedError

    def order(self, f: SupportPoly) -> OrderValue:
        raise NotImplementedError

    def _rows(self):
        """P's rows (l, c), c > 0, with P = {x >= 0 : l.x >= c}; None if no P."""
        return None

    def _points(self):
        """A point set of P holding every vertex; None when there is no P."""
        return None

    def _exact_rows(self, what: str) -> list:
        rows = self._rows()
        if rows is None:
            raise PreconditionError(_BOUNDS_ONLY % what)
        return rows

    def asymptotic_order(self, f: SupportPoly, n_max: int) -> NubarResult:
        """nubar on a nonzero f: the least l.e/c, or the estimator's bound."""
        rows = self._rows()
        if rows is None:
            return nubar_estimate(self, f, n_max)
        exps = self._check_elem(f).exps
        least = (as_exact(min(sum(map(operator.mul, l, e)) for e in exps)) / c
                 for l, c in rows)
        return NubarResult(min(least, default=INF), "exact")

    def saturated_level(self, t, strict: bool = False) -> MonomialIdeal:
        """{e : nubar(x^e) >= t} for t > 0, or {nubar(x^e) > t} if strict."""
        rows = self._exact_rows("saturated levels")
        return system_level(self.n, [(l, c * t, strict) for l, c in rows])

    def _bound_reached(self) -> bool:
        """Whether some witness r has rho(r) = 1; with a P, r = 1 does."""
        self._exact_rows("integral closure levels")
        return True

    def closure_level(self, m: int) -> MonomialIdeal:
        """Graded integral closure at level m >= 1, exact over every r."""
        return self.saturated_level(m, strict=not self._bound_reached())

    def value_limit(self, v: MonomialValuation):
        """lim v(I_n)/n = min v.x over P: at a vertex, since v >= 0 and
        P + orthant = P; INF when P is empty, None when there is no P."""
        points = self._points()
        if points is None:
            return None
        values = [v.value_exponent(p) for p in points]
        return as_exact(min(values)) if values else INF

    def multiplicity(self) -> ExactReal:
        """e = lim d! colength(I_n) / n^d = d! covol(P), from one exact
        triangulation; infinite when P has no vertex on some axis."""
        rows = self._exact_rows("exact multiplicities")
        points = self._points()
        for j in range(self.n):
            if all(any(x != 0 for k, x in enumerate(p) if k != j) for p in points):
                raise NotPrimaryError("infinite multiplicity: no pure power of x_%d"
                                      % (j + 1))
        return normalized_covolume(points, rows)

    def _check_elem(self, f: SupportPoly) -> SupportPoly:
        if not isinstance(f, SupportPoly):
            raise PreconditionError("expected a SupportPoly")
        if f.n != self.n:
            raise DimensionMismatchError("dimension mismatch")
        return f

    def to_json(self) -> dict:
        raise NotImplementedError


class Adic(Filtration):
    """Powers of a fixed monomial ideal; P is its Newton polyhedron."""

    def __init__(self, ideal: MonomialIdeal):
        super().__init__()
        self.ideal = ideal
        self.n = ideal.n

    def _level(self, m: int) -> MonomialIdeal:
        """I^m from the nearest cached power I^k below m.  If the gap
        I^(m-k) is cached too, as in a sweep that samples every g-th level
        after every level up to g, one product I^k * I^(m-k) answers and
        the levels in between are never built.  Otherwise I^m is
        multiplied up one factor at a time, caching every power on the
        way."""
        k = m
        while k > 0 and k not in self._cache:
            k -= 1
        if m - k in self._cache:
            return self._cache[k] * self._cache[m - k]
        ideal = self._cache[k] if k else MonomialIdeal.unit(self.n)
        for j in range(k + 1, m + 1):
            ideal = self._cache[j] = ideal * self.ideal
        return ideal

    def order(self, f: SupportPoly) -> OrderValue:
        f = self._check_elem(f)
        rows = self._rows()
        if f.is_zero or not rows:  # only the unit ideal has no rows
            return INF
        return min(self._order_exponent(rows, e) for e in f.min_support())

    def _order_exponent(self, rows, e: tuple) -> int:
        """Largest k with x^e in I^k, searched in the window (module doc)."""
        def floor_nubar(x):
            return min(sum(map(operator.mul, l, x)) // c for l, c in rows)
        foot = max(floor_nubar(e) - self.n + 1, 0)
        for k in range(floor_nubar(e), foot, -1):
            stack, owed = [(e, k)], {e: k}  # x^y must lie in I^owed[y]
            while stack:
                x, j = stack.pop()
                kids = []
                for g in self.ideal.gens:
                    y = tuple(map(operator.sub, x, g))
                    if min(y) < 0 or owed.get(y, j) < j:  # owed j - 1 or less already
                        continue
                    t = floor_nubar(y)
                    if j == 1 or t - self.n + 2 >= j:  # y in I^(j-1) for sure
                        return k
                    if t >= j - 1:  # else y is not in I^(j-1)
                        kids.append((t, y))
                for _, y in sorted(kids):  # the most slack is popped first
                    owed[y] = j - 1
                    stack.append((y, j - 1))
        return foot

    def asymptotic_order(self, f: SupportPoly, n_max: int) -> NubarResult:
        if not self.ideal.is_proper_nonzero:
            return super().asymptotic_order(f, n_max)
        return NubarResult(min(np_value(self.ideal, e) for e in f.min_support()), "exact")

    def _rows(self) -> list:
        if self.ideal.is_unit:
            return []
        if self.ideal.is_zero:
            return [((0,) * self.n, 1)]  # no point passes: P is empty
        return [(f[:-1], f[-1]) for f in newton_facets(self.ideal)]

    def _points(self) -> tuple:
        return self.ideal.gens

    def to_json(self) -> dict:
        return {"type": "adic", "ideal": self.ideal.to_json()}

    def __repr__(self):
        return "Adic(%r)" % (self.ideal,)


class DiscreteValued(Filtration):
    """Intersections of valuation ideals with per-valuation scales a_i.

    Level m >= 1 is the saturated level at m of P = {x >= 0 : w_i . x >=
    a_i}: the levels are integrally closed and equal to {nubar >= m}.
    """

    def __init__(self, pairs: Iterable[tuple[MonomialValuation, object]]):
        super().__init__()
        norm = []
        for v, a in pairs:
            if not isinstance(v, MonomialValuation):
                v = MonomialValuation(tuple(v))
            a = as_exact(a)
            if a.sign() <= 0:
                raise PreconditionError("scales a_i must be positive")
            norm.append((v, a))
        if not norm:
            raise PreconditionError("need at least one (valuation, scale) pair")
        n = norm[0][0].n
        for v, _ in norm:
            if v.n != n:
                raise DimensionMismatchError("valuations of mixed dimension")
        self.pairs = tuple(norm)
        self.n = n
        self._vertices = None

    def _level(self, m: int) -> MonomialIdeal:
        return self.saturated_level(m)  # every threshold is 0 at m = 0

    def order(self, f: SupportPoly) -> OrderValue:
        """max(floor(nubar(f)), 0) — the closed form for these levels."""
        f = self._check_elem(f)
        if f.is_zero:
            return INF
        return max(self.asymptotic_order(f, None).value.floor(), 0)

    def _rows(self) -> list:
        return [(v.w, a) for v, a in self.pairs]

    def _points(self) -> tuple:
        """The vertices of P, found once: x/s over the rays with s > 0 of
        the cone {(x, s) >= 0 : w_i . x >= a_i s}."""
        if self._vertices is None:
            rays = cone_rays([v.w + (-a,) for v, a in self.pairs], self.n)
            self._vertices = tuple(
                tuple(x / r[-1] for x in r[:-1]) for r in rays if r[-1] != 0)
        return self._vertices

    def to_json(self) -> dict:
        return {
            "type": "dv",
            "pairs": [
                {"w": list(v.w), "a": format_scalar(a)} for v, a in self.pairs
            ],
        }

    def __repr__(self):
        return "DiscreteValued(%r)" % (list(self.pairs),)


class Twist(Filtration):
    """Level reindexing I_m -> I_ceil(alpha*m); never flattened.  The chain
    of twists is resolved at construction into the engine under it and its
    factors, so no method walks it and its depth costs no stack."""

    def __init__(self, base: Filtration, alpha):
        super().__init__()
        alpha = as_exact(alpha)
        if alpha.sign() <= 0:
            raise PreconditionError("twist exponent must be positive")
        self.base = base
        self.alpha = alpha
        self.n = base.n
        # the factors innermost first, in one list per chain: a twist over
        # the outermost twist extends it, so k nested twists hold k factors
        # (a list per twist would hold k^2/2)
        if isinstance(base, Twist):
            self._root, self._factors = base._root, base._factors
            if len(self._factors) > base._depth:  # a second twist of base
                self._factors = self._factors[:base._depth]
            self._factors.append(alpha)
        else:
            self._root, self._factors = base, [alpha]
        self._depth = len(self._factors)

    @property
    def _alphas(self) -> list:
        """This factor, then the base's: outermost first."""
        return self._factors[self._depth - 1::-1]

    def _level(self, m: int) -> MonomialIdeal:
        for alpha in self._alphas:
            m = ceil_mul(alpha, m)
        return self._root.level(m)

    def order(self, f: SupportPoly) -> OrderValue:
        value = self._root.order(f)
        if isinstance(value, PlusInfinity):
            return INF
        bound = value.bound if isinstance(value, AtLeast) else value
        for alpha in reversed(self._alphas):
            bound = (as_exact(bound) / alpha).floor()
        return AtLeast(bound) if isinstance(value, AtLeast) else bound

    def asymptotic_order(self, f: SupportPoly, n_max: int) -> NubarResult:
        # the root's answer over each alpha: the twisted levels give weaker bounds
        inner = self._root.asymptotic_order(f, n_max)
        value = inner.value
        for alpha in reversed(self._alphas):
            value = value / alpha  # INF stays INF
        return NubarResult(value, inner.kind, inner.witness_n, inner.truncated)

    def _rows(self):
        rows, s = self._root._rows(), math.prod(self._alphas)
        return None if rows is None else [(l, s * c) for l, c in rows]

    def _points(self):
        pts, s = self._root._points(), math.prod(self._alphas)
        return None if pts is None else [[s * x for x in p] for p in pts]

    def _bound_reached(self) -> bool:
        # rho(r) = 1 needs alpha*k integral at the index k each twist reads
        # for witness r, which some multiple of r gives iff every alpha is
        # rational; the root is asked first, so a table root refuses
        return self._root._bound_reached() and all(a.is_rational for a in self._alphas)

    def to_json(self) -> dict:
        doc = self._root.to_json()
        for alpha in reversed(self._alphas):
            doc = {"type": "twist", "alpha": format_scalar(alpha), "base": doc}
        return doc

    def __repr__(self):
        return "Twist(" * self._depth + repr(self._root) + "".join(
            ", %s)" % alpha for alpha in reversed(self._alphas))


class StairOneVar(Filtration):
    """One-variable staircase I_m = (x^(ceil(alpha*m)+c)) with shift c >= 0."""

    def __init__(self, alpha, c: int):
        super().__init__()
        alpha = as_exact(alpha)
        if alpha.sign() <= 0:
            raise PreconditionError("alpha must be positive")
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise PreconditionError("c must be a nonnegative integer")
        self.alpha = alpha
        self.c = c
        self.n = 1

    def _level(self, m: int) -> MonomialIdeal:
        if m == 0:
            return MonomialIdeal.unit(1)
        return MonomialIdeal(1, [(ceil_mul(self.alpha, m) + self.c,)])

    def order(self, f: SupportPoly) -> OrderValue:
        f = self._check_elem(f)
        if f.is_zero:
            return INF
        c0 = f.order_1var()
        if c0 < self.c:
            return 0
        return (as_exact(c0 - self.c) / self.alpha).floor()

    def _rows(self) -> list:
        return [((1,), self.alpha)]

    def _points(self) -> list:
        return [(self.alpha,)]

    def _bound_reached(self) -> bool:
        # r*q >= ceil(alpha*k) + c holds on the slope q = alpha*k/r only
        # when c = 0; strictly above it some large r always works
        return self.c == 0

    def to_json(self) -> dict:
        return {"type": "stair1", "alpha": format_scalar(self.alpha), "c": self.c}

    def __repr__(self):
        return "StairOneVar(%s, %d)" % (self.alpha, self.c)


class Table(Filtration):
    """Explicit levels 1..horizon.

    With validate=True (the default, and always for JSON input) the level
    data is checked against the filtration axioms: descending chain and
    I_a * I_b inside I_{a+b} for a + b <= horizon.  Computed tables built
    internally skip the quadratic product check.
    """

    def __init__(
        self,
        levels: Union[Mapping[int, MonomialIdeal], Iterable[tuple[int, MonomialIdeal]]],
        horizon: int,
        validate: bool = True,
    ):
        super().__init__()
        if horizon < 1:
            raise PreconditionError("horizon must be >= 1")
        data = dict(levels.items() if isinstance(levels, Mapping) else levels)
        # the length check first: the range is then no longer than the input
        if len(data) != horizon or sorted(data) != list(range(1, horizon + 1)):
            raise ConstructionError("levels must cover exactly 1..horizon")
        # level 1 first: every other level is compared with its dimension
        for m in range(1, horizon + 1):
            if not isinstance(data[m], MonomialIdeal) or data[m].n != data[1].n:
                raise ConstructionError("level %d: bad ideal" % m)
        self.n = data[1].n
        self.horizon = horizon
        self._levels = data
        if validate:
            self._validate()

    def _validate(self):
        prev = MonomialIdeal.unit(self.n)
        for m in range(1, self.horizon + 1):
            if not self._levels[m] <= prev:
                raise ConstructionError(
                    "level %d is not contained in level %d" % (m, m - 1)
                )
            prev = self._levels[m]
        for a in range(1, self.horizon + 1):
            for b in range(a, self.horizon + 1 - a):
                prod = self._levels[a] * self._levels[b]
                if not prod <= self._levels[a + b]:
                    raise ConstructionError(
                        "product of levels %d and %d leaves level %d" % (a, b, a + b)
                    )

    def _level(self, m: int) -> MonomialIdeal:
        if m == 0:
            return MonomialIdeal.unit(self.n)
        if m > self.horizon:
            raise HorizonExceededError(
                "level %d beyond table horizon %d" % (m, self.horizon)
            )
        return self._levels[m]

    def order(self, f: SupportPoly) -> OrderValue:
        f = self._check_elem(f)
        if f.is_zero:
            return INF
        if self._levels[self.horizon].contains(f):
            return AtLeast(self.horizon)
        lo, hi = 0, self.horizon - 1  # membership holds at lo, fails above hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.level(mid).contains(f):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def to_json(self) -> dict:
        return {
            "type": "table",
            "horizon": self.horizon,
            "levels": [
                [m, self._levels[m].to_json()] for m in range(1, self.horizon + 1)
            ],
        }

    def __repr__(self):
        return "Table(horizon=%d, n=%d)" % (self.horizon, self.n)


def nubar_estimate(F: Filtration, f: SupportPoly, n_max: int) -> NubarResult:
    """Best lower bound max_{n <= n_max} order(F, f^n)/n.

    Sound for every engine by superadditivity of the order, and
    nondecreasing along multiples of the reported witness_n.  truncated
    is set when a power ran past a table horizon (the order of that
    power is then only known to be >= the horizon).
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    f = F._check_elem(f)
    if f.is_zero:
        return NubarResult(INF, "exact")
    best = None
    best_n = 1
    truncated = False
    pw = SupportPoly(f.n, [(0,) * f.n])
    for k in range(1, n_max + 1):
        pw = SupportPoly(f.n, (pw * f).min_support())
        ordk = F.order(pw)
        if isinstance(ordk, PlusInfinity):
            return NubarResult(INF, "exact")
        if isinstance(ordk, AtLeast):
            truncated = True
            cur = as_exact(ordk.bound) / k
        else:
            cur = as_exact(ordk) / k
        if best is None or cur > best:
            best, best_n = cur, k
    return NubarResult(best, "lower_bound", witness_n=best_n, truncated=truncated)


def twist(base: Filtration, alpha) -> Twist:
    """The twisted filtration; twists stack without simplification."""
    return Twist(base, alpha)


def bracket_twist(F: DiscreteValued, alpha) -> DiscreteValued:
    """Scale every a_i by alpha: the discrete valued filtration whose levels
    use thresholds ceil(m * alpha * a_i).  Only defined on DiscreteValued."""
    if not isinstance(F, DiscreteValued):
        raise PreconditionError("bracket twist needs a discrete valued filtration")
    alpha = as_exact(alpha)
    if alpha.sign() <= 0:
        raise PreconditionError("twist exponent must be positive")
    return DiscreteValued([(v, a * alpha) for v, a in F.pairs])


def _parse_positive_scalar(text, what: str) -> ExactReal:
    if not isinstance(text, str):
        raise ParseError("%s must be a scalar string" % what)
    val = parse_scalar(text)
    if isinstance(val, PlusInfinity) or val.sign() <= 0:
        raise ParseError("%s must be a positive finite scalar" % what)
    return val


def filtration_from_json(data: dict) -> Filtration:
    """Build a filtration from its JSON description.  A chain of twists is
    read in a loop, so its depth costs no stack."""
    alphas = []
    try:
        while isinstance(data, dict) and data.get("type") == "twist":
            alphas.append(_parse_positive_scalar(data["alpha"], "'alpha'"))
            data = data["base"]
        # wrap the root in the twists, innermost first
        return functools.reduce(Twist, reversed(alphas), _root_from_json(data))
    except KeyError as exc:
        raise ParseError("filtration JSON missing field %s" % exc) from exc
    except (PreconditionError, TypeError, ValueError) as exc:
        raise ParseError("filtration JSON: %s" % exc) from exc


def _root_from_json(data) -> Filtration:
    if not isinstance(data, dict) or "type" not in data:
        raise ParseError("filtration JSON needs a 'type' field")
    kind = data["type"]
    if kind == "adic":
        return Adic(MonomialIdeal.from_json(data["ideal"]))
    if kind == "dv":
        pairs = []
        for item in data["pairs"]:
            v = MonomialValuation.from_json(item)
            a = _parse_positive_scalar(item["a"], "scale 'a'")
            pairs.append((v, a))
        return DiscreteValued(pairs)
    if kind == "stair1":
        alpha = _parse_positive_scalar(data["alpha"], "'alpha'")
        c = data["c"]
        if not isinstance(c, int) or c < 0:
            raise ParseError("'c' must be a nonnegative integer")
        return StairOneVar(alpha, c)
    if kind == "table":
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ParseError("'horizon' must be an integer")
        levels = []
        for m, ideal in data["levels"]:
            if not isinstance(m, int) or isinstance(m, bool):
                raise ParseError("level index %r is not an integer" % (m,))
            levels.append((m, MonomialIdeal.from_json(ideal)))
        return Table(levels, horizon, validate=True)
    raise ParseError("unknown filtration type %r" % kind)
