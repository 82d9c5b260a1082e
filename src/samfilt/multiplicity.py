"""Multiplicity, colength and per-valuation values of filtrations.

For a filtration whose levels are primary to the maximal monomial ideal,
e(F) = lim colength(I_n) * d! / n^d.  Every exact engine knows it in
closed form, in any dimension (Filtration.multiplicity): d! times the
covolume of its polyhedron P, from one exact triangulation.
multiplicity_estimate gives the normalized lattice counts along the
levels of any engine, tables included (an approximation with no error
bound claimed).

filtration_value(v, F, n_max) is the limit of v(I_n)/n, an infimum; the
running minimum over n <= n_max is always a valid upper bound, and a
closed form is returned for the exact engines.

saturation_check compares the levels with the outer approximation cut
out by monomial valuations at their filtration values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _kernels
from .errors import DimensionMismatchError, NotPrimaryError, PreconditionError
from .exactnum import INF, ExactReal, PlusInfinity, as_exact, format_scalar
from .filtration import DiscreteValued, Filtration
from .monomial import MonomialIdeal
from .valuation import MonomialValuation, system_level


def colength(I: MonomialIdeal) -> int:
    """Number of monomials outside I; finite iff I is primary."""
    if I.is_unit:
        return 0
    if not I.is_primary():
        raise NotPrimaryError(
            "infinite colength: no pure power of some variable in %s" % I
        )
    return _colength_rec(I.n, I.gens)


def _colength_rec(n, gens) -> int:
    if n == 1:
        return min(g[0] for g in gens)
    if n == 2:
        return _kernels.colength_2d(list(gens))
    top = min(g[-1] for g in gens if all(c == 0 for c in g[:-1]))
    total = 0
    for t in range(top):
        slab = [g[:-1] for g in gens if g[-1] <= t]
        total += _colength_rec(n - 1, _kernels.reduce_antichain(slab))
    return total


def multiplicity_exact(F: Filtration) -> ExactReal:
    """e(F), exactly: the engine's closed form (see Filtration.multiplicity).

    Raises PreconditionError for engines with bounds only, NotPrimaryError
    when the levels miss a pure power of some variable and
    MixedRadicalError when the value lies in no single quadratic field.
    """
    return F.multiplicity()


@dataclass
class LengthSeries:
    """Colength samples (n, colength of level n) in ambient dimension d."""

    d: int
    samples: list

    def to_json(self):
        return {"d": self.d, "samples": [[n, c] for n, c in self.samples]}

    def to_csv(self):
        lines = ["n,colength,normalized"]
        f = factorial(self.d)
        for n, c in self.samples:
            lines.append("%d,%d,%s" % (n, c, Fraction(c * f, n**self.d)))
        return "\n".join(lines) + "\n"


def _sample_points(n_max):
    if n_max <= 100:
        return list(range(1, n_max + 1))
    step = n_max // 100
    pts = sorted(set(range(step, n_max + 1, step)) | {n_max})
    return pts


def multiplicity_estimate(F: Filtration, n_max: int):
    """Normalized colength at n_max, with the sampled series.

    Returns (estimate, LengthSeries) where estimate is the exact rational
    colength(I_{n_max}) * d!/n_max^d.  The series samples every level up
    to 100 and roughly a hundred evenly spaced levels beyond that.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    d = F.n
    samples = []
    for n in _sample_points(n_max):
        level = F.level(n)
        if not level.is_primary():
            raise NotPrimaryError("level %d is not primary: %s" % (n, level))
        samples.append((n, colength(level)))
    est = Fraction(samples[-1][1] * factorial(d), n_max**d)
    return est, LengthSeries(d=d, samples=samples)


@dataclass
class ValueResult:
    """Value of a valuation along a filtration.

    upper is the running minimum of v(I_n)/n over n <= n_max (a valid
    upper bound of the limit, since the sequence converges to its inf);
    exact is the limit itself when the engine admits a closed form, else
    None.
    """

    upper: object
    upper_n: int
    exact: object = None

    def __str__(self):
        if self.exact is not None:
            return "%s (exact; running inf %s at n=%d)" % (
                format_scalar(self.exact),
                format_scalar(self.upper),
                self.upper_n,
            )
        return "<= %s (running inf at n=%d)" % (
            format_scalar(self.upper),
            self.upper_n,
        )

    def to_json(self):
        return {
            "exact": None if self.exact is None else format_scalar(self.exact),
            "upper": format_scalar(self.upper),
            "upper_n": self.upper_n,
        }


def filtration_value(v: MonomialValuation, F: Filtration, n_max: int) -> ValueResult:
    """lim v(I_n)/n: closed form when available plus the running inf."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if not isinstance(v, MonomialValuation):
        v = MonomialValuation(tuple(v))
    if v.n != F.n:
        raise DimensionMismatchError("dimension mismatch")
    best = None
    best_n = 1
    for n in range(1, n_max + 1):
        val = v.value_of_ideal(F.level(n))
        cur = INF if isinstance(val, PlusInfinity) else as_exact(val) / n
        if best is None or cur < best:
            best, best_n = cur, n
    return ValueResult(upper=best, upper_n=best_n, exact=F.value_limit(v))


@dataclass
class SaturationRow:
    n: int
    sat: MonomialIdeal
    contained: bool
    equal: bool


@dataclass
class SaturationReport:
    """Levelwise comparison of F with its valuation outer approximation.

    Sat_n is cut out by v >= n * value(v, F) over the test valuations
    (plus the defining ones for a discrete valued F).  Levels always sit
    inside Sat_n; for discrete valued filtrations with the defining
    valuations included the two agree.
    """

    valuations: list
    values: list
    rows: list

    def all_equal(self):
        return all(r.equal for r in self.rows)

    def to_json(self):
        return {
            "valuations": [list(v.w) for v in self.valuations],
            "values": [format_scalar(a) for a in self.values],
            "rows": [
                {
                    "n": r.n,
                    "sat": r.sat.to_json(),
                    "contained": r.contained,
                    "equal": r.equal,
                }
                for r in self.rows
            ],
        }


def saturation_check(F: Filtration, test_vals, n_max: int) -> SaturationReport:
    """Compare levels with the monomial-valuation saturation bound."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    vals = []
    for w in test_vals:
        vals.append(w if isinstance(w, MonomialValuation) else MonomialValuation(tuple(w)))
    if isinstance(F, DiscreteValued):
        for v, _ in F.pairs:
            if all(v.w != u.w for u in vals):
                vals.append(v)
    if not vals:
        raise PreconditionError("need at least one test valuation")
    for v in vals:
        if v.n != F.n:
            raise DimensionMismatchError("dimension mismatch")
    values = []
    for v in vals:
        res = filtration_value(v, F, n_max)
        values.append(res.exact if res.exact is not None else res.upper)
    rows = []
    infinite = any(isinstance(a, PlusInfinity) for a in values)
    for n in range(1, n_max + 1):
        if infinite:
            sat = MonomialIdeal.zero(F.n)
        else:  # rows of value 0 drop out; none left gives the unit ideal
            sat = system_level(F.n, [(v.w, a * n, False) for v, a in zip(vals, values)])
        level = F.level(n)
        rows.append(
            SaturationRow(
                n=n,
                sat=sat,
                contained=level <= sat,
                equal=level == sat,
            )
        )
    return SaturationReport(valuations=vals, values=values, rows=rows)
