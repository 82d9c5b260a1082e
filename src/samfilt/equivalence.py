"""Canonical representations of min-of-linear order data.

The polyhedron P of an exact engine has rows (v_i, a_i), here pairs of a
valuation and a scale (valuation_pairs), and its asymptotic order on
monomials is omega(e) = min_i w_i.e/a_i.  The pairs achieving the min
somewhere on the open orthant, the facets of P, are uniquely determined
by omega (after making each weight vector primitive), which gives:

* make_irredundant: drop pairs that never strictly achieve the min,
  canonicalize, sort — a normal form for the filtration.
* projectively_equivalent: decide whether nubar_F = alpha * nubar_G, that
  is P_F = P_G/alpha, on the points of the two polyhedra: with alpha the
  ratio at (1, ..., 1), omega_F = alpha * omega_G at every point of P_F
  and P_G exactly when each polyhedron holds the other's vertices, scaled
  by alpha.  No normal form is built; a point where the two differ gives
  a counterexample monomial.  Adic filtrations are equivalent exactly
  when their Newton polyhedra are homothetic.
* recover_valuations: reconstruct the normal form from a black-box
  omega oracle by directional localization, with a mandatory a
  posteriori validation pass.
"""

from __future__ import annotations

from functools import partial
from math import gcd, lcm

from ._linprog import strict_cone_margin
from .errors import DimensionMismatchError, NotPrimaryError, PreconditionError, RecoveryError
from .exactnum import ExactReal, PlusInfinity, as_exact, floor_of, format_scalar
from .filtration import DiscreteValued, Filtration
from .valuation import MonomialValuation, primitive_pair


def _omega(pairs, x) -> ExactReal:
    """min_i w_i.x/a_i over the pairs (v_i, a_i), at x >= 0."""
    return min(as_exact(v.value_exponent(x)) / a for v, a in pairs)


class IrredundantRep:
    """Sorted primitive pairs (v_i, a_i), none of them removable."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(pairs)

    def __eq__(self, other):
        if not isinstance(other, IrredundantRep):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def omega(self, e) -> ExactReal:
        """min_i w_i.e/a_i at the exponent e."""
        return _omega(self.pairs, e)

    def to_json(self):
        return [{"w": list(v.w), "a": format_scalar(a)} for v, a in self.pairs]

    def __repr__(self):
        return "IrredundantRep(%r)" % (list(self.pairs),)

    def __str__(self):
        return "; ".join(
            "w=%s a=%s" % (",".join(map(str, v.w)), format_scalar(a))
            for v, a in self.pairs
        )


def valuation_pairs(F: Filtration) -> list:
    """F's polyhedron rows (l, c) as pairs (MonomialValuation(l), c);
    NotPrimaryError when some l has a zero entry."""
    rows = F._exact_rows("valuation pairs")
    if not rows:  # an adic unit ideal: P is the whole orthant
        raise PreconditionError("the unit ideal has no valuation pairs")
    if not any(rows[0][0]):  # an adic zero ideal: P is empty
        raise NotPrimaryError("the zero ideal has no valuation pairs")
    if not all(all(l) for l, _ in rows):
        raise NotPrimaryError("not primary: a normal of the polyhedron has a zero entry")
    return [(MonomialValuation(l), c) for l, c in rows]


def _essential(i, pairs, n):
    """Whether pair i strictly achieves the min somewhere on the orthant.

    The open cone {x >= 0 : w_i.x/a_i < w_j.x/a_j for all j != i} is
    nonempty iff an exact LP pushes all the strict slacks above zero.
    """
    vi, ai = pairs[i]
    zero, one = as_exact(0), as_exact(1)
    rows = []
    for j, (vj, aj) in enumerate(pairs):
        if j == i:
            continue
        rows.append(
            [as_exact(vj.w[t]) / aj - as_exact(vi.w[t]) / ai for t in range(n)]
        )
    if not rows:
        return True
    delta, _ = strict_cone_margin(rows, zero=zero, one=one)
    return delta > zero


def make_irredundant(pairs) -> IrredundantRep:
    """Normal form: primitive weights, no exact duplicates (they define the
    same halfspace), no removable pair, sorted.  DiscreteValued validates the
    family.  One sweep suffices: a kept pair stays essential as others go,
    so none is retested."""
    F = DiscreteValued(pairs)
    norm = (primitive_pair(v, a) for v, a in F.pairs)
    work = list({(v.w, a): (v, a) for v, a in norm}.values())
    i = 0
    while i < len(work):
        if _essential(i, work, F.n):
            i += 1
        else:
            del work[i]
    work.sort(key=lambda p: (p[0].w, p[1]))
    return IrredundantRep(work)


class EquivalenceResult:
    """Outcome of the projective-equivalence decision.

    alpha is the exact ratio with nubar_F = alpha * nubar_G when the
    filtrations are equivalent, else None; counterexample is None when they
    are equivalent, else the least exponent, by degree then lex, that a
    point of P_F or P_G gives and on which no single ratio can work.
    """

    __slots__ = ("alpha", "counterexample")

    def __init__(self, alpha, counterexample):
        self.alpha = alpha
        self.counterexample = counterexample

    @property
    def equivalent(self):
        return self.alpha is not None

    def __bool__(self):
        return self.equivalent

    def __repr__(self):
        if self.equivalent:
            return "EquivalenceResult(alpha=%s)" % self.alpha
        return "EquivalenceResult(counterexample=%r)" % (self.counterexample,)


def _direction(u):
    """The primitive integer vector on the ray through u >= 0, u != 0, or
    None when that ray is irrational."""
    pivot = as_exact(next(x for x in u if x != 0))
    ratios = [as_exact(x) / pivot for x in u]
    if not all(r.is_rational for r in ratios):
        return None
    den = lcm(*(r.r for r in ratios))
    ints = [r.p * (den // r.r) for r in ratios]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _sphere(n, radius):
    if n == 1:
        yield (radius,)
        return
    for first in range(radius + 1):
        for rest in _sphere(n - 1, radius - first):
            yield (first,) + rest


def projectively_equivalent(F: Filtration, G: Filtration) -> EquivalenceResult:
    """Decide nubar_F = alpha * nubar_G for some alpha > 0, for any two
    exact engines, on the points of P_F and P_G.

    alpha can only be the ratio omega_F / omega_G at (1, ..., 1).  If
    omega_F = alpha * omega_G at every point of both polyhedra, each
    polyhedron holds the other's vertices, scaled by alpha, so P_F =
    P_G/alpha and the filtrations are equivalent.  Otherwise a point p
    with omega_F(p) != alpha * omega_G(p) gives a counterexample: the
    primitive vector on p's ray, or floor(k * p) on an irrational ray.
    """
    if F.n != G.n:
        raise DimensionMismatchError("dimension mismatch")
    pf, pg = valuation_pairs(F), valuation_pairs(G)
    one = (1,) * F.n
    alpha = _omega(pf, one) / _omega(pg, one)
    # omega_F - alpha*omega_G moves by < slack when no coordinate moves by 1 (rows
    # that are not facets only raise it), so on an irrational ray floor(k*p),
    # with k*|gap| >= slack, keeps the gap's sign
    slack = sum(c * max(as_exact(sum(v.w)) / a for v, a in pairs)
                for c, pairs in ((1, pf), (alpha, pg)))
    found = []
    for p in (*F._points(), *G._points()):
        e = _direction(p)
        q = p if e is None else e  # on one ray: the gaps have one sign
        gap = _omega(pf, q) - alpha * _omega(pg, q)
        if not gap.is_zero():
            found.append(e or tuple(floor_of((slack / abs(gap)).ceil() * x) for x in p))
    if not found:
        return EquivalenceResult(alpha, None)
    return EquivalenceResult(None, min(found, key=lambda e: (sum(e), e)))


class OmegaOracle:
    """Cached black-box evaluation of an order function on exponents."""

    __slots__ = ("n", "_eval", "_cache")

    def __init__(self, n, eval_fn):
        self.n = n
        self._eval = eval_fn
        self._cache = {}

    @classmethod
    def from_pairs(cls, pairs):
        """omega of the pairs as given, once DiscreteValued has validated them."""
        F = DiscreteValued(pairs)
        return cls(F.n, partial(_omega, F.pairs))

    def __call__(self, e):
        e = tuple(e)
        got = self._cache.get(e)
        if got is None:
            got = self._eval(e)
            if not isinstance(got, PlusInfinity):
                got = as_exact(got)
            self._cache[e] = got
        return got


def _grid(n, bound):
    out = []
    for radius in range(1, bound + 1):
        out.extend(_sphere(n, radius))
    return out


def _directional_form(omega, e, d):
    """Linear form seen from far along direction e: coordinates of
    omega(unit_j + d*e) - d*omega(e)."""
    base = omega(e)
    if isinstance(base, PlusInfinity):
        raise RecoveryError("oracle is infinite on %r; not min-of-linear" % (e,))
    out = []
    for j in range(omega.n):
        y = tuple(d * c + (1 if t == j else 0) for t, c in enumerate(e))
        val = omega(y)
        if isinstance(val, PlusInfinity):
            raise RecoveryError("oracle is infinite on %r; not min-of-linear" % (y,))
        out.append(val - base * d)
    return tuple(out)


def _fit_pair(u):
    """Primitive (w, a) with w_j/a = u_j, or None if not of that shape."""
    w = None if any(x.sign() <= 0 for x in u) else _direction(u)
    return None if w is None else (MonomialValuation(w), as_exact(w[0]) / u[0])


def recover_valuations(omega: OmegaOracle, degree_bound: int) -> IrredundantRep:
    """Reconstruct the canonical pair family behind an order oracle.

    Directions e with |e| <= degree_bound localize the oracle: far along
    d*e only the pairs achieving omega(e) survive, so the increments
    omega(unit_j + d*e) - d*omega(e) trace out one of the hidden linear
    forms.  Forms are kept only when the increments are stable between
    d = degree_bound - 1 and d = degree_bound and dominate the oracle on
    the whole sample grid; the survivors are then made irredundant and
    revalidated against every sample.  A failed validation raises — the
    reconstruction never extrapolates silently.
    """
    if degree_bound < 1:
        raise PreconditionError("degree_bound must be >= 1")
    n = omega.n
    grid = _grid(n, degree_bound)
    samples = {}
    for e in grid:
        val = omega(e)
        if isinstance(val, PlusInfinity):
            raise RecoveryError("oracle is infinite on %r; not min-of-linear" % (e,))
        samples[e] = val
    candidates = {}
    seen_u = set()
    for e in grid:
        u = _directional_form(omega, e, degree_bound)
        if u in seen_u:
            continue
        if degree_bound > 1 and u != _directional_form(omega, e, degree_bound - 1):
            continue  # not yet stabilized along this direction
        seen_u.add(u)
        fitted = _fit_pair(u)
        if fitted is None:
            continue
        v, a = fitted
        key = (v.w, a)
        if key in candidates:
            continue
        # a true hidden form dominates the min everywhere on the grid
        if all(
            as_exact(v.value_exponent(s)) / a >= val for s, val in samples.items()
        ):
            candidates[key] = (v, a)
    if not candidates:
        raise RecoveryError(
            "no stable directional form found up to degree %d" % degree_bound
        )
    rep = make_irredundant(list(candidates.values()))
    for e, val in samples.items():
        if rep.omega(e) != val:
            raise RecoveryError(
                "recovered family disagrees with the oracle at %r "
                "(oracle not of min-of-linear form within the bounds)" % (e,)
            )
    return rep
