"""Canonical representations of min-of-linear order data.

The polyhedron P of an exact engine has rows (v_i, a_i), here pairs of a
valuation and a scale (valuation_pairs), and its asymptotic order on
monomials is omega(e) = min_i w_i.e/a_i.  The pairs achieving the min
somewhere on the open orthant, the facets of P, are uniquely determined
by omega (after making each weight vector primitive), which gives:

* make_irredundant: drop pairs that never strictly achieve the min,
  canonicalize, sort — a normal form for the filtration.
* projectively_equivalent: decide whether nubar_F = alpha * nubar_G by
  comparing normal forms; the witness ratio alpha = a_G,i / a_F,i must
  be common to all i.  Adic filtrations are equivalent exactly when
  their Newton polyhedra are homothetic.
* recover_valuations: reconstruct the normal form from a black-box
  omega oracle by directional localization, with a mandatory a
  posteriori validation pass.
"""

from __future__ import annotations

from math import gcd, lcm

from ._linprog import strict_cone_margin
from .errors import NotPrimaryError, PreconditionError, RecoveryError
from .exactnum import ExactReal, PlusInfinity, as_exact, format_scalar
from .filtration import DiscreteValued, Filtration
from .valuation import MonomialValuation, primitive_pair


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
        return min(as_exact(v.value_exponent(e)) / a for v, a in self.pairs)

    def to_filtration(self) -> DiscreteValued:
        return DiscreteValued(list(self.pairs))

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
    if not all(all(l) for l, _ in rows):
        raise NotPrimaryError("not primary: a normal of the polyhedron has a zero entry")
    return [(MonomialValuation(l), c) for l, c in rows]


def _normalize_pairs(pairs):
    """DiscreteValued validates the family; primitive weights, no exact
    duplicates (they define the same halfspace)."""
    F = DiscreteValued(pairs)
    norm = (primitive_pair(v, a) for v, a in F.pairs)
    return F.n, list({(v.w, a): (v, a) for v, a in norm}.values())


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
    """Normal form: primitive weights, no removable pair, sorted.  One sweep
    suffices: a kept pair stays essential as others go, so none is retested."""
    n, work = _normalize_pairs(pairs)
    i = 0
    while i < len(work):
        if _essential(i, work, n):
            i += 1
        else:
            del work[i]
    work.sort(key=lambda p: (p[0].w, p[1]))
    return IrredundantRep(work)


class EquivalenceResult:
    """Outcome of the projective-equivalence decision.

    alpha is the exact ratio with nubar_F = alpha * nubar_G when the
    filtrations are equivalent, else None; counterexample then holds a
    monomial exponent on which no single ratio can work, or None when no
    monomial of degree <= 64 is one.
    """

    __slots__ = ("alpha", "counterexample", "left", "right")

    def __init__(self, alpha, counterexample, left, right):
        self.alpha = alpha
        self.counterexample = counterexample
        self.left = left
        self.right = right

    @property
    def equivalent(self):
        return self.alpha is not None

    def __bool__(self):
        return self.equivalent

    def __repr__(self):
        if self.equivalent:
            return "EquivalenceResult(alpha=%s)" % self.alpha
        return "EquivalenceResult(counterexample=%r)" % (self.counterexample,)


def _counterexample_monomial(repF, repG, n):
    """A monomial of degree <= 64 where the two order functions are not
    proportional, or None when they differ only on a thinner cone."""
    base = tuple([1] * n)
    wF0, wG0 = repF.omega(base), repG.omega(base)
    ratio = wF0 / wG0
    for radius in range(1, 65):
        for e in _sphere(n, radius):
            if repF.omega(e) != ratio * repG.omega(e):
                return e
    return None


def _sphere(n, radius):
    if n == 1:
        yield (radius,)
        return
    for first in range(radius + 1):
        for rest in _sphere(n - 1, radius - first):
            yield (first,) + rest


def projectively_equivalent(F: Filtration, G: Filtration) -> EquivalenceResult:
    """Decide nubar_F = alpha * nubar_G for some alpha > 0, for any two
    exact engines.

    Works on the normal forms: equivalent iff the primitive valuations
    coincide and the scale ratios a_G,i / a_F,i are all equal; that
    common ratio is alpha.
    """
    if F.n != G.n:
        raise PreconditionError("dimension mismatch")
    repF = make_irredundant(valuation_pairs(F))
    repG = make_irredundant(valuation_pairs(G))
    ok = len(repF.pairs) == len(repG.pairs) and all(
        vf == vg for (vf, _), (vg, _) in zip(repF.pairs, repG.pairs)
    )
    if ok:
        ratios = [ag / af for (_, af), (_, ag) in zip(repF.pairs, repG.pairs)]
        if all(r == ratios[0] for r in ratios):
            return EquivalenceResult(ratios[0], None, repF, repG)
    return EquivalenceResult(
        None, _counterexample_monomial(repF, repG, F.n), repF, repG
    )


class OmegaOracle:
    """Cached black-box evaluation of an order function on exponents."""

    __slots__ = ("n", "_eval", "_cache")

    def __init__(self, n, eval_fn):
        self.n = n
        self._eval = eval_fn
        self._cache = {}

    @classmethod
    def from_pairs(cls, pairs):
        n, work = _normalize_pairs(pairs)

        def ev(e):
            return min(as_exact(v.value_exponent(e)) / a for v, a in work)

        return cls(n, ev)

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
    if any(x.sign() <= 0 for x in u):
        return None
    pivot = u[0]
    ratios = []
    for x in u:
        r = x / pivot
        if not r.is_rational:
            return None
        ratios.append(r.as_fraction())
    den = lcm(*(r.denominator for r in ratios))
    ints = [int(r * den) for r in ratios]
    g = gcd(*ints)
    w = tuple(x // g for x in ints)
    a = as_exact(w[0]) / pivot
    if a.sign() <= 0:
        return None
    return MonomialValuation(w), a


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
