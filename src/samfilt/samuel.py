"""Asymptotic order of a filtration and its two canonical companions.

nubar(F, f) is the limit of order(F, f^k)/k (it exists by Fekete
superadditivity).  Every exact engine (Adic, DiscreteValued, StairOneVar
and twist chains over them) answers it from its polyhedron P, the
largest t with e in t*P; Table filtrations only admit lower bounds.

k_filtration(F, m_max) tabulates the saturated filtration K_m = {nubar >= m},
the unique largest filtration with the same asymptotic order.

ic_filtration(F, m_max) tabulates the graded integral closure
J_m = {f : f^r in closure(I_{r m}) for some r >= 1}, exact over every r
for the exact engines.  J_m is K_m when some witness r reaches the bound
nubar >= m, and the strict level {nubar > m} when none does (a stair with
shift c > 0, or an irrational twist factor); only then can J_m sit
strictly inside K_m.

The closed forms live once, in Filtration, on each engine's polyhedron
(see the filtration module); the functions here validate and tabulate.
"""

from __future__ import annotations

from .errors import PreconditionError
from .exactnum import INF, as_exact, ceil_of
from .filtration import (  # NubarResult and nubar_estimate are public here too
    Filtration,
    NubarResult,
    StairOneVar,
    Table,
    nubar_estimate,
)
from .monomial import SupportPoly


def nubar(F: Filtration, f: SupportPoly, n_max: int = 24) -> NubarResult:
    """Asymptotic order of f along F.

    Exact for every engine with a polyhedron; for Table filtrations and
    twists over one falls back to nubar_estimate(F, f, n_max).  On
    polynomials the value is the minimum over the support exponents.
    """
    f = F._check_elem(f)
    if f.is_zero:
        return NubarResult(INF, "exact")
    return F.asymptotic_order(f, n_max)


def _tabulate(level, m_max: int) -> Table:
    if m_max < 1:
        raise PreconditionError("m_max must be >= 1")
    return Table({m: level(m) for m in range(1, m_max + 1)}, m_max, validate=False)


def k_filtration(F: Filtration, m_max: int) -> Table:
    """Tabulate K_m = {nubar >= m} for m = 1..m_max."""
    return _tabulate(F.saturated_level, m_max)


def ic_filtration(F: Filtration, m_max: int) -> Table:
    """Tabulate the graded integral closure J_m for m = 1..m_max."""
    return _tabulate(F.closure_level, m_max)


def rees_graded_integral_1var(alpha, c: int, f_ord: int, n: int) -> bool:
    """Whether x^f_ord in degree n is integral over the one-variable stair
    family with slope alpha and shift c.

    Integrality asks for d >= 1 with d*f_ord >= ceil(alpha*n*d) + c, that
    is, x^f_ord in the closure level n of StairOneVar(alpha, c).
    """
    stair = StairOneVar(alpha, c)
    if f_ord < 1 or n < 1:
        raise PreconditionError("f_ord and n must be positive")
    return stair.closure_level(n).contains_exponent((f_ord,))


def rees_integral_witness_1var(alpha, c: int, f_ord: int, n: int):
    """Smallest d with d*f_ord >= ceil(alpha*n*d) + c, or None.

    d*f_ord - ceil(alpha*n*d) = floor(d*(f_ord - alpha*n)), and c is an
    integer, so the witness is 1 when c = 0 and ceil(c/(f_ord - alpha*n))
    otherwise."""
    if not rees_graded_integral_1var(alpha, c, f_ord, n):
        return None
    return ceil_of(c / (f_ord - as_exact(alpha) * n)) if c else 1
