"""samfilt: exact computations with filtrations of monomial ideals.

Order functions, the asymptotic order (Samuel-type) function and its
closed forms, twists, saturated and integral-closure filtrations,
canonical irredundant representations, projective equivalence,
valuation recovery from order data, and multiplicities.
"""

from .errors import (
    ConstructionError,
    DimensionMismatchError,
    HorizonExceededError,
    LimitError,
    MixedRadicalError,
    NotPrimaryError,
    ParseError,
    PreconditionError,
    RecoveryError,
    SamfiltError,
)
from .exactnum import (
    INF,
    ExactReal,
    PlusInfinity,
    as_exact,
    ceil_of,
    floor_of,
    format_scalar,
    parse_scalar,
    sqrt,
)
from .monomial import (
    MonomialIdeal,
    SupportPoly,
    integral_closure,
    monomial_str,
    newton_facets,
    np_threshold_level,
    np_value,
)
from .valuation import MonomialValuation, primitive_pair, system_level
from .filtration import (
    Adic,
    AtLeast,
    DiscreteValued,
    Filtration,
    StairOneVar,
    Table,
    Twist,
    bracket_twist,
    filtration_from_json,
    twist,
)
from .samuel import (
    NubarResult,
    ic_filtration,
    k_filtration,
    nubar,
    nubar_estimate,
    rees_graded_integral_1var,
    rees_integral_witness_1var,
)
from .equivalence import (
    EquivalenceResult,
    IrredundantRep,
    OmegaOracle,
    make_irredundant,
    projectively_equivalent,
    recover_valuations,
)
from .multiplicity import (
    LengthSeries,
    SaturationReport,
    ValueResult,
    colength,
    filtration_value,
    multiplicity_estimate,
    multiplicity_exact,
    saturation_check,
)

__version__ = "0.1.0"

# the lattice kernels have one implementation, in pure Python
kernel_implementation = "pure"

__all__ = [
    "Adic",
    "AtLeast",
    "ConstructionError",
    "DimensionMismatchError",
    "DiscreteValued",
    "EquivalenceResult",
    "ExactReal",
    "Filtration",
    "HorizonExceededError",
    "INF",
    "IrredundantRep",
    "LengthSeries",
    "LimitError",
    "MixedRadicalError",
    "MonomialIdeal",
    "MonomialValuation",
    "NotPrimaryError",
    "NubarResult",
    "OmegaOracle",
    "ParseError",
    "PlusInfinity",
    "PreconditionError",
    "RecoveryError",
    "SamfiltError",
    "SaturationReport",
    "StairOneVar",
    "SupportPoly",
    "Table",
    "Twist",
    "ValueResult",
    "as_exact",
    "bracket_twist",
    "ceil_of",
    "colength",
    "filtration_from_json",
    "filtration_value",
    "floor_of",
    "format_scalar",
    "ic_filtration",
    "integral_closure",
    "k_filtration",
    "kernel_implementation",
    "make_irredundant",
    "monomial_str",
    "multiplicity_estimate",
    "multiplicity_exact",
    "newton_facets",
    "np_threshold_level",
    "np_value",
    "nubar",
    "nubar_estimate",
    "parse_scalar",
    "primitive_pair",
    "projectively_equivalent",
    "recover_valuations",
    "rees_graded_integral_1var",
    "rees_integral_witness_1var",
    "saturation_check",
    "sqrt",
    "system_level",
    "twist",
]
