"""Exact arithmetic for gcds of iterated polynomial compositions.

The package is organized bottom-up: integer/GF(p) kernels (`modular`),
rational polynomials (`polys`, `factoring`), number fields and jets
(`numfield`), orbit and composition-word machinery (`dynamics`), the
multiplicity certificates and common-divisor construction (`multiplicity`),
height computations (`heights`), the experiment drivers (`gcdlab`), and the
command-line front end (`cli`).
"""

from .errors import (
    DegenerateInputError,
    EmbeddingError,
    HypothesisViolationError,
    ItergcdError,
    LIMITS,
    ParseError,
    ResourceLimitError,
    UndecidedError,
    VerificationError,
)
from .factoring import (
    FactorList,
    factor_irreducible,
    is_irreducible,
    squarefree_decomposition,
)
from .polys import (
    Poly,
    iterate,
    iterates,
    mult_of_factor,
    poly_gcd,
    poly_gcd_subresultant,
    render_poly,
    resultant,
)
from .numfield import (
    Jet,
    NumberField,
    NumberFieldElem,
    jet_at,
    jet_compose,
    min_poly,
    nf_eval,
    root_of_unity_order,
)
from .dynamics import (
    OrbitRecord,
    Word,
    chebyshev,
    compositional_power_check,
    independence_probe,
    orbit,
    ramified_cycle_check,
)
from .multiplicity import (
    MultiplicityCertificate,
    direct_v,
    divisor_h,
    multiplicity_bound,
)
from .heights import (
    HeightValue,
    canonical_height,
    special_probe,
    weil_height,
    weil_height_alg,
)
from .gcdlab import (
    GcdGridReport,
    gcd_grid,
    gcd_iterates,
    linear_common_root,
    reference_suite,
)
from .parser import parse_poly
from .emit import emit

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "EmbeddingError",
    "FactorList",
    "GcdGridReport",
    "HeightValue",
    "HypothesisViolationError",
    "ItergcdError",
    "Jet",
    "LIMITS",
    "MultiplicityCertificate",
    "NumberField",
    "NumberFieldElem",
    "OrbitRecord",
    "ParseError",
    "Poly",
    "ResourceLimitError",
    "UndecidedError",
    "VerificationError",
    "Word",
    "canonical_height",
    "chebyshev",
    "compositional_power_check",
    "direct_v",
    "divisor_h",
    "emit",
    "factor_irreducible",
    "gcd_grid",
    "gcd_iterates",
    "independence_probe",
    "is_irreducible",
    "iterate",
    "iterates",
    "jet_at",
    "jet_compose",
    "linear_common_root",
    "min_poly",
    "mult_of_factor",
    "multiplicity_bound",
    "nf_eval",
    "orbit",
    "parse_poly",
    "poly_gcd",
    "poly_gcd_subresultant",
    "ramified_cycle_check",
    "reference_suite",
    "render_poly",
    "resultant",
    "root_of_unity_order",
    "special_probe",
    "squarefree_decomposition",
    "weil_height",
    "weil_height_alg",
]
