"""Exact analysis of polynomial maps: quasi-homogeneous injectivity criteria,
only-origin certification, and numeric witness search.

The exact layer loads with the package; the names from ``certify``,
``criteria`` and ``dynamics`` load on first use.  The runtime needs only the
standard library: the float layer runs on plain Python floats.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InternalInconsistencyError,
    JacgateError,
    ParseError,
    PreconditionError,
    ZeroPolynomialError,
)
from .parsing import parse_expr, parse_map_file, parse_poly_file, print_poly
from .poly import (
    PolyMap,
    Polynomial,
    gradient_field,
    h_norm,
    jacobian_det,
    jacobian_matrix,
    matrix_det,
)
from .weights import (
    FieldHigherPart,
    Weight,
    enumerate_weights,
    higher_part,
    higher_part_field,
    higher_part_map,
    qh_decompose,
)

# the names of the analysis modules, imported on first use by ``__getattr__``
_LAZY = {
    "certify": (
        "CertConfig", "CertOutcome", "OutcomeKind", "gradient_only_origin", "only_origin",
        "unique_zero_nonneg",
    ),
    "criteria": (
        "AnalysisConfig", "Assumptions", "Criterion", "CriterionResult", "JacStatus",
        "VerdictKind", "VerdictReport", "check_assumptions", "check_field_higher_part",
        "check_h_higher_part", "check_map_higher_part", "derive_tilde_and_verify", "verdict",
        "weight_search",
    ),
    "dynamics": (
        "WitnessPair", "ZeroReport", "find_zeros", "index_at", "injectivity_witness",
        "witness_from_probe",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
