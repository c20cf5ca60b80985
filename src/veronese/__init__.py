"""Exact-arithmetic library for Veronese polytopes: facet enumeration
via three equivalent characterizations, circular compositions, a closed
facet-count formula, and canonical enumeration of combinatorial types.
"""

from .canonical import (
    certificate,
    complex_invariant,
    count_types,
    distinct_types,
    enumerate_compositions,
    table_report,
)
from .circular import (
    CircularComposition,
    canonical_arcs,
    enumerate_facets_circular,
    facet_count,
    induce_composition,
    line_to_circle_map,
    realize,
    vertex_set,
)
from .classify import (
    classify_composition,
    is_cross_polytope,
    is_cyclic_type,
    is_k_neighbourly,
    is_simplex,
    is_stacked_family,
)
from .errors import (
    CrossCheckError,
    DegenerateComplexError,
    DimensionMismatchError,
    DomainError,
    InputError,
    InvalidChartError,
    InvalidDecompositionError,
    InvalidIndexError,
    InvalidInstanceError,
    PointAtInfinityError,
    UnderdeterminedInstanceError,
)
from .exact import (
    elementary_symmetric,
    is_power_of_linear_form,
    rat,
    rat_str,
    sign_det,
)
from .facets import (
    FacetComplex,
    S123,
    enumerate_facets_line,
    is_sigma_pa,
    s123_decompose,
)
from .geometry import (
    Chart,
    GroundSet,
    SignedDecomposition,
    chart_from_decomposition,
    cross_check,
    curve_point,
    decompose_chart,
    enumerate_facets_geometric,
    facet_test_determinant,
    facet_test_lambda,
    lambda_eval,
    q_eval,
    vertices_geometric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
