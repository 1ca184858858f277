"""Exact characteristic-class calculator and bound-verification harness for
complete intersections in projective space."""

from .betti import betti_numbers, genus_plane_curve, total_betti
from .bounds import (
    CHECK_NAMES,
    BoundReport,
    GridResult,
    GridSpec,
    betti_bound,
    betti_bound_recursive,
    blowup_euler,
    cotangent_chern_bound,
    curve_betti_bound,
    nef_chern_bound,
    pontryagin_bound,
    signature_check,
    verify_grid,
)
from .chern import (
    ChernVector,
    DegreeError,
    ample_class,
    ample_degree_sequence,
    canonical_class,
    chern_number,
    cotangent_chern,
    euler_characteristic,
    pontryagin_to_chern_index,
    schur_class,
    squared_chern_pairing,
    tangent_chern,
    twist_chern,
)
from .schubert import (
    BoxError,
    GradingError,
    Grassmannian,
    SchubertClass,
    giambelli_expand,
    grassmannian_degree,
    intersection_number,
    multiply,
    pieri,
)
from .varieties import (
    CompleteIntersection,
    DimensionError,
    MultiIndex,
    Partition,
    partitions_of,
)

__version__ = "0.1.0"
