"""Exact characteristic-class calculator and bound-verification harness for
complete intersections in projective space."""

from .betti import betti_numbers, total_betti
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
from .chern import DegreeError, euler_characteristic, tangent_chern
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
