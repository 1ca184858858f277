"""Exact characteristic-class calculator and bound-verification harness for
complete intersections in projective space."""

from .betti import betti_numbers, total_betti
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

# charbound.bounds loads on the first read of one of these names, so
# `charbound schubert` starts without the grid layer
_BOUNDS_NAMES = (
    "CHECK_NAMES",
    "BoundReport",
    "GridResult",
    "GridSpec",
    "betti_bound",
    "betti_bound_recursive",
    "blowup_euler",
    "cotangent_chern_bound",
    "curve_betti_bound",
    "nef_chern_bound",
    "pontryagin_bound",
    "signature_check",
    "verify_grid",
)

__all__ = [
    "betti_numbers",
    "total_betti",
    *_BOUNDS_NAMES,
    "DegreeError",
    "euler_characteristic",
    "tangent_chern",
    "BoxError",
    "GradingError",
    "Grassmannian",
    "SchubertClass",
    "giambelli_expand",
    "grassmannian_degree",
    "intersection_number",
    "multiply",
    "pieri",
    "CompleteIntersection",
    "DimensionError",
    "MultiIndex",
    "Partition",
    "partitions_of",
]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: resolved once, then held in the module like an eager import
    if name in _BOUNDS_NAMES:
        from . import bounds

        value = globals()[name] = getattr(bounds, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
