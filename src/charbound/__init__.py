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
    MultiIndex,
    Partition,
    partitions_of,
)

__all__ = [
    "betti_numbers",
    "total_betti",
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
    "MultiIndex",
    "Partition",
    "partitions_of",
]

__version__ = "0.1.0"
