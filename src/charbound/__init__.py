"""Exact characteristic-class calculator and bound-verification harness for
complete intersections in projective space."""

from .betti import betti_numbers
from .chern import DegreeError, euler_characteristic, tangent_chern
from .schubert import (
    BoxError,
    GradingError,
    Grassmannian,
    SchubertClass,
    giambelli_expand,
    grassmannian_degree,
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
    "DegreeError",
    "euler_characteristic",
    "tangent_chern",
    "BoxError",
    "GradingError",
    "Grassmannian",
    "SchubertClass",
    "giambelli_expand",
    "grassmannian_degree",
    "pieri",
    "CompleteIntersection",
    "MultiIndex",
    "Partition",
    "partitions_of",
]

__version__ = "0.1.0"
