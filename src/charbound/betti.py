"""Closed-form topology of smooth complete intersections.

Betti numbers come from hyperplane-section restriction plus duality, with
the middle number recovered from the Euler characteristic. This is the
ground truth the Betti bounds are checked against.
"""

from __future__ import annotations

from functools import lru_cache

from .chern import euler_characteristic
from .varieties import CompleteIntersection


def genus_plane_curve(d: int) -> int:
    """Genus of a smooth plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return (d - 1) * (d - 2) // 2


# one entry per reduced grid key and hyperplane section; see chern.tangent_chern
@lru_cache(maxsize=None)
def betti_numbers(ci: CompleteIntersection) -> tuple:
    """b_0..b_2n: projective-space values off the middle, middle from chi."""
    n = ci.dimension
    chi = euler_characteristic(ci)
    betti = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    betti[n] = 0
    off_middle = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
    middle = (chi - off_middle) if n % 2 == 0 else -(chi - off_middle)
    if middle < 0:
        raise RuntimeError(
            f"negative middle Betti number {middle} for {ci}; inconsistent "
            "Euler characteristic"
        )
    betti[n] = middle
    return tuple(betti)


def total_betti(ci: CompleteIntersection) -> int:
    """Sum of all Betti numbers."""
    return sum(betti_numbers(ci))
