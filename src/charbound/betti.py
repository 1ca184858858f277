"""Closed-form topology of smooth complete intersections.

Betti numbers come from hyperplane-section restriction plus duality, with
the middle number recovered from the Euler characteristic. This is the
ground truth the Betti bounds are checked against.
"""

from __future__ import annotations

from functools import lru_cache

from .chern import euler_characteristic
from .varieties import CompleteIntersection


# one entry per variety a caller asks about; verify_grid and `table` read
# betti_from_euler
@lru_cache(maxsize=None)
def betti_numbers(ci: CompleteIntersection) -> tuple:
    """b_0..b_2n: projective-space values off the middle, middle from chi."""
    return betti_from_euler(ci.dimension, euler_characteristic(ci))


def betti_from_euler(n: int, chi: int) -> tuple:
    """b_0..b_2n of a smooth n-dimensional complete intersection with Euler
    characteristic chi: 1 in each even degree off the middle, 0 in each odd
    one, and the middle number whatever makes the alternating sum chi."""
    betti = [1, 0] * n + [1]
    betti[n] = 0
    # off the middle every odd-degree number is 0, so the alternating sum is the sum
    middle = chi - sum(betti) if n % 2 == 0 else sum(betti) - chi
    if middle < 0:
        raise RuntimeError(
            f"negative middle Betti number {middle} for dimension {n} and chi={chi}; "
            "inconsistent Euler characteristic"
        )
    betti[n] = middle
    return tuple(betti)


def total_betti(ci: CompleteIntersection) -> int:
    """Sum of all Betti numbers."""
    return sum(betti_numbers(ci))
