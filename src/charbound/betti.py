"""Closed-form topology of smooth complete intersections.

Betti numbers come from hyperplane-section restriction plus duality, with
the middle number recovered from the Euler characteristic. This is the
ground truth the Betti bounds are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import sub

from .chern import euler_characteristic
from .varieties import CompleteIntersection


# one entry per variety a caller asks about; verify_grid reads middle_betti
# and `table` betti_from_euler
@lru_cache(maxsize=None)
def betti_numbers(ci: CompleteIntersection) -> tuple:
    """b_0..b_2n: projective-space values off the middle, middle from chi."""
    return betti_from_euler(ci.dimension, euler_characteristic(ci))


def betti_from_euler(n: int, chi: int) -> tuple:
    """b_0..b_2n of a smooth n-dimensional complete intersection with Euler
    characteristic chi: 1 in each even degree off the middle, 0 in each odd
    one, and the middle number whatever makes the alternating sum chi."""
    betti = [1, 0] * n + [1]
    betti[n] = middle_betti(n, (chi,))[0]
    return tuple(betti)


def middle_betti(n: int, chis) -> list:
    """b_n of a smooth n-dimensional complete intersection for each Euler
    characteristic in ``chis``. Off the middle the numbers are those of P^n,
    whose sum n + n % 2 is also their alternating sum, since every odd one
    is 0; b_n, counted with the sign (-1)^n, makes up the rest of chi."""
    off = n + n % 2
    middles = [*map(sub, chis, repeat(off))] if n % 2 == 0 else [*map(sub, repeat(off), chis)]
    if middles and min(middles) < 0:
        middle, chi = next((b, chi) for b, chi in zip(middles, chis) if b < 0)
        raise RuntimeError(
            f"negative middle Betti number {middle} for dimension {n} and chi={chi}; "
            "inconsistent Euler characteristic"
        )
    return middles

