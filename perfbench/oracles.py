"""Closed-form invariants the benchmark checks charbound's output against.

Each function uses only the standard library's integer arithmetic and shares
no code with charbound, so a wrong value in the program cannot also be the
expected value here.
"""

from __future__ import annotations

from math import factorial, prod


def hypersurface_euler(n: int, d: int) -> int:
    """Euler characteristic of a smooth degree-d hypersurface of dimension n.

    chi = ((1 - d)^(n + 2) - 1) / d + n + 2, an exact division.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    numerator = (1 - d) ** (n + 2) - 1
    if numerator % d:
        raise ArithmeticError(f"{numerator} is not divisible by {d}")
    return numerator // d + n + 2


def hypersurface_total_betti(n: int, d: int) -> int:
    """Sum of the Betti numbers of the same hypersurface.

    Off the middle degree the Betti numbers are those of P^n (Lefschetz), so
    the middle one follows from chi: the total is chi for even n and
    2n + 2 - chi for odd n.
    """
    chi = hypersurface_euler(n, d)
    return chi if n % 2 == 0 else 2 * n + 2 - chi


def grassmannian_degree(q: int, N: int) -> int:
    """Degree of G(q, N) by the hook-length formula on the q x (N - q) box.

    It equals the number of standard Young tableaux of the rectangle, which is
    the coefficient of the point class in sigma_1^(q (N - q)).
    """
    if not 1 <= q < N:
        raise ValueError(f"need 1 <= q < N, got q={q}, N={N}")
    cols = N - q
    hooks = prod((q - i) + (cols - j) - 1 for i in range(q) for j in range(cols))
    value, rest = divmod(factorial(q * cols), hooks)
    if rest:
        raise ArithmeticError("hook-length quotient must be integral")
    return value
