"""Chern classes of complete intersections, as plain ints.

Every bundle handled here is pulled back from the ambient projective space,
so each Chern class is an integer multiple of a power of the hyperplane
class h: c_i = a_i * h^i. A Chern vector is therefore the list of integers
a_0..a_n, and every computation is plain integer arithmetic on it:

- the multiples of a K-theory sum of line bundles O(k h) are one series
  pass over their Chern roots k h: (1+h)^(m+1) / prod(1+d_j h) for the
  tangent bundle, (1+h)^(m+1) / ((1+2h) prod(1+(2-d_j)h)) for the nef
  twist Omega(2h);
- a Schur class s_lambda is D * h^|lambda|, with D the Jacobi-Trudi
  determinant det(a_{lambda_i - i + j}) taken as Giambelli's determinant
  det(s_(alpha_i|beta_j)) on the Frobenius coordinates of lambda, of order
  its Durfee size. The hook classes s_(p|q) come from the multiples a and
  their dual sequence b, B(t) = 1 / A(-t), by a two-term recursion.

These helpers are the one value path: ``bounds._Variety`` builds every
value that the grid checks, ``table`` and ``verify --sigma`` read from
them. ``tangent_chern`` and ``euler_characteristic`` are the same series
for one variety, cached for library callers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import itemgetter, mul

from .varieties import CompleteIntersection


class DegreeError(ValueError):
    """A Chern-number bound was asked for an index of weight above the
    dimension."""


# the cached functions of this module hold one entry per variety a caller
# asks about; verify_grid and `table` read the int-level helpers instead
@lru_cache(maxsize=None)
def tangent_chern(ci: CompleteIntersection) -> tuple:
    """a_0..a_n with c_i(T) = a_i * h^i, via the ambient/normal quotient:
    the coefficients of (1+h)^(m+1) / prod_j (1 + d_j h) up to h^n."""
    return tuple(tangent_multiples(ci.ambient_dim, ci.multidegree, ci.dimension))


def tangent_multiples(ambient_dim: int, degrees, n: int) -> list:
    """a_0..a_n of (1+h)^(ambient_dim+1) / prod_j (1 + d_j h): the bundle
    (ambient_dim+1)*O(1) less the O(d_j), whose Chern roots d_j * h may be
    any ints. For the degrees of an n-dimensional complete intersection in
    P^ambient_dim, its tangent bundle. Dividing by (1 + d h) is the
    recursion b_k = a_k - d * b_(k-1)."""
    series = [comb(ambient_dim + 1, i) for i in range(n + 1)]
    for d in degrees:
        for k in range(1, n + 1):
            series[k] -= d * series[k - 1]
    return series


@lru_cache(maxsize=None)
def euler_characteristic(ci: CompleteIntersection) -> int:
    """Topological Euler characteristic: the top tangent Chern number d * a_n."""
    return ci.degree * tangent_chern(ci)[ci.dimension]


def degree_sequence(a: int, d: int, n: int) -> tuple:
    """(d, a*d, ..., a^n*d): the pairings h^(n-i) * (a*h)^i on a degree-d
    n-fold."""
    return tuple([a**i * d for i in range(n + 1)])


def conjugate(parts: tuple) -> tuple:
    """The conjugate partition: column lengths of the Young diagram."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def dual_sequence(a) -> list:
    """b with B(t) = 1 / A(-t), as many terms as ``a`` has (a_0 = 1).

    b_k = sum_i (-1)^(i-1) * a_i * b_(k-i). If a plays the complete
    symmetric functions of the Jacobi-Trudi form det(a_{lambda_i - i + j}),
    b plays the elementary ones.
    """
    signed = [-x if i % 2 == 0 else x for i, x in enumerate(a)]
    b = [1]
    for k in range(1, len(a)):
        b.append(sum(map(mul, signed[1 : k + 1], reversed(b))))
    return b


def hook_classes(a, b) -> list:
    """The hook classes s_(p|q) = sum_k (-1)^k a_(p+1+k) b_(q-k) of weight
    p + q + 1 from 1 to len(a) - 1, for b = dual_sequence(a).

    They are listed by weight w and, within a weight, by q from 0 up, so
    s_(p|q) sits at w(w-1)/2 + q. Each is a_(p+1) b_q - s_(p+1|q-1), and
    s_(w-1|0) = a_w.
    """
    hooks = []
    append = hooks.append
    for w in range(1, len(a)):
        s = a[w]
        append(s)
        for q in range(1, w):
            s = a[w - q] * b[q] - s
            append(s)
    return hooks


def giambelli_plan(parts: tuple) -> tuple:
    """(order, entries): Giambelli's matrix of a non-empty shape.

    With the Frobenius coordinates alpha_i = lambda_i - i and beta_i =
    lambda'_i - i (i from 1) of the r = Durfee size rows, s_lambda =
    det(s_(alpha_i|beta_j)). ``entries`` reads that order-r matrix row by
    row from a ``hook_classes`` list (one value when the order is 1).
    """
    columns = conjugate(parts)
    order = sum(1 for i, p in enumerate(parts) if p > i)
    alphas = [parts[i] - i - 1 for i in range(order)]
    betas = [columns[j] - j - 1 for j in range(order)]
    flat = [(p + q + 1) * (p + q) // 2 + q for p in alphas for q in betas]
    return order, itemgetter(*flat)


def giambelli(plan: tuple, hooks) -> int:
    """The determinant ``plan`` (from ``giambelli_plan``) lays out over the
    ``hook_classes`` list ``hooks``."""
    order, entries = plan
    values = entries(hooks)
    return values if order == 1 else cofactor_determinant(values, order)


def cofactor_determinant(values, order: int) -> int:
    """The determinant of the order x order matrix (order >= 2) laid out row
    by row in ``values``: orders 2 and 3 written out, order 4 as a Laplace
    expansion over the six 2 x 2 minors of its last two rows, larger ones
    by cofactor expansion along the first row."""
    if order == 2:
        w, x, y, z = values
        return w * z - x * y
    if order == 3:
        a, b, c, d, e, f, g, h, i = values
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if order == 4:
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = values
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    rest = values[order:]
    minors = ([x for k, x in enumerate(rest) if k % order != j] for j in range(order))
    return sum(
        (-1) ** j * x * cofactor_determinant(minor, order - 1)
        for j, (x, minor) in enumerate(zip(values, minors))
    )
