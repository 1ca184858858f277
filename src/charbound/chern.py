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
  their dual sequence b, B(t) = 1 / A(-t), by a two-term recursion. As
  1 / (1-t)^(m+1) = sum_i C(m+i, i) t^i, B(t) is that series times
  (1 - r t) over the same Chern roots r: one product pass per root.

Betti numbers, the ground truth of the Betti bounds, are those of P^n off
the middle (Lefschetz and duality); the middle one makes up the Euler
characteristic.

``_Chunk`` builds every series that the grid checks, ``table`` and
``verify --sigma`` read, for a chunk of varieties at a time, in one loop
over the varieties that walks each one's degrees once; the grid sweep and
the signature check read it as charbound.bounds._Chunk. The Schur check
reads its dual sequences from ``twist_duals``, over the same roots 2 and
2 - d_j, one list per variety, and its determinants from the helpers
below. ``tangent_chern``, read from a one-variety chunk,
``euler_characteristic`` and ``betti_numbers`` are the same values for
one variety, cached for library callers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from operator import add, itemgetter, mul, sub

from .varieties import CompleteIntersection


class DegreeError(ValueError):
    """A Chern-number bound was asked for an index of weight above the
    dimension."""


# the cached functions of this module hold one entry per variety a caller
# asks about; verify_grid and `table` read the int-level helpers instead
@lru_cache(maxsize=None)
def tangent_chern(ci: CompleteIntersection) -> tuple:
    """a_0..a_n with c_i(T) = a_i * h^i, via the ambient/normal quotient:
    the coefficients of (1+h)^(m+1) / prod_j (1 + d_j h) up to h^n, read
    from a _Chunk of the one variety."""
    return tuple(_Chunk(ci.dimension, [ci.multidegree]).tangent[0])


def binomial_row(top: int, n: int) -> list:
    """C(top, 0..n): the multiples of (1+h)^top up to h^n."""
    return [*map(comb, repeat(top, n + 1), range(n + 1))]


@lru_cache(maxsize=None)
def euler_characteristic(ci: CompleteIntersection) -> int:
    """Topological Euler characteristic: the top tangent Chern number d * a_n."""
    return ci.degree * tangent_chern(ci)[ci.dimension]


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


def conjugate(parts: tuple) -> tuple:
    """The conjugate partition: column lengths of the Young diagram."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def twist_duals(m: int, n: int, multidegrees) -> list:
    """b_0..b_(n-1), for each multidegree, of the nef twist's multiples a of
    the n-dimensional complete intersection in P^m: the dual sequence,
    B(t) = 1 / A(-t). A(t) is (1+t)^(m+1) / ((1+2t) prod_j (1+(2-d_j)t)),
    so B(t) is the product (1-2t) prod_j (1-(2-d_j)t) sum_i C(m+i, i) t^i
    over the same roots, O(n k) a variety. Multiplying by (1 - r t) is b_i
    -= r * b_(i-1), from the top down. If a plays the complete symmetric
    functions of the Jacobi-Trudi form det(a_{lambda_i - i + j}), b plays
    the elementary ones."""
    row, steps, out = [*map(comb, range(m, m + n), range(n))], range(n - 1, 0, -1), []
    for i in steps:
        row[i] -= 2 * row[i - 1]
    for degrees in multidegrees:
        b = row[:]
        for d in degrees:
            r = 2 - d
            for i in steps:
                b[i] -= r * b[i - 1]
        out.append(b)
    return out


class _Chunk:
    """The Chern and Betti ints of some complete intersections of one
    dimension n, those of the given multidegrees, all of one length k, in
    P^(n + k): every value a grid check, `table` or the signature check
    reads. A series or running product is one list per variety, a number
    one column: a list with one int per variety, in the chunk's order. One
    loop over the varieties builds every series, each variety's from one
    walk over its degrees."""

    def __init__(self, n: int, multidegrees: list):
        self.n, self.size, self.multidegrees = n, len(multidegrees), multidegrees
        # C(m+1, i), the multiples of (1+h)^(m+1) on P^m, m = n + k; those of
        # (m+1)O(1) less an O(r) divide it by (1 + r h): b_i -= r * b_(i-1)
        row, steps = binomial_row(n + len(multidegrees[0]) + 1, n), range(1, n + 1)
        # the cotangent bundle twisted by 2h, which is nef, is (m+1)O(1) -
        # O(2) - sum_j O(2 - d_j): every variety shares the root 2
        nef = row[:]
        for i in steps:
            nef[i] -= 2 * nef[i - 1]
        found = []
        for degrees in multidegrees:
            d, tangent, twisted = 1, row[:], nef[:]
            for r in degrees:
                d *= r
                s = 2 - r
                for i in steps:
                    tangent[i] -= r * tangent[i - 1]
                    twisted[i] -= s * twisted[i - 1]
            # running products from d: a^i d, the degree sequence of the ample
            # A = K + (n+2)h with K = -c_1; d^(i+1), its bounds; and
            # d (d+n-2)^w, the Chern number bounds by weight w
            a, base, x, y, z = n + 2 - tangent[1], d + n - 2, d, d, d
            sequence, cap, power = [d], [d], [d]
            for _ in steps:
                x, y, z = x * a, y * d, z * base
                sequence.append(x)
                cap.append(y)
                power.append(z)
            found.append((d, tangent, twisted, sequence, cap, power))
        columns = map(list, zip(*found))
        self.ds, self.tangent, self.twisted, self.sequence, self.degree_powers, self.powers = columns
        self.chi = chi = [*map(mul, self.ds, map(itemgetter(n), self.tangent))]
        # the columns (sum_i b_i, sum_i (-1)^i b_i): off the middle the
        # numbers add up to n + n % 2 either way, and the middle one counts
        # with sign (-1)^n in the alternating sum
        off, middles = n + n % 2, middle_betti(n, chi)
        total = [*map(add, repeat(off), middles)]
        self.betti_sums = total, total if n % 2 == 0 else [*map(sub, repeat(off), middles)]


def hook_classes(a, b) -> list:
    """The hook classes s_(p|q) = sum_k (-1)^k a_(p+1+k) b_(q-k) of weight
    p + q + 1 from 1 to len(a) - 1, for b the dual sequence of a (see
    twist_duals), of which b_0..b_(len(a) - 2) are read.

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
