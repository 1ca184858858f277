"""Chern classes and Chern numbers on complete intersections.

Every bundle handled here is pulled back from the ambient projective space,
so each Chern class is an integer multiple of a power of the hyperplane
class h: c_i = a_i * h^i. A Chern vector is therefore the tuple of integers
a_0..a_rank, and every computation is plain integer arithmetic on it:

- the multiples of a K-theory sum of line bundles O(k h) are one series
  pass over their Chern roots k h: (1+h)^(m+1) / prod(1+d_j h) for the
  tangent bundle, (1+h)^(m+1) / ((1+2h) prod(1+(2-d_j)h)) for the nef
  twist Omega(2h);
- a twist of any Chern vector by t*h is a binomial sum of its multiples;
- a Chern number is the degree times a product of multiples;
- a Schur class s_lambda is D * h^|lambda|, with D Giambelli's determinant
  det(s_(alpha_i|beta_j)) on the Frobenius coordinates of lambda, of order
  its Durfee size. The hook classes s_(p|q) come from the multiples a and
  their dual sequence b, B(t) = 1 / A(-t), by a two-term recursion.

The grid kernel in ``bounds`` reads the int-level helpers here
(``tangent_multiples``, ``degree_sequence``, ``dual_sequence``,
``hook_classes``, ``giambelli_plan``, ``giambelli``) directly; the
per-variety functions delegate to the same helpers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from operator import itemgetter, mul

from .varieties import CompleteIntersection, MultiIndex, Partition, Record


class DegreeError(ValueError):
    """A pairing was requested in the wrong cohomological degree."""


class ChernVector(Record):
    """Total Chern class of a bundle restricted to a fixed variety.

    ``multiples[i]`` is the integer a_i with c_i = a_i * h^i; a_0 = 1 and the
    tuple has exactly ``rank + 1`` entries. Classes live in degrees up to
    ``cap`` (the variety dimension), so a_i is stored as 0 for i > cap.
    """

    __slots__ = _fields = ("rank", "multiples", "cap")

    def __init__(self, rank: int, multiples: tuple, cap: int):
        multiples = tuple(multiples)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        if len(multiples) != rank + 1:
            raise ValueError(f"need rank+1={rank + 1} multiples, got {len(multiples)}")
        for a in multiples:
            if type(a) is not int:
                raise TypeError(f"multiples must be int, got {type(a).__name__}")
        if multiples[0] != 1:
            raise ValueError("c_0 must be 1")
        if rank > cap:
            multiples = multiples[: cap + 1] + (0,) * (rank - cap)
        super().__init__(rank, multiples, cap)

    def chern(self, i: int) -> int:
        """a_i, the multiple of h^i in c_i; 0 outside 0 <= i <= rank."""
        if 0 <= i <= self.rank:
            return self.multiples[i]
        return 0

    @classmethod
    def from_h_multiples(cls, multiples, cap: int) -> "ChernVector":
        """Build from integers a_0..a_r with c_i = a_i * h^i."""
        ms = tuple(multiples)
        return cls(len(ms) - 1, ms, cap)

    def h_multiples(self) -> tuple:
        """The integers a_i with c_i = a_i * h^i."""
        return self.multiples


# the cached functions of this module hold one entry per variety a caller
# asks about; verify_grid reads the int-level helpers instead
@lru_cache(maxsize=None)
def tangent_chern(ci: CompleteIntersection) -> ChernVector:
    """Chern classes of the tangent bundle, via the ambient/normal quotient.

    The multiples are the coefficients of (1+h)^(m+1) / prod_j (1 + d_j h)
    up to h^n; dividing by (1 + d h) is the recursion b_k = a_k - d * b_(k-1).
    """
    n = ci.dimension
    return ChernVector(n, tuple(tangent_multiples(ci.ambient_dim, ci.multidegree, n)), n)


def tangent_multiples(ambient_dim: int, degrees, n: int) -> list:
    """a_0..a_n of (1+h)^(ambient_dim+1) / prod_j (1 + d_j h): the bundle
    (ambient_dim+1)*O(1) less the O(d_j), whose Chern roots d_j * h may be
    any ints. For the degrees of an n-dimensional complete intersection in
    P^ambient_dim, its tangent bundle."""
    series = [comb(ambient_dim + 1, i) for i in range(n + 1)]
    for d in degrees:
        for k in range(1, n + 1):
            series[k] -= d * series[k - 1]
    return series


@lru_cache(maxsize=None)
def cotangent_chern(ci: CompleteIntersection) -> ChernVector:
    """Chern classes of the cotangent bundle: c_i flips sign with parity."""
    t = tangent_chern(ci)
    return ChernVector(
        t.rank, tuple(-a if i % 2 else a for i, a in enumerate(t.multiples)), t.cap
    )


def twist_chern(e: ChernVector, t: int) -> ChernVector:
    """Chern classes after tensoring with a line bundle of class t*h.

    c_i(E (x) L) = sum_j C(rank-j, i-j) * t^(i-j) * c_j(E); twisting by t and
    then by -t is the identity.
    """
    r = e.rank
    return ChernVector(
        r,
        tuple(
            sum(comb(r - j, i - j) * t ** (i - j) * e.multiples[j] for j in range(i + 1))
            for i in range(r + 1)
        ),
        e.cap,
    )


def _require_cap(ci: CompleteIntersection, e: ChernVector) -> int:
    n = ci.dimension
    if e.cap != n:
        raise ValueError(f"Chern vector truncated at {e.cap}, variety has dimension {n}")
    return n


def chern_number(
    ci: CompleteIntersection, e: ChernVector, index: MultiIndex
) -> int:
    """Pairing of c_{i_1}...c_{i_r} * h^(n - |I|) against the variety.

    The product is (prod_t a_{i_t}) * h^n, so the pairing is that product
    times the degree.
    """
    n = _require_cap(ci, e)
    if index.weight > n:
        raise DegreeError(f"index weight {index.weight} exceeds dimension {n}")
    return ci.degree * prod(e.chern(i) for i in index)


@lru_cache(maxsize=None)
def euler_characteristic(ci: CompleteIntersection) -> int:
    """Topological Euler characteristic: the top tangent Chern number."""
    n = ci.dimension
    return chern_number(ci, tangent_chern(ci), MultiIndex((n,)))


def canonical_class(ci: CompleteIntersection) -> int:
    """h-multiple of the canonical class: sum(d_j) - m - 1."""
    return sum(ci.multidegree) - ci.ambient_dim - 1


def ample_class(ci: CompleteIntersection) -> int:
    """h-multiple of the ample twist canonical + (n+2)h; always >= 1."""
    value = canonical_class(ci) + ci.dimension + 2
    if value <= 0:
        raise RuntimeError(
            f"ample multiple {value} <= 0 for {ci}; this cannot happen for a "
            "valid smooth complete intersection"
        )
    return value


def ample_degree_sequence(ci: CompleteIntersection) -> tuple:
    """Pairings h^(n-i) * A^i for i = 0..n, with A the ample class above.

    Entry 0 is the degree; for hypersurfaces the sequence is exactly
    (d, d^2, ..., d^(n+1)).
    """
    return degree_sequence(ample_class(ci), ci.degree, ci.dimension)


def degree_sequence(a: int, d: int, n: int) -> tuple:
    """(d, a*d, ..., a^n*d): the pairings h^(n-i) * (a*h)^i on a degree-d
    n-fold."""
    return tuple([a**i * d for i in range(n + 1)])


def schur_class(e: ChernVector, shape: Partition) -> int:
    """The integer D with s_lambda(e) = D * h^|lambda|.

    D is the Jacobi-Trudi determinant det(a_{lambda_i - i + j}), where
    entries with index below 0 or above the rank are zero and a_0 = 1,
    taken as Giambelli's determinant (see ``giambelli``). The empty shape
    gives 1; a shape larger than the cap gives 0.
    """
    if len(shape) == 0:
        return 1
    if shape.parts[0] > e.rank:
        raise ValueError(
            f"largest part {shape.parts[0]} exceeds bundle rank {e.rank}"
        )
    if shape.size > e.cap:
        return 0
    # every hook of the shape has weight at most |lambda| <= cap
    a = [e.chern(i) for i in range(shape.size + 1)]
    return giambelli(giambelli_plan(shape.parts), hook_classes(a, dual_sequence(a)))


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


def pontryagin_to_chern_index(index: MultiIndex) -> MultiIndex:
    """Chern indices whose squared classes bound the given real-side index."""
    return MultiIndex(tuple(2 * j for j in index))


def squared_chern_pairing(
    ci: CompleteIntersection, e: ChernVector, index: MultiIndex
) -> int:
    """Pairing of the product of squared classes c_{2j_t}^2 against the variety.

    The product must land exactly in top degree; the empty index is the
    fundamental pairing of h^n, i.e. the degree.
    """
    n = _require_cap(ci, e)
    if len(index) == 0:
        return ci.degree
    chern_idx = pontryagin_to_chern_index(index)
    if 2 * chern_idx.weight != n:
        raise DegreeError(
            f"squared classes have degree {2 * chern_idx.weight}, need {n}"
        )
    return ci.degree * prod(e.chern(i) ** 2 for i in chern_idx)
