"""Schubert calculus on the Grassmannian of q-planes in C^N.

A class is an integer combination of box partitions, each stored as a
zero-padded q-tuple. One combinatorial rule does all the work: multiplying
by a special class sigma_k adds a horizontal strip of k boxes, and only the
corner rows (row 0 up to N-q, row i up to part i-1) can take boxes.
This module keeps only what ``charbound schubert`` runs, and multiplies
classes only by special ones. Giambelli expands the Jacobi-Trudi
determinant det(sigma_{l_i-i+j}) of one shape row by row over subsets of
used columns, keeping only subsets the remaining rows can complete, so an
r-part shape costs at most r*2^(r-1) Pieri steps. A product of special
classes that fills the box needs only its point coefficient, which Poincare
duality reads off two half-products. The classical factorial formula for
the degree of the Grassmannian serves as an independent cross-check on the
whole machine.
"""

from __future__ import annotations

from math import factorial, perm

from .varieties import Partition, Record, exact_decimal


class BoxError(ValueError):
    """A partition does not fit inside the q x (N-q) box."""


class GradingError(ValueError):
    """A pairing was requested in the wrong total codimension."""


class Grassmannian(Record):
    """G_q(C^N): q-dimensional subspaces of C^N."""

    __slots__ = _fields = ("q", "N")

    def __init__(self, q: int, N: int):
        if type(q) is not int or type(N) is not int:
            raise ValueError(f"q and N must be integers, got q={q!r}, N={N!r}")
        if not 1 <= q < N:
            raise ValueError(f"need 1 <= q < N, got q={q}, N={N}")
        super().__init__(q, N)

    @property
    def cols(self) -> int:
        return self.N - self.q

    @property
    def total_codim(self) -> int:
        return self.q * self.cols

    def __str__(self):
        return f"G({self.q},{self.N})"


def _padded_key(grassmannian: Grassmannian, shape) -> tuple:
    """The zero-padded q-tuple of a shape; BoxError if it leaves the box."""
    if not isinstance(shape, Partition):
        shape = Partition(tuple(shape))
    if not shape.fits_in_box(grassmannian.q, grassmannian.cols):
        raise BoxError(
            f"{shape} does not fit in the {grassmannian.q}x"
            f"{grassmannian.cols} box of {grassmannian}"
        )
    return shape.parts + (0,) * (grassmannian.q - len(shape.parts))


class SchubertClass:
    """Integer combination of basis classes, keyed by padded box partitions.

    ``terms`` maps zero-padded q-tuples to nonzero coefficients. A class has
    no arithmetic of its own: ``pieri`` multiplies it by a special class,
    and equality compares terms.
    """

    __slots__ = ("grassmannian", "terms")

    def __init__(self, grassmannian: Grassmannian, terms=None):
        self.grassmannian = grassmannian
        clean = {}
        for shape, coeff in (terms or {}).items():
            key = _padded_key(grassmannian, shape)
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
        self.terms = {s: c for s, c in clean.items() if c}

    @classmethod
    def _trusted(cls, grassmannian: Grassmannian, terms: dict) -> "SchubertClass":
        # keys must already be padded shapes inside the box; zeros are dropped
        out = cls.__new__(cls)
        out.grassmannian = grassmannian
        out.terms = {s: c for s, c in terms.items() if c}
        return out

    @classmethod
    def one(cls, grassmannian: Grassmannian) -> "SchubertClass":
        return cls(grassmannian, {Partition(()): 1})

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.grassmannian == other.grassmannian
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SchubertClass({self.grassmannian}, {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for _, parts, coeff in sorted(
            (sum(key), Partition(key).parts, coeff) for key, coeff in self.terms.items()
        ):
            text = exact_decimal(coeff)
            if not parts:
                pieces.append(text)
                continue
            name = f"sigma[{','.join(map(str, parts))}]"
            pieces.append(name if coeff == 1 else f"{text}*{name}")
        return " + ".join(pieces)


def _strip_shapes(lam: tuple, k: int, cols: int) -> list:
    """Every mu in the box with mu/lam a horizontal strip of k boxes.

    Only corner rows can grow: row 0 up to ``cols``, row i up to lam[i-1].
    The k boxes are spread over those rows as compositions bounded by each
    row's room.
    """
    rows, rooms = [], []
    upper = cols
    for i, part in enumerate(lam):
        if upper > part:
            rows.append(i)
            rooms.append(upper - part)
        if not part:
            break  # rows below the first empty row have no room
        upper = part
    # spare[j]: boxes the corner rows from j on can still take
    spare = [0] * (len(rows) + 1)
    for j in range(len(rows) - 1, -1, -1):
        spare[j] = spare[j + 1] + rooms[j]
    if spare[0] < k:
        return []
    shapes = []
    _place(lam, list(lam), rows, rooms, spare, shapes, 0, k)
    return shapes


def _place(lam, mu, rows, rooms, spare, shapes, j, left) -> None:
    """Add to ``shapes`` each mu of _strip_shapes with ``left`` boxes left for rows j on."""
    if left == 1:
        # the last box goes to any one of the corner rows from j on
        for i in rows[j:]:
            mu[i] += 1
            shapes.append(tuple(mu))
            mu[i] -= 1
        return
    i = rows[j]
    # leave at most spare[j + 1] boxes for the rows below
    for add in range(max(0, left - spare[j + 1]), min(left, rooms[j]) + 1):
        mu[i] = lam[i] + add
        if add == left:
            shapes.append(tuple(mu))
        else:
            _place(lam, mu, rows, rooms, spare, shapes, j + 1, left - add)
    mu[i] = lam[i]


def pieri(s: SchubertClass, k: int) -> SchubertClass:
    """Multiply by the special class sigma_k (sigma_0 is the identity)."""
    gr = s.grassmannian
    if not 0 <= k <= gr.cols:
        raise ValueError(f"special index must satisfy 0 <= k <= {gr.cols}, got {k}")
    if k == 0:
        return s
    cols = gr.cols
    out = {}
    get = out.get
    if k == 1:
        # one box: each corner row in turn, as in _strip_shapes
        for shape, coeff in s.terms.items():
            mu, upper = list(shape), cols
            for i, part in enumerate(shape):
                if upper > part:
                    mu[i] = part + 1
                    key = tuple(mu)
                    out[key] = get(key, 0) + coeff
                    mu[i] = part
                if not part:
                    break
                upper = part
        return SchubertClass._trusted(gr, out)
    for shape, coeff in s.terms.items():
        for mu in _strip_shapes(shape, k, cols):
            out[mu] = get(mu, 0) + coeff
    return SchubertClass._trusted(gr, out)


def giambelli_expand(shape: Partition, grassmannian: Grassmannian) -> SchubertClass:
    """det(sigma_{shape[i] - i + j}), expanded one row at a time from the
    unit class; by Giambelli it must equal the basis class of ``shape``.

    The state maps the bitmask of the columns the rows so far have used to
    the signed sum of their products; taking column j after used columns
    right of it costs one transposition each. Entry (i, j) is nonzero only
    for j in [i - parts[i], i - parts[i] + cols]. Both ends of that window
    grow with i, so the rows left can fill the free columns only in order;
    a state that cannot be completed that way is dropped before its Pieri
    step.
    """
    gr, parts = grassmannian, shape.parts
    _padded_key(gr, shape)
    cols, r = gr.cols, len(parts)
    lo = [max(0, i - part) for i, part in enumerate(parts)]
    hi = [min(r - 1, i - part + cols) for i, part in enumerate(parts)]

    def completable(used, below):
        free = (j for j in range(r) if not used >> j & 1)
        return all(lo[i] <= j <= hi[i] for i, j in zip(range(below, r), free))

    states = {0: SchubertClass.one(gr)}
    for i, part in enumerate(parts):
        sums = {}
        for used, cls in states.items():
            for j in range(lo[i], hi[i] + 1):
                bit = 1 << j
                if used & bit or not completable(used | bit, i + 1):
                    continue
                k = part - i + j
                product = pieri(cls, k) if k else cls
                sign = -1 if (used >> j).bit_count() % 2 else 1
                acc = sums.setdefault(used | bit, {})
                for key, coeff in product.terms.items():
                    acc[key] = acc.get(key, 0) + sign * coeff
        states = {}
        for used, acc in sums.items():
            cls = SchubertClass._trusted(gr, acc)
            if cls.terms:
                states[used] = cls
    return states.get((1 << r) - 1, SchubertClass._trusted(gr, {}))


def special_intersection_number(grassmannian: Grassmannian, factors) -> int:
    """Coefficient of the point class in prod sigma_k^e over (k, e) pairs.

    The codimensions k*e must fill the box exactly. By Poincare duality,
    sigma_lam * sigma_mu in complementary codimensions is the point class if
    mu is the box complement lam^v of lam, lam^v_i = (N-q) - lam_{q-1-i}, and
    0 otherwise; so the point coefficient of A*B is the sum of A_lam *
    B_{lam^v}. Both A and B start from the product P of every exponent
    halved, built once, and the factors of odd exponent go one each, largest
    first, to the side with fewer boxes. Pieri steps then reach only about
    half the box, where a forward product walks every codimension.
    """
    gr = grassmannian
    factors = tuple(factors)
    if any(e < 0 for _, e in factors):
        raise ValueError(f"exponents must be non-negative, got {factors}")
    total = sum(k * e for k, e in factors)
    if total != gr.total_codim:
        raise GradingError(f"total codimension {total} != dim {gr.total_codim} of {gr}")
    shared = SchubertClass.one(gr)
    for k, e in factors:
        for _ in range(e // 2):
            shared = pieri(shared, k)
    half = sum(k * (e // 2) for k, e in factors)
    sides, boxes = [shared, shared], [half, half]
    for k in sorted((k for k, e in factors if e % 2), reverse=True):
        side = boxes[1] < boxes[0]
        sides[side] = pieri(sides[side], k)
        boxes[side] += k
    a, b = sides[0].terms, sides[1].terms
    q, cols = gr.q, gr.cols
    return sum(
        coeff * b.get(tuple(cols - lam[q - 1 - i] for i in range(q)), 0)
        for lam, coeff in a.items()
    )


def grassmannian_degree(q: int, N: int) -> int:
    """Degree of G_q(C^N) in its Pluecker embedding, by the factorial formula.

    (q(N-q))! * prod_{i<q} i! / (N-q+i)!, the hook-length count of the
    q x (N-q) rectangle; the hook product is the same for the transposed
    box, so it runs over the shorter side. Independent oracle for the Pieri
    machinery: must equal the intersection number of q(N-q) copies of
    sigma_1.
    """
    gr = Grassmannian(q, N)
    rows, width = sorted((gr.q, gr.cols))
    hooks = 1
    for i in range(rows):
        hooks *= perm(width + i, width)
    value, rest = divmod(factorial(gr.total_codim), hooks)
    if rest:
        raise ArithmeticError("factorial degree formula must be integral")
    return value
