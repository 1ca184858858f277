"""Schubert calculus on the Grassmannian of q-planes in C^N.

A class is an integer combination of box partitions. A SchubertClass, the
API's type, keys its terms by zero-padded q-tuples; inside, each shape is an
N-bit word with row i's bit at part i + q - 1 - i, so a part counts the
clear bits below its row's bit. One combinatorial rule does all the work:
multiplying by a special class sigma_k adds a horizontal strip of k boxes.
A box moves a bit up one place, so the corner rows, the ones that can take
a box, are the bits of w & ~(w >> 1) below the top bit, and the box
complement of a shape is its word read backwards. This module keeps only
what ``charbound schubert`` runs, and multiplies classes only by special
ones; each product chains the strip step on word-keyed dicts and builds one
SchubertClass at the end. Giambelli expands the Jacobi-Trudi
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


def _word(shape: tuple) -> int:
    """The N-bit word of a padded shape: row i's bit at shape[i] + q - 1 - i."""
    return sum(1 << part + i for i, part in enumerate(reversed(shape)))


def _shape(word: int, q: int) -> tuple:
    """The padded shape of a word: each row's part counts the clear bits below its bit."""
    parts = []
    for i in range(q):
        bit = word & -word
        word ^= bit
        parts.append(bit.bit_length() - 1 - i)
    return tuple(reversed(parts))


def _class(gr: Grassmannian, words: dict) -> SchubertClass:
    """The class of word-keyed terms; zero coefficients are dropped."""
    out = SchubertClass.__new__(SchubertClass)
    out.grassmannian = gr
    out.terms = {_shape(word, gr.q): coeff for word, coeff in words.items() if coeff}
    return out


def _strip(words: dict, k: int, gr: Grassmannian) -> dict:
    """Word-keyed terms times the special class sigma_k (sigma_0 is the
    identity): every way to add a horizontal strip of k boxes.

    The boxes of a strip lie in k different columns, so they go in one at a
    time from left to right. A box moves the bit of a corner row up one
    place, and the next box goes to a corner at or above the bit that moved,
    the same row again while its bit can still move. Between boxes a term is
    keyed by its word and that bit, so the paths of different terms that
    meet there go on as one; after the last box, by its word alone.
    """
    if not 0 <= k <= gr.cols:
        raise ValueError(f"special index must satisfy 0 <= k <= {gr.cols}, got {k}")
    if not k:
        return words
    end = 1 << gr.N
    states = {(word, 1): coeff for word, coeff in words.items()}
    for left in range(k, 0, -1):
        grown = {}
        get = grown.get
        for (word, low), coeff in states.items():
            # the bits with a clear bit above them, below the top bit, from low up
            corners = word & ~((word | end) >> 1) & -low
            while corners:
                bit = corners & -corners
                corners ^= bit
                key = (word + bit, bit << 1) if left > 1 else word + bit
                grown[key] = get(key, 0) + coeff
        states = grown
    return states


def pieri(s: SchubertClass, k: int) -> SchubertClass:
    """Multiply by the special class sigma_k (sigma_0 is the identity)."""
    words = {_word(shape): coeff for shape, coeff in s.terms.items()}
    return _class(s.grassmannian, _strip(words, k, s.grassmannian))


def special_product(grassmannian: Grassmannian, factors) -> SchubertClass:
    """prod sigma_k^e over (k, e) pairs, one Pieri step per factor."""
    words = {(1 << grassmannian.q) - 1: 1}
    for k, e in factors:
        for _ in range(e):
            words = _strip(words, k, grassmannian)
    return _class(grassmannian, words)


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

    states = {0: {(1 << gr.q) - 1: 1}}
    for i, part in enumerate(parts):
        sums = {}
        for used, words in states.items():
            for j in range(lo[i], hi[i] + 1):
                bit = 1 << j
                if used & bit or not completable(used | bit, i + 1):
                    continue
                sign = -1 if (used >> j).bit_count() % 2 else 1
                acc = sums.setdefault(used | bit, {})
                for word, coeff in _strip(words, part - i + j, gr).items():
                    acc[word] = acc.get(word, 0) + sign * coeff
        states = {}
        for used, acc in sums.items():
            words = {word: coeff for word, coeff in acc.items() if coeff}
            if words:
                states[used] = words
    return _class(gr, states.get((1 << r) - 1, {}))


def special_intersection_number(grassmannian: Grassmannian, factors) -> int:
    """Coefficient of the point class in prod sigma_k^e over (k, e) pairs.

    The codimensions k*e must fill the box exactly. By Poincare duality,
    sigma_lam * sigma_mu in complementary codimensions is the point class if
    mu is the box complement lam^v of lam, lam^v_i = (N-q) - lam_{q-1-i}, and
    0 otherwise; so the point coefficient of A*B is the sum of A_lam *
    B_{lam^v}, and the word of lam^v is the word of lam read backwards.
    Both A and B start from the product P of every exponent halved, built
    once, and the factors of odd exponent go one each, largest first, to
    the side with fewer boxes. Pieri steps then reach only about half the
    box, where a forward product walks every codimension.
    """
    gr = grassmannian
    factors = tuple(factors)
    if any(e < 0 for _, e in factors):
        raise ValueError(f"exponents must be non-negative, got {factors}")
    total = sum(k * e for k, e in factors)
    if total != gr.total_codim:
        raise GradingError(f"total codimension {total} != dim {gr.total_codim} of {gr}")
    shared = {(1 << gr.q) - 1: 1}
    for k, e in factors:
        for _ in range(e // 2):
            shared = _strip(shared, k, gr)
    half = sum(k * (e // 2) for k, e in factors)
    sides, boxes = [shared, shared], [half, half]
    for k in sorted((k for k, e in factors if e % 2), reverse=True):
        side = boxes[1] < boxes[0]
        sides[side] = _strip(sides[side], k, gr)
        boxes[side] += k
    a, b = sides
    bits = f"0{gr.N}b"
    return sum(coeff * b.get(int(format(word, bits)[::-1], 2), 0) for word, coeff in a.items())


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
