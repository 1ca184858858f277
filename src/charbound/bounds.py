"""Explicit bound formulas and the verification pipeline that compares them
with exact values over grids of complete intersections.

Every reachable quantity is computed exactly; real-side data (signatures,
Euler characteristics of real loci) is never computed, only supplied, and
reports say which is which. Where a bound's base factor (d+n-2) vanishes,
the formula leaves its regime: those reports are flagged degenerate rather
than special-cased, and the flagged cases are settled by direct inspection.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, islice, repeat
from math import comb, prod
from operator import and_, ge, iconcat, itemgetter, mul, sub
from typing import NamedTuple

from .chern import (
    DegreeError,
    _Chunk,
    giambelli,
    giambelli_plan,
    hook_classes,
)
from .report import _json_head, _write
from .varieties import (
    CompleteIntersection,
    MultiIndex,
    Record,
    exact_decimal,
    exact_repr,
    partitions_of,
)

# every check of a dimension-n case walks all partitions of weight <= n, a
# count that grows exponentially in n; the 23 hypersurfaces of the grid
# max_ambient_dim=24, max_degree_per_factor=1, max_codim=1 take about 0.16 s
# in a fresh process (best of 3 on a 2-core Xeon)
MAX_AMBIENT_DIM = 24
# a grid may hold at most this many cases after its max_cases cap; counted in
# closed form before anything is enumerated, so a huge degree or case cap is
# refused up front instead of overflowing or exhausting memory
MAX_GRID_CASES = 10**6

DEGENERATE_NOTE = "degenerate bound base (d+n-2)=0; settled by direct inspection"


class BoundReport(NamedTuple):
    """One verified inequality instance.

    ``satisfied`` is ``|exact_value| <= bound_value``, and for the checks
    with a lower limit also ``exact_value >= limit``: 1 for degree-sequence,
    0 for nef-chern. ``margin`` is ``bound_value - |exact_value|``.
    Schur positivity is one-sided with bound 0, so it records its shortfall
    ``min(pairing, 0)`` as the exact value and the pairing in ``note``.
    """

    subject: str
    n: int | None
    d: int | None
    multidegree: tuple | None
    index: tuple | None
    exact_value: int | None
    bound_value: int
    satisfied: bool
    margin: int | None
    degenerate: bool = False
    note: str = ""

    # the named tuple's repr, with every int in full
    __repr__ = Record.__repr__

    def witness(self) -> str:
        return (
            f"subject={self.subject} n={exact_repr(self.n)} d={exact_repr(self.d)} "
            f"multidegree={exact_repr(self.multidegree)} index={exact_repr(self.index)} "
            f"exact={exact_repr(self.exact_value)} bound={exact_repr(self.bound_value)} "
            f"margin={exact_repr(self.margin)}"
        )


# -- closed-form bounds ----------------------------------------------------


def _validate_nd(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")


def pontryagin_bound(n: int, d: int) -> int:
    """2^(n^2+3n) * d * (d+n-2)^n, the cap on real-side Pontryagin numbers."""
    _validate_nd(n, d)
    return 2 ** (n * n + 3 * n) * d * (d + n - 2) ** n


def betti_bound(n: int, d: int) -> int:
    """2^(n^2+2) * d^(n+1), the closed-form cap on the total Betti number."""
    _validate_nd(n, d)
    return 2 ** (n * n + 2) * d ** (n + 1)


def curve_betti_bound(d: int) -> int:
    """2 + (d-1)(d-2): exact for smooth plane curves, an upper bound otherwise."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return 2 + (d - 1) * (d - 2)


# one entry per (n, d) reached: the recursion fills n = 1 up to the n asked,
# so a degree d holds as many entries as its largest n (below
# MAX_AMBIENT_DIM on a grid, up to cli.MAX_BOUND_N through `table`). A verify
# run asks for one d per grid key, so its grid bounds what it adds; a library
# process that asks for ever new degrees grows the cache for its lifetime
@lru_cache(maxsize=None)
def betti_bound_recursive(n: int, d: int) -> int:
    """Recurse through hyperplane sections: 4*b(H) + 2*2^(n^2)*d^(n+1).

    A hyperplane section keeps the degree d and lowers n by one, so the
    recursion runs on (n, d) alone and ends at the plane-curve bound.
    """
    _validate_nd(n, d)
    if n == 1:
        return curve_betti_bound(d)
    return 4 * betti_bound_recursive(n - 1, d) + 2 * 2 ** (n * n) * d ** (n + 1)


def nef_chern_bound(n: int, d: int, index: MultiIndex) -> int:
    """d * (d+n-2)^|I|, the cap on Chern numbers of the nef cotangent twist."""
    _validate_nd(n, d)
    if index.weight > n:
        raise DegreeError(f"index weight {index.weight} exceeds dimension {n}")
    return d * (d + n - 2) ** index.weight


def cotangent_chern_bound(n: int, d: int, index: MultiIndex) -> int:
    """2^(n^2) * d * (d+n-2)^|I|, the cap on untwisted cotangent Chern numbers."""
    _validate_nd(n, d)
    if index.weight > n:
        raise DegreeError(f"index weight {index.weight} exceeds dimension {n}")
    return 2 ** (n * n) * d * (d + n - 2) ** index.weight


def signature_check(ci: CompleteIntersection, sigma: int, stream=None) -> BoundReport:
    """Report on |3*sigma| <= c2^2 for a 4-dimensional variety, with an
    externally supplied signature; c2^2 = d * a_2^2 from its tangent
    multiples. Given a ``stream``, writes {"reports": [...]} to it."""
    n = ci.dimension
    if n != 4:
        raise ValueError(f"signature check needs a 4-dimensional variety, got dimension {n}")
    c = _Chunk(n, [ci.multidegree])
    d = c.ds[0]
    # one row, with no lower limit and no base (d+n-2) in its bound
    layout = ("signature",), (None,), (), (False,)
    notes = (("sigma supplied externally; c2^2 computed",),).__getitem__
    batch = n, (d,), layout, ((3 * sigma,),), ((d * c.tangent[0][2] ** 2,),), notes
    columns = _columns(batch)
    if stream is not None:
        _write(stream, "json", [(0, ci.multidegree, columns, True)])
    (row,) = _rows(columns, 0)
    return BoundReport(row[0], n, d, ci.multidegree, *row[1:])


def blowup_euler(
    chi_m: int, chi_c: int, nu: int, real_side: bool = False, chi_c_real: int = 0
) -> int:
    """Euler characteristic after blowing up along a codimension-nu center.

    Complex side: chi(M) + (nu-1)*chi(C). Real side: chi(M) + 2*chi(C_real),
    independent of nu.
    """
    if nu < 2:
        raise ValueError("blow-up center must have codimension >= 2")
    if real_side:
        return chi_m + 2 * chi_c_real
    return chi_m + (nu - 1) * chi_c


# -- checks ----------------------------------------------------------------
# The grid computes its keys a chunk at a time (see GridSweep), and each
# check gives the columns (values, bounds, notes) of its rows for every key
# of a _Chunk, all from plain ints. ``values`` and ``bounds`` hold one
# sequence per key: the key's row exact values and bounds. ``notes`` is
# None where every note is "", else a function of a key's place in the
# chunk that gives its rows' notes, so a note is built only for a key whose
# notes are read. A check works on all of the chunk's keys at once: a
# number per key is a column built by C-level map passes, a series or
# running product a list per key that the chunk builds in its one loop over
# the keys, and the partition-indexed rows (Chern numbers, Schur pairings)
# a loop over each key's rows, so a chunk of one key does the big-int work
# of one key. The table below says which lower limit and which bound base
# apply to the rows, and gives each check's index column at dimension n
# from its _Tables: one index per row, the same for every key of n, so the
# rows at n are counted and laid out before any key is computed. The sweep
# calls a check only where that column is not empty.


class _Tables:
    """What every variety of dimension n shares; build it through _tables(n),
    which extends the tables one dimension down."""

    __slots__ = ("indices", "weights", "by_weight", "steps", "plans", "singles", "fourths")

    def __init__(self, n: int):
        if n == 0:
            self.indices, self.weights, self.steps, self.plans = ((),), (0,), (), ()
            self.singles = ((0,),)
            return
        below = _tables(n - 1)
        where = {parts: i for i, parts in enumerate(below.indices)}
        new = tuple(partitions_of(n))
        # () and the partitions of 1..n by weight: the multi-indices
        self.indices = below.indices + new
        self.weights = below.weights + (n,) * len(new)
        # a tuple of each index's item of a sequence by weight
        self.by_weight = itemgetter(*self.weights)
        # (position of I minus its last part, that part) for each I != ()
        self.steps = below.steps + tuple((where[parts[:-1]], parts[-1]) for parts in new)
        # chern.giambelli_plan of each shape, the indices after ()
        self.plans = below.plans + tuple(map(giambelli_plan, new))
        self.singles = below.singles + ((n,),)
        # the partitions of n/4 where 4 | n: the Pontryagin indices
        self.fourths = () if n % 4 else tuple(partitions_of(n // 4))


# one entry per dimension, at most MAX_AMBIENT_DIM of them
_tables = lru_cache(maxsize=None)(_Tables)


def _chern_numbers(t: _Tables, d: int, multiples) -> list:
    """d * prod(multiples[i] for i in I) for every index I of the tables t,
    each one the product of its parent's by its last part's multiple."""
    values = [d]
    append = values.append
    for parent, last in t.steps:
        append(values[parent] * multiples[last])
    return values


def _products(left, right) -> list:
    """Row by row, the products of two sequences, one tuple per key."""
    return [*map(tuple, map(map, repeat(mul), left, right))]


def _degree_sequence_rows(c):
    return c.sequence, c.degree_powers, None


def _log_concavity_rows(c):
    seq = c.sequence
    middle = [*map(itemgetter(slice(1, -1)), seq)]
    products = _products(map(itemgetter(slice(2, None)), seq), seq)
    return products, _products(middle, middle), None


def _nef_chern_rows(c):
    t = _tables(c.n)
    values = [*map(_chern_numbers, repeat(t), c.ds, c.twisted)]
    return values, [*map(t.by_weight, c.powers)], None


def _cotangent_chern_rows(c):
    t, scale = _tables(c.n), 2 ** (c.n * c.n)
    # c_i of the cotangent bundle is (-1)^i times c_i of the tangent bundle
    signs = (1, -1) * (c.n // 2 + 1)
    values = [*map(_chern_numbers, repeat(t), c.ds, _products(c.tangent, repeat(signs)))]
    bounds = map(t.by_weight, _products(c.powers, repeat(repeat(scale))))
    return values, [*bounds], None


def _betti_rows(c):
    # betti_bound(n, d) = 2^(n^2+2) * d^(n+1)
    bounds = map(mul, map(itemgetter(c.n), c.degree_powers), repeat(2 ** (c.n * c.n + 2)))
    return [*zip(c.betti_sums[0])], [*zip(bounds)], None


def _recursive_betti_rows(c):
    bounds = map(betti_bound_recursive, repeat(c.n), c.ds)
    return [*zip(c.betti_sums[0])], [*zip(bounds)], None


def _euler_rows(c):
    chi, alternating = c.chi, c.betti_sums[1]

    def notes(j):
        return (f"chi={chi[j]} alternating_betti={alternating[j]}",)

    return [*zip(map(sub, chi, alternating))], [(0,)] * c.size, notes


def _schur_positivity_rows(c):
    # s_lambda = D * h^|lambda|, paired with h^(n - |lambda|); the check is
    # one-sided with bound 0, so a row's value is its shortfall
    # min(pairing, 0) and its note the pairing
    t = _tables(c.n)
    hooks = map(hook_classes, c.twisted, c.duals)
    pairings = [[giambelli(plan, found) * d for plan in t.plans] for d, found in zip(c.ds, hooks)]
    # nearly every pairing is >= 0, so its shortfall is 0
    zeros = [(0,) * len(t.plans)] * c.size
    shortfalls = zeros
    if min(map(min, pairings)) < 0:
        shortfalls = [[pairing if pairing < 0 else 0 for pairing in found] for found in pairings]

    def notes(j):
        try:
            return tuple(map("pairing=%d".__mod__, pairings[j]))
        except ValueError:  # an int past str()'s digit limit
            return tuple("pairing=" + exact_decimal(pairing) for pairing in pairings[j])

    return shortfalls, zeros, notes


def _pontryagin_rows(c):
    n, indices = c.n, _tables(c.n).fourths
    # the Pontryagin index j reads the squared class c_2j of the nef twist;
    # pontryagin_bound(n, d) = 2^(n^2+3n) * d * (d+n-2)^n
    values = [
        [d * prod(twisted[2 * j] ** 2 for j in parts) for parts in indices]
        for d, twisted in zip(c.ds, c.twisted)
    ]
    bounds = [[2 ** (n * n + 3 * n) * powers[n]] * len(indices) for powers in c.powers]
    return values, bounds, None


# name -> (rows, least legal exact value or None, bound has the base (d+n-2),
# the index of each row the check gives a key of dimension n, from its _Tables)
_RULES = {
    "degree-sequence": (_degree_sequence_rows, 1, False, lambda t: t.singles),
    "log-concavity": (_log_concavity_rows, None, False, lambda t: t.singles[2:]),
    "nef-chern": (_nef_chern_rows, 0, True, lambda t: t.indices),
    "cotangent-chern": (_cotangent_chern_rows, None, True, lambda t: t.indices),
    "betti": (_betti_rows, None, False, lambda t: (None,)),
    "betti-recursive": (_recursive_betti_rows, None, False, lambda t: (None,)),
    "euler": (_euler_rows, None, False, lambda t: (None,)),
    "schur-positivity": (_schur_positivity_rows, None, False, lambda t: t.indices[1:]),
    "pontryagin": (_pontryagin_rows, None, True, lambda t: t.fourths),
}

CHECK_NAMES = tuple(_RULES)

# name -> callable(chunk) -> its rows' columns; GridSweep dispatches here
_CHECKS = {name: rule[0] for name, rule in _RULES.items()}


def _row_count(names, n: int) -> int:
    """The rows the checks ``names`` give each key of dimension n, read from
    their index columns before any key is computed: over all nine, 2n + 2 +
    3 * sum_(k<=n) p(k) + [4 | n] * p(n/4)."""
    t = _tables(n)
    return sum(len(_RULES[name][3](t)) for name in names)


def _layout(names, n: int) -> tuple:
    """(subjects, indices, limits, based): the rows that the checks
    ``names`` give every variety of dimension n, from their index columns.
    A check's rows are contiguous. ``limits`` holds (start, stop, least)
    for the rows of each check with a lower limit. A row is based when its
    bound has the base (d+n-2) as a factor: the rows of a check with that
    base whose index is not empty."""
    t, subjects, indices, limits, based = _tables(n), [], [], [], []
    for name in names:
        _, least, has_base, column = _RULES[name]
        found, start = column(t), len(subjects)
        if least is not None and found:
            limits.append((start, start + len(found), least))
        subjects += repeat(name, len(found))
        indices += found
        based += [has_base and bool(index) for index in found]
    return tuple(subjects), tuple(indices), tuple(limits), tuple(based)


# -- verification grid -----------------------------------------------------


class GridSpec(Record):
    """Family of complete intersections to sweep, and which checks to run."""

    __slots__ = _fields = (
        "max_ambient_dim",
        "max_degree_per_factor",
        "max_codim",
        "checks",
        "max_cases",
    )

    def __init__(
        self,
        max_ambient_dim: int = 8,
        max_degree_per_factor: int = 5,
        max_codim: int = 7,
        checks: tuple = CHECK_NAMES,
        max_cases: int = 500,
    ):
        if not isinstance(checks, (list, tuple)):
            raise ValueError(f"checks must be a list of names, got {type(checks).__name__}")
        checks = tuple(checks)
        sizes = {
            "max_ambient_dim": max_ambient_dim,
            "max_degree_per_factor": max_degree_per_factor,
            "max_codim": max_codim,
            "max_cases": max_cases,
        }
        for name, value in sizes.items():
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 2 <= max_ambient_dim <= MAX_AMBIENT_DIM:
            raise ValueError(
                f"max_ambient_dim must be between 2 and {MAX_AMBIENT_DIM}, "
                f"got {max_ambient_dim}"
            )
        if max_degree_per_factor < 1:
            raise ValueError("max_degree_per_factor must be >= 1")
        if max_codim < 1:
            raise ValueError("max_codim must be >= 1")
        if max_cases < 0:
            raise ValueError("max_cases must be >= 0")
        if not checks:
            raise ValueError("checks must name at least one check")
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}"
            )
        repeated = sorted({c for c in checks if checks.count(c) > 1})
        if repeated:
            raise ValueError(f"checks named more than once: {repeated}")
        super().__init__(max_ambient_dim, max_degree_per_factor, max_codim, checks, max_cases)
        if self.case_count > MAX_GRID_CASES:
            raise ValueError(
                f"the grid has more than {MAX_GRID_CASES} cases after the max_cases cap; "
                "lower max_cases, max_degree_per_factor, max_codim or max_ambient_dim"
            )

    @property
    def _block_sizes(self) -> list:
        """C(D+k-1, k), the cases of a block of codimension k, for k from 0
        to the deepest a block reaches. No degree above max_cases + 1 is
        reached before the cap, so D is cut to it: where that cuts, C(D, 1)
        alone passes the cap, with or without the cut."""
        top = min(self.max_degree_per_factor, self.max_cases + 1)
        deepest = min(self.max_codim, self.max_ambient_dim - 1)
        return [comb(top + k - 1, k) for k in range(deepest + 1)]

    @property
    def case_count(self) -> int:
        """verify_grid(self).case_count in closed form: the sizes of the
        blocks of each P^m, codimension 1 to m - 1, summed and capped."""
        sizes = self._block_sizes
        total = sum(sum(sizes[1:m]) for m in range(2, self.max_ambient_dim + 1))
        return min(total, self.max_cases)

    @classmethod
    def from_dict(cls, data) -> "GridSpec":
        if not isinstance(data, dict):
            raise ValueError(f"grid spec must be an object, got {type(data).__name__}")
        known = set(cls._fields)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid spec keys: {sorted(unknown)}")
        return cls(**{k: data[k] for k in known if k in data})


# keys computed together: a chunk is keys of one block, CHUNK_ROWS rows'
# worth of them but never fewer than CHUNK_KEYS. Under all nine checks the
# floor holds from n = 6 on (104 rows a key), where smaller chunks ran slower
CHUNK_KEYS = 24
CHUNK_ROWS = 2048


def _chunk_keys(rows: int) -> int:
    """The most keys of ``rows`` rows each that a chunk holds; a rowless
    key counts as one row."""
    return max(CHUNK_KEYS, CHUNK_ROWS // max(rows, 1))


def _columns(batch) -> tuple:
    """The columns the writers read of a batch (n, ds, layout, exacts,
    bounds, notes) of keys of one layout, exacts and bounds one sequence per
    key and notes(j) the j-th key's notes: (n, ds, layout, exacts, bounds,
    satisfied, margins, degenerate, notes, clean), the new ones again one
    sequence per key. A row is satisfied when |exact| <= bound and exact is
    at least the row's lower limit, and its margin is bound - |exact|. Where
    the base (d+n-2) vanishes, the based rows are degenerate, and the notes
    function returned gives them DEGENERATE_NOTE; no note is built here. The
    batch is clean when every row is satisfied and none is degenerate. Each
    step is a C-level pass over the keys, or over a key's rows; where every
    row passes, the keys share one satisfied tuple. The batch's own
    sequences are read, never written."""
    n, ds, layout, exacts, bounds, notes = batch
    _, _, limits, based = layout
    margins = [*map(list, map(map, repeat(sub), bounds, map(map, repeat(abs), exacts)))]
    satisfied = [(True,) * len(based)] * len(margins)
    clean = not based or min(map(min, margins)) >= 0
    if not clean:
        satisfied = [[margin >= 0 for margin in row] for row in margins]
    # a lower limit fails only where a value of its run lies below it
    for start, stop, least in limits:
        run = itemgetter(slice(start, stop))
        if min(map(min, map(run, exacts))) < least:
            clean = False
            for j, values in enumerate(exacts):
                ok = satisfied[j] = [*satisfied[j]]
                ok[start:stop] = map(and_, run(ok), map(ge, run(values), repeat(least)))
    # only a key with d + n = 2 has degenerate rows
    plain = (False,) * len(based)
    degenerate = [based if d + n == 2 else plain for d in ds]
    clean = clean and (2 - n not in ds or not any(based))

    def noted(j) -> tuple:
        """The j-th key's notes, DEGENERATE_NOTE on its degenerate rows."""
        if degenerate[j] is plain:
            return notes(j)
        return tuple(DEGENERATE_NOTE if flag else text for flag, text in zip(based, notes(j)))

    return n, ds, layout, exacts, bounds, satisfied, margins, degenerate, noted, clean


def _joined_rows(rows, column: int, size: int) -> list:
    """Each of ``size`` keys' items of one column of the checks' ``rows``
    (values or bounds), joined over the checks into a new list: each
    check's sequences extend the lists in one C-level pass."""
    joined = [*map(list, repeat((), size))]
    for found in map(itemgetter(column), rows):
        deque(map(iconcat, joined, found), maxlen=0)
    return joined


def _rows(columns, j) -> zip:
    """The rows (subject, index, exact, bound, satisfied, margin,
    degenerate, note) of the j-th key of a batch's derived ``columns``
    (see _columns), each a report without n, d and multidegree."""
    _, _, (subjects, indices, *_), *values, notes, _ = columns
    return zip(subjects, indices, *map(itemgetter(j), values), notes(j))


class GridSweep:
    """The checks of a grid run one case at a time, in case order.

    Iterated once, it walks the grid a block at a time and gives its case
    stream (see charbound.report). A block is the cases of one ambient
    dimension m and codimension k, the k-multisets of degrees in
    lexicographic order, of one dimension n = m - k and one layout. For
    k > 1 its cases with a degree 1 come first, each a later case of a key
    of an earlier block; the rest, every k-multiset of degrees >= 2 (and
    P^(m-1) for k = 1), are the first cases of new keys. At the first of
    them the sweep takes the next cases of the block as a chunk (see
    chern._Chunk), CHUNK_ROWS rows' worth of keys but never fewer than
    CHUNK_KEYS, runs the checks over it and derives its columns once. The
    notes stay the checks' functions of a key's place in the chunk; only a
    JSON document and the exception rows call them. A key's next case lies at the same place of block (m + 1,
    k + 1), so a case is its key's last where m or k is at its top or the
    case cap falls before that place; and a block's cases with a degree 1
    take the key positions of block (m - 1, k - 1) in turn, those of the
    new keys each earlier block of n met. The sweep holds a range of them
    per block, and a key's unsatisfied or degenerate rows only while the
    key has cases left; it tallies ``report_count`` by the rows of each
    case's layout, and the ``violations`` and ``flagged`` reports in case
    order. ``truncated`` is set when the walk meets a case past the cap.

    A degree-1 factor is a linear re-embedding: X cut by a hyperplane of P^m
    is X in P^(m-1), with the same n and d, so the checks run once per key
    (n, degrees above 1); (n, ()) is P^n, first met as P^(n+1) cut by (1).
    At the first block of each dimension n the sweep plans it from the
    checks' index columns alone (see _RULES): the selected checks with rows
    at n, each one's row count, their layout, which every key of n shares,
    and the chunk size. Only those checks run, and where none has a row, no
    chunk is built.
    """

    def __init__(self, spec: GridSpec):
        self.spec, self.truncated, self.report_count = spec, False, 0
        self.violations, self.flagged = [], []

    @property
    def case_count(self) -> int:
        return self.spec.case_count

    def __iter__(self):
        spec, names = self.spec, self.spec.checks
        top, codim, cap = spec.max_ambient_dim, spec.max_codim, spec.max_cases
        # the cases of a block of codimension j, for each j a block reaches;
        # C(D, 1) = D, the degrees walked, which the cap keeps under
        # combinations_with_replacement's sys.maxsize limit
        sizes = spec._block_sizes
        degrees = range(1, sizes[1] + 1)
        # while a key has cases left, its (d, exception rows) by position if any;
        # by n, the range of new keys each block met and the plan (checks with
        # rows at n, each one's rows, the layout, their sum); the cases walked
        # and the keys met
        held, met, plans, done, known = {}, {}, {}, 0, 0

        def compute(n, multidegrees, start):
            """The columns of the chunk of new keys at positions from start."""
            checks, widths, layout, _ = plans[n]
            if checks:
                c = _Chunk(n, multidegrees)
                ds, rows = c.ds, [_CHECKS[name](c) for name in checks]
            else:  # no selected check gives the block a row
                ds, rows = [*map(prod, multidegrees)], []
            # each key's values and bounds over every check, in check order
            exacts, bounds = _joined_rows(rows, 0, len(ds)), _joined_rows(rows, 1, len(ds))
            # each check's row count and note function, and no other part of
            # its rows: a JSON run holds notes until its sweep ends
            makers = [*zip(widths, map(itemgetter(2), rows))]

            def notes(j) -> tuple:
                """The chunk's j-th key's notes."""
                found = (("",) * width if make is None else make(j) for width, make in makers)
                return tuple(chain.from_iterable(found))

            columns = _columns((n, ds, layout, exacts, bounds, notes))
            if not columns[9]:  # a batch with unsatisfied or degenerate rows
                for j, ok, flags in zip(range(len(ds)), columns[5], columns[7]):
                    if not all(ok) or any(flags):
                        found = [row for row in _rows(columns, j) if row[6] or not row[4]]
                        held[start + j] = ds[j], found
            return columns

        new = partial(tuple.__new__, BoundReport)
        for m in range(2, top + 1):
            deepest = min(m - 1, codim)
            for k in range(1, deepest + 1):
                # past the rest of m's blocks and the first k of m + 1: no case
                # from index stop on has its next case before the cap
                gap = sum(sizes[k : deepest + 1]) + sum(sizes[1 : k + 1])
                n, stop = m - k, 0 if m == top or k == codim else cap - gap
                if n not in plans:
                    t = _tables(n)
                    checks = [name for name in names if _RULES[name][3](t)]
                    widths = [len(_RULES[name][3](t)) for name in checks]
                    plans[n] = checks, widths, _layout(checks, n), sum(widths)
                rows = plans[n][3]
                # the cases with a degree 1 are block (m - 1, k - 1)'s, in order
                ranges, first = met.setdefault(n, []), known
                earlier = chain.from_iterable(ranges)
                cases = combinations_with_replacement(degrees, k)
                for degs in cases:
                    if done == cap:
                        self.truncated = True
                        return
                    if k > 1 and degs[0] == 1:  # a later case of an earlier block's key
                        i, chunk, batch = next(earlier), (degs,), None
                    else:  # a new key's first case: a chunk of it and the next new keys
                        chunk = [degs, *islice(cases, min(_chunk_keys(rows), cap - done) - 1)]
                        i, batch = known, compute(n, chunk, known)
                        known += len(chunk)
                    for degs in chunk:
                        last = done >= stop
                        done += 1
                        self.report_count += rows
                        d, exceptions = (held.pop if last else held.get)(i, (None, ()))
                        for row in exceptions:
                            report = new(row[:1] + (n, d, degs) + row[1:])
                            (self.flagged if row[6] else self.violations).append(report)
                        yield i, degs, batch, last
                        i, batch = i + 1, None
                ranges.append(range(first, known))


def verify_grid(spec: GridSpec, stream=None, fmt: str | None = None) -> GridSweep:
    """Run every selected check over every grid variety, one case at a time,
    and return the finished GridSweep with its tallies. With a ``stream``,
    the ``fmt`` document (json, csv or markdown) is written to it. CSV and
    markdown are written as the cases are reached, so a key's text is held
    only while cases of it remain. A JSON head counts the violations before
    the first report, so a JSON run holds its case stream, each chunk's
    columns and the checks' note functions, until the sweep ends, then
    writes the head and drains the stream into the document, which builds
    the notes."""
    sweep = GridSweep(spec)
    if stream is None:
        deque(sweep, maxlen=0)
    elif fmt == "json":
        cases = deque(sweep)
        head = _json_head(spec, sweep.case_count, sweep.truncated, len(sweep.violations))
        _write(stream, fmt, map(deque.popleft, repeat(cases, len(cases))), head)
    else:
        _write(stream, fmt, sweep)
    return sweep
