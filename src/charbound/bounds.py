"""Explicit bound formulas and the verification pipeline that compares them
with exact values over grids of complete intersections.

Every reachable quantity is computed exactly; real-side data (signatures,
Euler characteristics of real loci) is never computed, only supplied, and
reports say which is which. Where a bound's base factor (d+n-2) vanishes,
the formula leaves its regime: those reports are flagged degenerate rather
than special-cased, and the flagged cases are settled by direct inspection.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property, lru_cache, partial
from io import StringIO
from itertools import chain, combinations_with_replacement, count, filterfalse, repeat
from json.encoder import encode_basestring_ascii
from math import comb, prod
from operator import itemgetter, mul, sub
from typing import NamedTuple

from .betti import betti_from_euler
from .chern import (
    DegreeError,
    degree_sequence,
    dual_sequence,
    giambelli,
    giambelli_plan,
    hook_classes,
    tangent_multiples,
)
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
# max_ambient_dim=24, max_degree_per_factor=1, max_codim=1 take about 0.4 s
# in a fresh process
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


CSV_COLUMNS = (
    "subject",
    "n",
    "d",
    "multidegree",
    "index",
    "exact",
    "bound",
    "satisfied",
    "margin",
)


# -- report writers ----------------------------------------------------------
# A report document is written from a case stream: one (key position,
# multidegree, columns, last) per case, in case order (see _cases). A key
# holds its rows as columns, (n, d, layout, exacts, bounds, satisfied,
# margins, degenerate, notes), over a layout that starts with the rows'
# subjects and indices; the stream gives them at the key's first case only,
# and last says that no case of the key follows. The rows of a key render
# through one %-template, built once per document for each layout object,
# so the keys of one grid dimension share it: the template holds every
# row's subject and index text, with each "%" doubled, a %s for each number
# and flag, and a mark where the multidegree goes. So a key is one
# ``template % values`` whose values are flattened in C from its columns,
# and each case writes that text with its own multidegree's text in place
# of each mark. The mark is the first control character, or else the first
# character from U+0080 on, that the template's own text does not hold. No
# value holds one: values are numbers, true and false, and ASCII-escaped
# JSON strings. So no subject or value is ever replaced, whatever it holds.
# A key holding None or an int past str()'s digit limit fills the same
# template with exact_decimal (from varieties, re-exported here) text and
# the format's blank for None; %s would print None as "None". A key's text
# is rendered at its first case and held only until its last, and its
# columns not at all; only JSON reads the notes. The templates live for one
# document and hold at most one entry per layout, and list fields are
# rendered once per document. The bytes are those the stdlib would give:
# json.dumps(payload, indent=2) + "\n" with its default ASCII escaping, and
# csv.writer with lineterminator "\n".

_TRUE_FALSE = ("false", "true").__getitem__


def _opt(value, none: str) -> str:
    return none if value is None else exact_decimal(value)


def _json_ints(values) -> str:
    """An int list or null, as the value of a report member."""
    if not values:
        return "null" if values is None else "[]"
    return "[\n        " + ",\n        ".join(map(exact_decimal, values)) + "\n      ]"


def _joined(values) -> str:
    return "" if values is None else ",".join(map(exact_decimal, values))


def _csv_cell(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _escaped(text: str) -> str:
    """``text`` as literal %-template text."""
    return text.replace("%", "%%")


def _template(row, sep: str, subjects, indices) -> tuple:
    """(template, mark) for one layout. ``row(subject, index)`` gives a
    row's template text before and after its multidegree; the rows are
    joined by ``sep``, with the mark between each row's two halves."""
    heads, tails = zip(*map(row, subjects, indices))
    text = "".join(heads + tails)
    mark = next(c for c in map(chr, chain(range(32), count(0x80))) if c not in text)
    return sep.join(map(mark.join, zip(heads, tails))), mark


def _json_values(n, d, exacts, bounds, oks, margins, flags, notes):
    """The values of a key's JSON rows, row by row."""
    return zip(
        repeat(n), repeat(d), exacts, bounds, map(_TRUE_FALSE, oks), margins,
        map(_TRUE_FALSE, flags), map(encode_basestring_ascii, notes),
    )


def _table_values(n, d, exacts, bounds, oks, margins, _, __):
    """The values of a key's CSV or markdown rows, row by row."""
    return zip(repeat(n), repeat(d), exacts, bounds, map(_TRUE_FALSE, oks), margins)


def _fill(template, values, none, n, d, columns) -> str:
    """``template`` filled with one key's n, d and row columns (exact
    values, bounds, satisfied, margins, degenerate, notes), every number in
    full.

    The ints go into the template as they are. A None number, or an int
    past str()'s digit limit (ValueError), fills it again with the numbers
    as ``exact_decimal`` text, and ``none`` for None.
    """
    exacts, bounds, oks, margins, flags, notes = columns
    if not (n is None or d is None or None in exacts or None in margins):
        try:
            return template % tuple(chain.from_iterable(values(n, d, *columns)))
        except ValueError:  # an int past str()'s digit limit
            pass
    text = partial(_opt, none=none)
    exacts, margins, bounds = map(text, exacts), map(text, margins), map(exact_decimal, bounds)
    columns = values(text(n), text(d), exacts, bounds, oks, margins, flags, notes)
    return template % tuple(chain.from_iterable(columns))


def _cases(labels, columns):
    """The case stream of labels (key position i, multidegree), in their
    order: (i, multidegree, columns(i) at the first case of key i and None
    at its others, whether no case of key i follows)."""
    left = Counter(map(itemgetter(0), labels))
    started = set()
    for i, multidegree in labels:
        left[i] -= 1
        if i in started:
            yield i, multidegree, None, not left[i]
        else:
            started.add(i)
            yield i, multidegree, columns(i), not left[i]


def _write(stream, fmt: str, cases, head: str = "") -> None:
    """Stream a case stream (see above) as a ``fmt`` document (json, csv or
    markdown); ``head`` holds the rendered JSON members before "reports"."""
    if fmt == "json":
        label = lru_cache(maxsize=None)(_json_ints)

        def row(subject, index):
            return (
                f'    {{\n      "subject": {_escaped(encode_basestring_ascii(subject))},\n'
                '      "n": %s,\n      "d": %s,\n      "multidegree": ',
                f',\n      "index": {label(index)},\n      "exact": %s,\n      "bound": %s,\n'
                '      "satisfied": %s,\n      "margin": %s,\n'
                '      "degenerate": %s,\n      "note": %s\n    }',
            )

        start, first, sep, none = "{\n" + head + '  "reports": [', "\n", ",\n", "null"
        values, ends = _json_values, ("]\n}\n", "\n  ]\n}\n")
    elif fmt == "csv":
        label = lru_cache(maxsize=None)(lambda t: _csv_cell(_joined(t)))

        def row(subject, index):
            return f"{_escaped(_csv_cell(subject))},%s,%s,", f",{label(index)},%s,%s,%s,%s\n"

        start, first, sep, none, ends = ",".join(CSV_COLUMNS) + "\n", "", "", "", ("", "")
        values = _table_values
    elif fmt == "markdown":
        label = lru_cache(maxsize=None)(_joined)

        def row(subject, index):
            tail = f" | {label(index)} | %s | %s | %s | %s |\n"
            return f"| {_escaped(subject)} | %s | %s | ", tail

        start = f"| {' | '.join(CSV_COLUMNS)} |\n|{'---|' * len(CSV_COLUMNS)}\n"
        values, first, sep, none, ends = _table_values, "", "", "", ("", "")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    # id(layout) -> (layout, template, mark); holding the layout keeps its id
    # from going to another object while the document is written
    templates = {}

    def text(n, d, layout, *columns) -> tuple:
        """(One key's rows as text, the mark where the multidegree goes)."""
        if not columns[0]:
            return "", ""
        found = templates.get(id(layout))
        if found is None:
            found = layout, *_template(row, sep, *layout[:2])
            templates[id(layout)] = found
        _, template, mark = found
        return _fill(template, values, none, n, d, columns), mark

    write = stream.write
    write(start)
    # the text of each key with cases still to write
    held, lead = {}, first
    for i, multidegree, columns, last in cases:
        if columns is not None:
            held[i] = text(*columns)
        rows, mark = held.pop(i) if last else held[i]
        if rows:
            write(lead)
            write(rows.replace(mark, label(multidegree)))
            lead = sep
    # lead is no longer first once a row is written
    write(ends[lead != first])


def write_json(stream, reports) -> None:
    """``{"reports": [...]}`` for a report list, each report a one-row key."""
    cases = (
        (i, r[3], (r[1], r[2], ((r[0],), (r[4],)), *zip(r[5:])), True)
        for i, r in enumerate(reports)
    )
    _write(stream, "json", cases)


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


def signature_check(ci: CompleteIntersection, sigma: int) -> BoundReport:
    """Report on |3*sigma| <= c2^2 for a 4-dimensional variety, with an
    externally supplied signature; c2^2 = d * a_2^2 from its tangent
    multiples."""
    n = ci.dimension
    if n != 4:
        raise ValueError(f"signature check needs a 4-dimensional variety, got dimension {n}")
    v = _Variety(n, ci.multidegree)
    c2_squared, exact = v.d * v.tangent[2] ** 2, 3 * sigma
    return BoundReport(
        subject="signature",
        n=n,
        d=v.d,
        multidegree=ci.multidegree,
        index=None,
        exact_value=exact,
        bound_value=c2_squared,
        satisfied=abs(exact) <= c2_squared,
        margin=c2_squared - abs(exact),
        note="sigma supplied externally; c2^2 computed",
    )


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
# Each check gives the columns (indices, values, bounds, notes) of its rows
# for one variety, all from plain ints: the variety's _Variety record and
# the _Tables of its dimension, from which its indices come. A row's value
# is its exact value, except that a Schur row holds its pairing (see
# _columns). The table below says which lower limit and which bound base
# apply to them, and which check's values are pairings.


class _Tables:
    """What every variety of dimension n shares; build it through _tables(n),
    which extends the tables one dimension down."""

    __slots__ = ("indices", "weights", "steps", "plans", "singles")

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
        # (position of I minus its last part, that part) for each I != ()
        self.steps = below.steps + tuple((where[parts[:-1]], parts[-1]) for parts in new)
        # chern.giambelli_plan of each shape, the indices after ()
        self.plans = below.plans + tuple(map(giambelli_plan, new))
        self.singles = below.singles + ((n,),)


# one entry per dimension, at most MAX_AMBIENT_DIM of them
_tables = lru_cache(maxsize=None)(_Tables)


class _Variety:
    """The Chern and Betti ints of the n-dimensional complete intersection
    of the given degrees in P^(n + len(degrees)): every value a grid check,
    `table` or the signature check reads. A grid key builds one for its
    degrees above 1, whichever checks are selected; the partitions of its
    dimension are in _tables(n), which no record builds."""

    __slots__ = ("n", "d", "tangent", "twisted", "sequence", "powers", "betti")

    def __init__(self, n: int, degrees: tuple):
        d = prod(degrees)
        self.n, self.d = n, d
        m = n + len(degrees)
        a = self.tangent = tangent_multiples(m, degrees, n)
        # the cotangent bundle twisted by 2h, which is nef, is (m+1)O(1) -
        # O(2) - sum_j O(2 - d_j): the tangent series over the roots 2, 2 - d_j
        self.twisted = tangent_multiples(m, (2, *(2 - e for e in degrees)), n)
        # the ample degree sequence, for A = K + (n+2)h with K = -c_1
        self.sequence = degree_sequence(n + 2 - a[1], d, n)
        # d * (d+n-2)^w for w = 0..n, the Chern number bounds by weight
        self.powers = [d * (d + n - 2) ** w for w in range(n + 1)]
        self.betti = betti_from_euler(n, d * a[n])


def _chern_numbers(t: _Tables, d: int, multiples) -> list:
    """d * prod(multiples[i] for i in I) for every index I of the tables t,
    each one the product of its parent's by its last part's multiple."""
    values = [d]
    append = values.append
    for parent, last in t.steps:
        append(values[parent] * multiples[last])
    return values


def _degree_sequence_rows(v, t):
    d = v.d
    bounds = [d ** (i + 1) for i in range(v.n + 1)]
    return t.singles, v.sequence, bounds, ("",) * len(bounds)


def _log_concavity_rows(v, t):
    seq = v.sequence
    products = list(map(mul, seq[2:], seq))
    return t.singles[2:], products, [x * x for x in seq[1:-1]], ("",) * len(products)


def _nef_chern_rows(v, t):
    bounds = list(map(v.powers.__getitem__, t.weights))
    return t.indices, _chern_numbers(t, v.d, v.twisted), bounds, ("",) * len(bounds)


def _cotangent_chern_rows(v, t):
    cotangent = [-a if i % 2 else a for i, a in enumerate(v.tangent)]
    scale = 2 ** (v.n * v.n)
    powers = [scale * power for power in v.powers]
    bounds = list(map(powers.__getitem__, t.weights))
    return t.indices, _chern_numbers(t, v.d, cotangent), bounds, ("",) * len(bounds)


def _total_betti_rows(bound, v, _):
    return (None,), (sum(v.betti),), (bound(v.n, v.d),), ("",)


def _euler_rows(v, _):
    chi = v.d * v.tangent[v.n]
    alternating = sum(v.betti[::2]) - sum(v.betti[1::2])
    return (None,), (chi - alternating,), (0,), (f"chi={chi} alternating_betti={alternating}",)


def _schur_positivity_rows(v, t):
    # s_lambda = D * h^|lambda|, paired with h^(n - |lambda|); the rows hold
    # the pairings, and their readers derive the one-sided check from them
    hooks, d = hook_classes(v.twisted, dual_sequence(v.twisted)), v.d
    pairings = [giambelli(plan, hooks) * d for plan in t.plans]
    return t.indices[1:], pairings, [0] * len(pairings), ("",) * len(pairings)


def _pontryagin_rows(v, _):
    n, d, twisted = v.n, v.d, v.twisted
    if n % 4 != 0:
        return (), (), (), ()
    indices = tuple(partitions_of(n // 4))
    values = [d * prod(twisted[2 * j] ** 2 for j in parts) for parts in indices]
    return indices, values, [pontryagin_bound(n, d)] * len(values), ("",) * len(values)


# name -> (rows, least legal exact value or None, bound has the base (d+n-2),
# values are Schur pairings)
_RULES = {
    "degree-sequence": (_degree_sequence_rows, 1, False, False),
    "log-concavity": (_log_concavity_rows, None, False, False),
    "nef-chern": (_nef_chern_rows, 0, True, False),
    "cotangent-chern": (_cotangent_chern_rows, None, True, False),
    "betti": (partial(_total_betti_rows, betti_bound), None, False, False),
    "betti-recursive": (partial(_total_betti_rows, betti_bound_recursive), None, False, False),
    "euler": (_euler_rows, None, False, False),
    "schur-positivity": (_schur_positivity_rows, None, False, True),
    "pontryagin": (_pontryagin_rows, None, True, False),
}

CHECK_NAMES = tuple(_RULES)

# name -> callable(variety, tables) -> its rows' columns; verify_grid dispatches here
_CHECKS = {name: rule[0] for name, rule in _RULES.items()}


def _layout(names, columns) -> tuple:
    """(subjects, indices, lower limits, based, paired): the rows that the
    checks ``names`` gave as ``columns`` for a variety, and so for every
    variety of its dimension. A row is based when its bound has the base
    (d+n-2) as a factor: the rows of a check with that base whose index is
    not empty. ``paired`` is the range of the rows whose values are Schur
    pairings, those of schur-positivity; a check's rows are contiguous."""
    subjects, indices, limits, based = [], [], [], []
    paired = range(0)
    for name, (index_column, values, _, _) in zip(names, columns):
        _, least, has_base, pairings = _RULES[name]
        if pairings:
            paired = range(len(subjects), len(subjects) + len(values))
        subjects += repeat(name, len(values))
        indices += index_column
        limits += repeat(least, len(values))
        based += [has_base and bool(index) for index in index_column]
    return tuple(subjects), tuple(indices), tuple(limits), tuple(based), paired


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
    def case_count(self) -> int:
        """len(verify_grid(self).cases) in closed form: k factors of degree
        at most D, in P^m, make C(D+k-1, k) cases, summed over m and k and
        capped by max_cases."""
        total = sum(
            comb(self.max_degree_per_factor + k - 1, k)
            for m in range(2, self.max_ambient_dim + 1)
            for k in range(1, min(m - 1, self.max_codim) + 1)
        )
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


def _grid(spec: GridSpec):
    """The grid's (ambient dimension, multidegree) pairs in canonical order,
    capped; returns (pairs, truncated)."""
    pairs = []
    # no degree above max_cases + 1 is reached before the cap, and the shorter
    # range keeps combinations_with_replacement under its sys.maxsize limit
    degrees = range(1, min(spec.max_degree_per_factor, spec.max_cases + 1) + 1)
    for m in range(2, spec.max_ambient_dim + 1):
        for k in range(1, min(m - 1, spec.max_codim) + 1):
            for degs in combinations_with_replacement(degrees, k):
                if len(pairs) >= spec.max_cases:
                    return pairs, True
                pairs.append((m, degs))
    return pairs, False


def _columns(key, noted: bool = True) -> tuple:
    """The columns the writers read of a grid key (n, d, layout, values,
    bounds, notes): (n, d, layout, exacts, bounds, satisfied, margins,
    degenerate, notes). A row is satisfied when |exact| <= bound and exact
    is at least the row's lower limit, and its margin is bound - |exact|.
    A Schur row holds its pairing; the check is one-sided with bound 0, so
    its exact value is the shortfall min(pairing, 0) and its note
    "pairing=<pairing>". Where the base (d+n-2) vanishes, the based rows are
    degenerate and their note is DEGENERATE_NOTE. The notes are built only
    if ``noted``; else the notes column is None."""
    n, d, layout, exacts, bounds, notes = key
    _, _, limits, degenerate, paired = layout
    if paired:
        cut = slice(paired.start, paired.stop)
        pairings = exacts[cut]
        exacts = list(exacts)
        exacts[cut] = [pairing if pairing < 0 else 0 for pairing in pairings]
    margins = list(map(sub, bounds, map(abs, exacts)))
    satisfied = [
        margin >= 0 and (least is None or exact >= least)
        for margin, exact, least in zip(margins, exacts, limits)
    ]
    if d + n != 2:
        degenerate = (False,) * len(exacts)
    if not noted:
        notes = None
    else:
        if paired:
            notes = list(notes)
            try:
                notes[cut] = map("pairing=%d".__mod__, pairings)
            except ValueError:  # an int past str()'s digit limit
                notes[cut] = ["pairing=" + exact_decimal(pairing) for pairing in pairings]
        if d + n == 2:
            notes = [DEGENERATE_NOTE if flag else note for flag, note in zip(degenerate, notes)]
    return n, d, layout, exacts, bounds, satisfied, margins, degenerate, notes


def _rows(key):
    """A grid key's rows (subject, index, exact, bound, satisfied, margin,
    degenerate, note): a report without n, d and multidegree."""
    _, _, (subjects, indices, *_), *columns = _columns(key)
    return zip(subjects, indices, *columns)


def _exception_rows(key, columns) -> list:
    """The rows (see _rows) of a key that are unsatisfied or degenerate,
    given the key's columns; only a key with some builds its notes."""
    if False not in columns[5] and True not in columns[7]:
        return []
    return [row for row in _rows(key) if row[6] or not row[4]]


# the degenerate field of a row
_DEGENERATE = itemgetter(6)


class GridSweep:
    """The checks of a grid run one case at a time, in case order.

    Iterated once, it gives the grid's case stream (see _cases): at the
    first case of each key it computes the key (n, d, layout, values,
    bounds, notes) and derives its columns, without notes. From that one
    derivation it tallies what a run prints: ``report_count`` and the
    ``violations`` and ``flagged`` reports, in case order. ``truncated``,
    ``labels`` (key position, multidegree) and ``case_count`` are known
    from the start. Between the first and last case of a key it holds only
    the key's row count and its unsatisfied or degenerate rows; ``keys``,
    if given, is a list that each key is appended to as it is computed.

    A degree-1 factor is a linear re-embedding: X cut by a hyperplane of P^m
    is the same variety in P^(m-1), with the same n and d. So the checks run
    once per key (dimension, degrees above 1), a plain tuple: (n, ()) is
    P^n, which CompleteIntersection cannot hold. The first key of each
    dimension gives the layout that every key of that dimension shares.
    """

    def __init__(self, spec: GridSpec, keys: list | None = None):
        self.spec, self._keys = spec, keys
        pairs, self.truncated = _grid(spec)
        where = {}  # (n, degrees above 1) -> key position
        self.labels = [
            (where.setdefault((m - len(degs), degs[degs.count(1) :]), len(where)), degs)
            for m, degs in pairs
        ]
        self._varieties = list(where)
        self.report_count = 0
        self.violations, self.flagged = [], []

    @property
    def case_count(self) -> int:
        return len(self.labels)

    def __iter__(self):
        names, keys, varieties = self.spec.checks, self._keys, self._varieties
        checks = [_CHECKS[name] for name in names]
        # key position -> (n, d, row count, exception rows), first case to last
        layouts, held = {}, {}

        def compute(i):
            n, degrees = varieties[i]
            v, t = _Variety(n, degrees), _tables(n)
            rows = [check(v, t) for check in checks]
            layout = layouts.get(n)
            if layout is None:
                layout = layouts[n] = _layout(names, rows)
            # the values, bounds and notes of every check, in check order
            _, *values = zip(*rows)
            key = (n, v.d, layout, *map(tuple, map(chain.from_iterable, values)))
            if keys is not None:
                keys.append(key)
            columns = _columns(key, noted=False)
            held[i] = n, v.d, len(key[3]), _exception_rows(key, columns)
            return columns

        new = partial(tuple.__new__, BoundReport)
        for case in _cases(self.labels, compute):
            i, multidegree, _, last = case
            n, d, count, rows = held.pop(i) if last else held[i]
            self.report_count += count
            for row in rows:
                report = new(row[:1] + (n, d, multidegree) + row[1:])
                (self.flagged if row[6] else self.violations).append(report)
            yield case


class GridResult(Record):
    """Outcome of one grid sweep, deterministically ordered.

    The sweep is held as keys x labels. A key is (n, d, layout, values,
    bounds, notes), what one variety's selected checks compute: its row
    values (exact values, and pairings for Schur rows), bounds and notes,
    one per row, over the layout that every key of dimension n shares (see
    _layout). A label is (key position, multidegree), one per case in case
    order. Each row's exact value, satisfied, margin and degenerate fields,
    and the notes of Schur and degenerate rows, are derived from these
    wherever rows are read (see _columns). A case's reports are its key's
    rows with n, d and its multidegree put in; ``cases``, ``reports``,
    ``violations`` and ``flagged`` are built on first use (verify_grid
    gives the last two from its sweep), while ``report_count`` and the
    writers read the keys and labels. Both are stored as tuples, whatever
    sequences they come in, so a result hashes and prints every int in
    full. The whole record is held; GridSweep reads a run case by case.
    """

    # no __slots__: the fields and the cached views live in __dict__
    _fields = ("spec", "truncated", "keys", "labels")

    def __init__(self, spec: GridSpec, truncated: bool, keys, labels):
        super().__init__(spec, truncated, tuple(keys), tuple(labels))

    @cached_property
    def cases(self) -> tuple:
        # a case of dimension n with k factors lies in P^(n+k)
        keys, labels = self.keys, self.labels
        return tuple(CompleteIntersection(keys[i][0] + len(degs), degs) for i, degs in labels)

    @property
    def case_count(self) -> int:
        return len(self.labels)

    @property
    def report_count(self) -> int:
        """len(reports), from each case's key, without building them."""
        return sum(len(self.keys[i][3]) for i, _ in self.labels)

    def _expand(self, rows) -> tuple:
        """The reports of ``rows[i]``, rows of key i (none where i is not in
        ``rows``), for every case of key i, in case order."""
        new, keys = partial(tuple.__new__, BoundReport), self.keys
        return tuple(
            new(row[:1] + (keys[i][0], keys[i][1], multidegree) + row[1:])
            for i, multidegree in self.labels
            for row in rows.get(i, ())
        )

    @cached_property
    def reports(self) -> tuple:
        return self._expand({i: [*_rows(key)] for i, key in enumerate(self.keys)})

    @cached_property
    def _exceptions(self) -> dict:
        """Key position -> the rows of that key that are unsatisfied or
        degenerate, for the few keys with any."""
        found = {}
        for i, key in enumerate(self.keys):
            rows = _exception_rows(key, _columns(key, noted=False))
            if rows:
                found[i] = rows
        return found

    @cached_property
    def violations(self) -> tuple:
        # the unsatisfied rows, less the few flagged degenerate
        rows = self._exceptions.items()
        return self._expand({i: [*filterfalse(_DEGENERATE, found)] for i, found in rows})

    @cached_property
    def flagged(self) -> tuple:
        rows = self._exceptions.items()
        return self._expand({i: [*filter(_DEGENERATE, found)] for i, found in rows})

    @property
    def all_satisfied(self) -> bool:
        return not self.violations

    def write(self, stream, fmt: str) -> None:
        """Stream the report document in ``fmt`` (json, csv or markdown)."""
        head = ""
        if fmt == "json":
            spec = self.spec
            checks = ",\n      ".join(map(encode_basestring_ascii, spec.checks))
            head = (
                '  "grid": {\n'
                f'    "max_ambient_dim": {exact_decimal(spec.max_ambient_dim)},\n'
                f'    "max_degree_per_factor": {exact_decimal(spec.max_degree_per_factor)},\n'
                f'    "max_codim": {exact_decimal(spec.max_codim)},\n'
                f'    "checks": [\n      {checks}\n    ],\n'
                f'    "max_cases": {exact_decimal(spec.max_cases)}\n'
                "  },\n"
                f'  "cases": {exact_decimal(self.case_count)},\n'
                f'  "truncated": {"true" if self.truncated else "false"},\n'
                f'  "violations": {exact_decimal(len(self.violations))},\n'
            )
        keys, noted = self.keys, fmt == "json"
        _write(stream, fmt, _cases(self.labels, lambda i: _columns(keys[i], noted)), head)

    def render(self, fmt: str) -> str:
        """The document ``write`` streams, as one string."""
        buffer = StringIO()
        self.write(buffer, fmt)
        return buffer.getvalue()


def verify_grid(spec: GridSpec) -> GridResult:
    """Run every selected check over every grid variety and hold the whole
    run as one GridResult: its sweep (see GridSweep) gives the keys, the
    labels, and the violations and flagged reports."""
    keys = []
    sweep = GridSweep(spec, keys)
    deque(sweep, maxlen=0)
    result = GridResult(spec, sweep.truncated, keys, sweep.labels)
    # the cached views, as GridResult would build them from the keys
    vars(result).update(violations=tuple(sweep.violations), flagged=tuple(sweep.flagged))
    return result


def sweep_grid(spec: GridSpec, stream=None, fmt: str = "csv") -> GridSweep:
    """Run every selected check over every grid variety, one case at a time,
    and return the finished GridSweep with its tallies. With a ``stream``,
    the ``fmt`` document (csv or markdown) is written to it as the cases are
    reached, so a key's text is held only while cases of it remain. JSON is
    refused: its head counts the violations before the first report, which
    takes the whole run (verify_grid)."""
    sweep = GridSweep(spec)
    if stream is None:
        deque(sweep, maxlen=0)
    elif fmt == "json":
        raise ValueError("a JSON document counts its violations first; use verify_grid")
    else:
        _write(stream, fmt, sweep)
    return sweep
