"""The report writers: JSON, CSV and markdown documents of verified bounds,
streamed from a case stream.

A case stream gives one (key position, multidegree, batch, last) per case,
in case order (see _cases). A batch is the columns of consecutive grid keys
of one layout, (n, ds, layout, exacts, bounds, satisfied, margins,
degenerate, notes): their one dimension, a degree per key, and per key its
rows' exact values, bounds and the rest (see bounds._columns), over a layout
that starts with the rows' subjects and indices. The stream gives a batch at
the first case of its first key only, and last says that no case of the key
follows.

The rows of a key render through one %-template, built once per document
for each layout object, so the keys of one grid dimension share it: the
template holds every row's subject and index text, with each "%" doubled, a
%s for each value, and a mark where the multidegree goes. In CSV and
markdown a row's n and d are one %s, filled with the key's one pre-rendered
cell ("n,d" or "n | d"); JSON keeps a %s for each. So a key is one
``template % values``, its values one flat tuple, and a batch's value tuples
come from C-level map and zip passes over its keys; each case writes its
key's text with its own multidegree's text in place of each mark. The mark
is the first control character, or else the first character from U+0080 on,
that the template's own text does not hold. No value holds one: values are
numbers, true and false, and ASCII-escaped JSON strings. So no subject or
value is ever replaced, whatever it holds. A batch holding an int past
str()'s digit limit fills the same template with exact_decimal text; %s
would refuse it. A key's text is rendered with its batch and held only until
its last case, and its columns not at all; only JSON reads the notes. The
templates live for one document and hold at most one entry per layout; a
case's multidegree is rendered as it is written. The bytes are those the
stdlib would give: json.dumps(payload, indent=2) + "\n" with its default
ASCII escaping, and csv.writer with lineterminator "\n".
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, count, repeat
from operator import add, itemgetter, mul

from .varieties import exact_decimal

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

_TRUE_FALSE = ("false", "true").__getitem__


def _decimals(sep: str, values) -> str:
    """The ints ``values`` in full, joined by ``sep``."""
    try:
        return sep.join(map(str, values))
    except ValueError:  # an int past str()'s digit limit
        return sep.join(map(exact_decimal, values))


def _json_ints(values) -> str:
    """An int list or null, as the value of a report member."""
    if not values:
        return "null" if values is None else "[]"
    return "[\n        " + _decimals(",\n        ", values) + "\n      ]"


def _joined(values) -> str:
    return "" if values is None else _decimals(",", values)


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


def _interleaved(leads, columns, rows: int) -> map:
    """One flat tuple per key: row by row, the key's ``leads`` tuple and then
    its value in each of ``columns``, over the ``rows`` rows every key has.
    Each column fills its place in all of a key's rows by one strided slice
    assignment."""
    leads, width = [*leads], len(columns)
    step = len(leads[0]) + width
    flats = [*map(list, map(mul, map(add, leads, repeat((None,) * width)), repeat(rows)))]
    for j, column in enumerate(columns, step - width):
        place = slice(j, None, step)
        for flat, values in zip(flats, column):
            flat[place] = values
    return map(tuple, flats)


def _json_values(quoted, n, ds, exacts, bounds, oks, margins, flags, notes) -> map:
    """The values of each key's JSON rows, flattened row by row, each note a
    ``quoted`` JSON string."""
    text = repeat(_TRUE_FALSE)
    notes = map(map, repeat(quoted), notes)
    columns = exacts, bounds, map(map, text, oks), margins, map(map, text, flags), notes
    return _interleaved(zip(repeat(n), ds), columns, len(oks[0]))


def _table_values(pair, n, ds, exacts, bounds, oks, margins, _, __) -> map:
    """The values of each key's CSV or markdown rows, flattened row by row:
    n and d as one cell, ``pair % (n, d)``."""
    cells = zip(map(pair.__mod__, zip(repeat(n), ds)))
    columns = exacts, bounds, map(map, repeat(_TRUE_FALSE), oks), margins
    return _interleaved(cells, columns, len(oks[0]))


def _fill(template, values, n, ds, columns) -> list:
    """``template`` filled with each key's n, d and row columns (exact
    values, bounds, satisfied, margins, degenerate, notes), every number in
    full.

    The ints go into the template as they are. An int past str()'s digit
    limit (ValueError) fills it again with the numbers as ``exact_decimal``
    text.
    """
    try:
        return [*map(template.__mod__, values(n, ds, *columns))]
    except ValueError:  # an int past str()'s digit limit
        pass
    decimals = partial(map, partial(map, exact_decimal))
    exacts, bounds, oks, margins, flags, notes = columns
    texts = exact_decimal(n), [*map(exact_decimal, ds)], decimals(exacts), decimals(bounds)
    return [*map(template.__mod__, values(*texts, oks, decimals(margins), flags, notes))]


def _cases(labels, columns):
    """The case stream of labels (key position i, multidegree), in their
    order: (i, multidegree, columns(i) at the first case of key i and None
    at its others, whether no case of key i follows). columns(i) is the
    batch that starts at key i, or None where an earlier batch holds key i."""
    # per key: its case count until its first case, then minus the cases left
    left = [0] * (max(map(itemgetter(0), labels), default=-1) + 1)
    for i, _ in labels:
        left[i] += 1
    for i, multidegree in labels:
        cases = left[i]
        if cases > 0:
            left[i] = 1 - cases
            yield i, multidegree, columns(i), cases == 1
        else:
            left[i] = cases + 1
            yield i, multidegree, None, cases == -1


def _write(stream, fmt: str, cases, head: str = "") -> None:
    """Stream a case stream (see above) as a ``fmt`` document (json, csv or
    markdown); ``head`` holds the rendered JSON members before "reports"."""
    if fmt == "json":
        # json loads only where a JSON document is written
        from json.encoder import encode_basestring_ascii as quoted

        label = _json_ints

        def row(subject, index):
            return (
                f'    {{\n      "subject": {_escaped(quoted(subject))},\n'
                '      "n": %s,\n      "d": %s,\n      "multidegree": ',
                f',\n      "index": {index_label(index)},\n      "exact": %s,\n'
                '      "bound": %s,\n      "satisfied": %s,\n      "margin": %s,\n'
                '      "degenerate": %s,\n      "note": %s\n    }',
            )

        start, first, sep = "{\n" + head + '  "reports": [', "\n", ",\n"
        values, ends = partial(_json_values, quoted), ("]\n}\n", "\n  ]\n}\n")
    elif fmt == "csv":
        def label(values):
            return _csv_cell(_joined(values))

        def row(subject, index):
            return f"{_escaped(_csv_cell(subject))},%s,", f",{index_label(index)},%s,%s,%s,%s\n"

        start, first, sep, ends = ",".join(CSV_COLUMNS) + "\n", "", "", ("", "")
        values = partial(_table_values, "%s,%s")
    elif fmt == "markdown":
        label = _joined

        def row(subject, index):
            tail = f" | {index_label(index)} | %s | %s | %s | %s |\n"
            return f"| {_escaped(subject)} | %s | ", tail

        start = f"| {' | '.join(CSV_COLUMNS)} |\n|{'---|' * len(CSV_COLUMNS)}\n"
        values, first, sep, ends = partial(_table_values, "%s | %s"), "", "", ("", "")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    # an index's text is rendered once per document, a multidegree's at each
    # of its cases: most multidegrees of a grid have one or two cases
    index_label = lru_cache(maxsize=None)(label)
    # id(layout) -> (layout, template, mark); holding the layout keeps its id
    # from going to another object while the document is written
    templates = {}

    def texts(n, ds, layout, *columns):
        """(Text of a key's rows, the mark where the multidegree goes), for
        each key of a batch."""
        if not layout[0]:
            return repeat(("", ""), len(ds))
        found = templates.get(id(layout))
        if found is None:
            found = layout, *_template(row, sep, *layout[:2])
            templates[id(layout)] = found
        _, template, mark = found
        return zip(_fill(template, values, n, ds, columns), repeat(mark))

    write = stream.write
    write(start)
    # the text of each key with cases still to write
    held, lead = {}, first
    for i, multidegree, batch, last in cases:
        if batch is not None:
            held.update(zip(count(i), texts(*batch)))
        rows, mark = held.pop(i) if last else held[i]
        if rows:
            write(lead + rows.replace(mark, label(multidegree)))
            lead = sep
    # lead is no longer first once a row is written
    write(ends[lead != first])


def _json_head(spec, cases: int, truncated: bool, violations: int) -> str:
    """The members of a grid's JSON document before "reports", for the grid
    ``spec`` (a bounds.GridSpec)."""
    from json.encoder import encode_basestring_ascii

    checks = ",\n      ".join(map(encode_basestring_ascii, spec.checks))
    return (
        '  "grid": {\n'
        f'    "max_ambient_dim": {exact_decimal(spec.max_ambient_dim)},\n'
        f'    "max_degree_per_factor": {exact_decimal(spec.max_degree_per_factor)},\n'
        f'    "max_codim": {exact_decimal(spec.max_codim)},\n'
        f'    "checks": [\n      {checks}\n    ],\n'
        f'    "max_cases": {exact_decimal(spec.max_cases)}\n'
        "  },\n"
        f'  "cases": {exact_decimal(cases)},\n'
        f'  "truncated": {"true" if truncated else "false"},\n'
        f'  "violations": {exact_decimal(violations)},\n'
    )


def write_json(stream, reports) -> None:
    """``{"reports": [...]}`` for a report list, each report a batch of one
    one-row key."""

    def batch(subject, n, d, _, index, *row):
        return (n, (d,), ((subject,), (index,)), *zip(zip(row)))

    cases = ((i, r.multidegree, batch(*r), True) for i, r in enumerate(reports))
    _write(stream, "json", cases)


