"""The report writers: JSON, CSV and markdown documents of verified bounds,
streamed from a case stream.

A case stream (bounds.GridSweep) gives one (key position, multidegree,
batch, last) per case, in case order. A batch is the columns of grid keys
of one layout at consecutive positions, (n, ds, layout, exacts, bounds,
satisfied, margins, degenerate, notes, clean): their one dimension, a
degree per key, and per key its rows' exact values, bounds and the rest
(see bounds._columns), over a layout that starts with the rows' subjects
and indices. notes is a function: notes(j) gives the notes of the j-th
key's rows, built only when called. clean says that every row of the batch
is satisfied and none is degenerate. Every batch is bounds._columns
output, the signature check's one-key batch among them. The stream gives a
batch at the first case of its first key only, and last says that no case
of the key follows.

The rows of a key render through one %-template, built once per document
for each layout object, n and cleanness, so the keys of one grid dimension
share it: the template holds every row's subject, n and index text, with
each "%" doubled, a %s for each value that varies by row, and a mark where
d and the multidegree go. A clean batch's template holds true and false for
the flags, so a clean row passes its exact value, bound and margin, and in
JSON its note; any other batch keeps a %s for each flag. So a key is one
``template % values``, its values one flat tuple, and a batch's value tuples
and d texts come from C-level map and zip passes over its keys. Each case
writes its key's text with its own multidegree's text in place of each mark:
one % of the case's own tuple, by a format built once per document for each
factor count, the label of that many %s (a CSV cell is quoted exactly when
there is more than one factor). The mark is the first control character,
or else the first character from U+0080 on, that the template's own text
does not hold. No value holds one: values are numbers, true and false, and
ASCII-escaped JSON strings. So no subject or value is ever replaced,
whatever it holds. n is exact_decimal text; d, a multidegree or a batch
holding an int past str()'s digit limit, which %s refuses, is rendered
again with exact_decimal text. A key's text is rendered with its batch and
held only until its last case, and its columns not at all; only JSON calls
notes(j). The templates live for one document and hold at most two entries
per layout and n. The bytes are those the stdlib would give:
json.dumps(payload, indent=2) + "\n" with its default ASCII escaping, and
csv.writer with lineterminator "\n". JSON strings are quoted by
_json.encode_basestring_ascii, the C function json.encoder wraps, so
writing JSON does not load the json package.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, count, repeat

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


def _decimals(values) -> list:
    """The text of each int of ``values`` in full."""
    try:
        return [*map(str, values)]
    except ValueError:  # an int past str()'s digit limit
        return [*map(exact_decimal, values)]


def _json_ints(values) -> str:
    """An int list or null, as the value of a report member."""
    if not values:
        return "null" if values is None else "[]"
    return "[\n        " + ",\n        ".join(_decimals(values)) + "\n      ]"


def _joined(values) -> str:
    return "" if values is None else ",".join(_decimals(values))


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


def _interleaved(columns, keys: int, rows: int) -> map:
    """One flat tuple for each of ``keys`` keys: row by row, its value in
    each of ``columns``, over the ``rows`` rows every key has. Each column
    fills its place in all of a key's rows by one strided slice
    assignment."""
    width = len(columns)
    flats = [*map(list, repeat((None,) * (width * rows), keys))]
    for j, column in enumerate(columns):
        place = slice(j, None, width)
        for flat, values in zip(flats, column):
            flat[place] = values
    return map(tuple, flats)


def _json_values(quoted, clean, exacts, bounds, oks, margins, flags, notes) -> map:
    """The values of each key's JSON rows, flattened row by row, each note a
    ``quoted`` JSON string; notes(j) gives the j-th key's notes. A clean
    batch's template holds its flags."""
    notes = map(map, repeat(quoted), map(notes, range(len(oks))))
    if clean:
        columns = exacts, bounds, margins, notes
    else:
        text = repeat(_TRUE_FALSE)
        columns = exacts, bounds, map(map, text, oks), margins, map(map, text, flags), notes
    return _interleaved(columns, len(oks), len(oks[0]))


def _table_values(clean, exacts, bounds, oks, margins, _, __) -> map:
    """The values of each key's CSV or markdown rows, flattened row by row.
    A clean batch's template holds its flags."""
    if clean:
        columns = exacts, bounds, margins
    else:
        columns = exacts, bounds, map(map, repeat(_TRUE_FALSE), oks), margins
    return _interleaved(columns, len(oks), len(oks[0]))


def _fill(template, values, columns) -> list:
    """``template`` filled with each key's row columns (exact values,
    bounds, satisfied, margins, degenerate, notes), every number in full.

    The ints go into the template as they are. An int past str()'s digit
    limit (ValueError) fills it again with the numbers as ``exact_decimal``
    text.
    """
    try:
        return [*map(template.__mod__, values(*columns))]
    except ValueError:  # an int past str()'s digit limit
        pass
    decimals = partial(map, partial(map, exact_decimal))
    exacts, bounds, oks, margins, flags, notes = columns
    texts = decimals(exacts), decimals(bounds), oks, decimals(margins), flags, notes
    return [*map(template.__mod__, values(*texts))]


def _write(stream, fmt: str, cases, head: str = "") -> None:
    """Stream a case stream (see above) as a ``fmt`` document (json, csv or
    markdown); ``head`` holds the rendered JSON members before "reports"."""
    if fmt == "json":
        from _json import encode_basestring_ascii as quoted

        label = _json_ints

        def row(n, satisfied, degenerate, subject, index):
            return (
                f'    {{\n      "subject": {_escaped(quoted(subject))},\n'
                f'      "n": {n},\n      "d": ',
                f',\n      "index": {index_label(index)},\n      "exact": %s,\n'
                f'      "bound": %s,\n      "satisfied": {satisfied},\n      "margin": %s,\n'
                f'      "degenerate": {degenerate},\n      "note": %s\n    }}',
            )

        start, first, sep = "{\n" + head + '  "reports": [', "\n", ",\n"
        values, ends = partial(_json_values, quoted), ("]\n}\n", "\n  ]\n}\n")
        before_label = ',\n      "multidegree": '
    elif fmt == "csv":
        def label(values):
            return _csv_cell(_joined(values))

        def row(n, satisfied, _, subject, index):
            head = f"{_escaped(_csv_cell(subject))},{n},"
            return head, f",{index_label(index)},%s,%s,{satisfied},%s\n"

        start, first, sep, ends = ",".join(CSV_COLUMNS) + "\n", "", "", ("", "")
        values, before_label = _table_values, ","
    elif fmt == "markdown":
        label = _joined

        def row(n, satisfied, _, subject, index):
            tail = f" | {index_label(index)} | %s | %s | {satisfied} | %s |\n"
            return f"| {_escaped(subject)} | {n} | ", tail

        start = f"| {' | '.join(CSV_COLUMNS)} |\n|{'---|' * len(CSV_COLUMNS)}\n"
        values, first, sep, ends = _table_values, "", "", ("", "")
        before_label = " | "
    else:
        raise ValueError(f"unknown format {fmt!r}")
    # an index's text is rendered once per document, a multidegree's format
    # once per factor count, with the text before the multidegree
    index_label = lru_cache(maxsize=None)(label)
    form = lru_cache(maxsize=None)(lambda k: before_label + label(("%s",) * k))
    # (id(layout), n, clean) -> (layout, template, mark); holding the layout
    # keeps its id from going to another object while the document is written
    templates = {}

    def texts(n, ds, layout, exacts, bounds, oks, margins, flags, notes, clean):
        """(Text of a key's rows, the mark where its d and multidegree go,
        its d text), for each key of a batch."""
        if not layout[0]:
            return repeat(("", "", ""), len(ds))
        key = id(layout), n, clean
        found = templates.get(key)
        if found is None:
            written = ("true", "false") if clean else ("%s", "%s")
            found = layout, *_template(partial(row, exact_decimal(n), *written), sep, *layout[:2])
            templates[key] = found
        _, template, mark = found
        columns = exacts, bounds, oks, margins, flags, notes
        rows = _fill(template, partial(values, clean), columns)
        return zip(rows, repeat(mark), _decimals(ds))

    write = stream.write
    write(start)
    # the text of each key with cases still to write
    held, lead = {}, first
    for i, multidegree, batch, last in cases:
        if batch is not None:
            held.update(zip(count(i), texts(*batch)))
        rows, mark, d = held.pop(i) if last else held[i]
        if rows:
            try:
                text = form(len(multidegree)) % multidegree
            except (TypeError, ValueError):  # None, or a degree past str()'s digit limit
                text = before_label + label(multidegree)
            write(lead + rows.replace(mark, d + text))
            lead = sep
    # lead is no longer first once a row is written
    write(ends[lead != first])


def _json_head(spec, cases: int, truncated: bool, violations: int) -> str:
    """The members of a grid's JSON document before "reports", for the grid
    ``spec`` (a bounds.GridSpec)."""
    from _json import encode_basestring_ascii

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
