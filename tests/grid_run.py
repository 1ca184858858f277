"""A grid run as the tests read it: the finished sweep verify_grid returns,
the reports of the document it writes, parsed back into BoundReports, and
the case stream of a sweep. The library holds no report of a grid; every
run streams its document. ``with_sequence`` is the seam the tests patch to
make the degree-sequence check fail. ``label_cases`` and ``label_runs``
drive the writers with a case stream built from a list of labels, as the
writer-core tests lay a grid out by hand."""

import io
import json
from decimal import Decimal
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from charbound.bounds import BoundReport, GridSweep, _Chunk, verify_grid
from charbound.varieties import CompleteIntersection


def _entries(values):
    return None if values is None else tuple(values)


def json_reports(text: str) -> list:
    """The BoundReports of a JSON document, every int read in full: int()
    refuses a decimal past str()'s digit limit, Decimal does not."""
    payload = json.loads(text, parse_int=lambda digits: int(Decimal(digits)))
    return [
        BoundReport(
            r["subject"], r["n"], r["d"], _entries(r["multidegree"]), _entries(r["index"]),
            r["exact"], r["bound"], r["satisfied"], r["margin"], r["degenerate"], r["note"],
        )
        for r in payload["reports"]
    ]


def document(spec, fmt: str = "json") -> tuple:
    """(the finished sweep, its ``fmt`` document) of one verify_grid run."""
    stream = io.StringIO()
    sweep = verify_grid(spec, stream, fmt)
    return sweep, stream.getvalue()


class JsonRun(NamedTuple):
    sweep: GridSweep
    document: str
    reports: list


def json_run(spec) -> JsonRun:
    """A JSON run of the grid ``spec``, with the reports its document holds."""
    sweep, text = document(spec)
    return JsonRun(sweep, text, json_reports(text))


def case_stream(spec) -> list:
    """(key position, case, chunk, last) for each case a new sweep of
    ``spec`` gives, chunk (n, key count) where a batch comes and None
    elsewhere. A batch at key position i gives the dimension n of its keys,
    i onward, and a case of dimension n with k factors lies in P^(n+k)."""
    dimensions, out = {}, []
    for i, degs, batch, last in GridSweep(spec):
        chunk = None
        if batch is not None:
            chunk = batch[0], len(batch[1])
            dimensions.update(zip(range(i, i + chunk[1]), repeat(chunk[0])))
        out.append((i, CompleteIntersection(dimensions[i] + len(degs), degs), chunk, last))
    return out


def grid_cases(sweep) -> tuple:
    """The grid's cases, in case order, from the case stream of a new sweep
    of the finished ``sweep``'s spec."""
    return tuple(case for _, case, _, _ in case_stream(sweep.spec))


def label_cases(labels, columns):
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


def label_runs(labels, blocks, sizes) -> dict:
    """Key position -> the slice of keys computed with it: runs of keys of
    one block, ``blocks`` giving each key's, whose first cases come one
    after another in ``labels``, and at most ``sizes[block]`` of them."""
    runs, seen, start, stop, size = {}, bytearray(len(blocks)), 0, -1, 0
    for i, _ in labels:
        if seen[i]:
            stop = -1  # a later case of a key ends the run
        else:
            seen[i] = True
            if i == stop and blocks[i] == blocks[start] and stop - start < size:
                stop += 1
            else:
                start, stop, size = i, i + 1, sizes[blocks[i]]
            runs[start] = slice(start, stop)
    return runs


def with_sequence(rewrite):
    """bounds._Chunk, with each key's degree sequence replaced by
    rewrite(n, d, sequence); patched over charbound.bounds._Chunk, every
    chunk the sweep and the CLI build reads it."""

    class Chunk(_Chunk):
        def __init__(self, n, multidegrees):
            super().__init__(n, multidegrees)
            self.sequence = [rewrite(n, d, row) for d, row in zip(self.ds, self.sequence)]

    return Chunk


def one_past_the_quadric_surface(n, d, sequence):
    """The degree sequence, with the values of the quadric surface key (n,
    d) = (2, 2) one past their bounds d^(i+1)."""
    return tuple(d ** (i + 1) + 1 for i in range(n + 1)) if (n, d) == (2, 2) else sequence
