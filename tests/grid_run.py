"""A grid run as the tests read it: the finished sweep verify_grid returns,
and the reports of the document it writes, parsed back into BoundReports.
The library holds no report of a grid; every run streams its document.
``with_sequence`` is the seam the tests patch to make the degree-sequence
check fail."""

import io
import json
from decimal import Decimal
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


def grid_cases(sweep) -> tuple:
    """The grid's cases, from the sweep's labels (key position,
    multidegree) and keys (n, degrees above 1): a case of dimension n with
    k factors lies in P^(n+k)."""
    return tuple(
        CompleteIntersection(sweep.keys[i][0] + len(degs), degs) for i, degs in sweep.labels
    )


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
