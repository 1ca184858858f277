"""Command-line interface: bound evaluation, grid verification, variety
tables, and Schubert-calculus queries.

Exit codes: 0 all checks pass, 1 a mathematical violation was found,
2 usage or I/O error. All numeric output is exact decimal text.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import accumulate
from math import comb
from operator import mul

from .bounds import (
    CHECK_NAMES,
    GridSpec,
    _Variety,
    betti_bound,
    betti_bound_recursive,
    cotangent_chern_bound,
    exact_decimal,
    exact_repr,
    nef_chern_bound,
    pontryagin_bound,
    signature_check,
    sweep_grid,
    verify_grid,
    write_json,
)
from .schubert import (
    Grassmannian,
    GradingError,
    SchubertClass,
    giambelli_expand,
    grassmannian_degree,
    pieri,
)
from .varieties import CompleteIntersection, MultiIndex, Partition

# `bound` accepts 1 <= n <= MAX_BOUND_N and 1 <= d <= MAX_BOUND_D; the largest
# value, the Pontryagin cap at the corner, has about 21,000 decimal digits.
# `table` takes dimensions up to MAX_BOUND_N too
MAX_BOUND_N = 256
MAX_BOUND_D = 10**6
# `table` takes degrees d <= MAX_TABLE_D. Its values have about n * log10(d)
# digits, and a hypersurface is the costliest variety of its (n, d): every
# quantity of P^257 (10^30) takes about 0.6 s in a fresh process, 2 MB of text
MAX_TABLE_D = 10**30
# digits of a `schubert --power` index or exponent; longer ones are rejected
# before they are parsed
MAX_POWER_DIGITS = 18
# `schubert --power` and `--giambelli` work on the shapes of the q x (N-q)
# box, each a q-tuple, so both the shape count C(N, q) and the cell count
# q(N-q) are capped; the slowest accepted queries found take about 2 s
MAX_SCHUBERT_SHAPES = 150_000
MAX_SCHUBERT_CELLS = 200
# `schubert --degree` computes (q(N-q))!; at the cap it takes under a second
MAX_DEGREE_CELLS = 50_000


class UsageError(ValueError):
    """Bad flag combination or unreadable input."""


def _parse_int_list(text: str) -> tuple:
    """Comma-separated integers; the empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} spec: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise UsageError(f"malformed {what} JSON: {exc}") from exc


def _variety_from_args(args) -> CompleteIntersection:
    if args.variety is not None:
        if args.ambient_dim is not None or args.multidegree is not None:
            raise UsageError("--variety FILE excludes -m and -D")
        return CompleteIntersection.from_dict(_read_json(args.variety, "variety"))
    if args.ambient_dim is None or not args.multidegree:
        raise UsageError("need --variety FILE or both -m and -D")
    return CompleteIntersection(args.ambient_dim, args.multidegree)


# -- bound -----------------------------------------------------------------


# flag -> (formula, whether it takes a multi-index)
BOUNDS = {
    "pontryagin": (pontryagin_bound, False),
    "betti": (betti_bound, False),
    "ci": (nef_chern_bound, True),
    "cin": (cotangent_chern_bound, True),
}


def _cmd_bound(args) -> int:
    n, d = args.n, args.d
    if not (1 <= n <= MAX_BOUND_N and 1 <= d <= MAX_BOUND_D):
        raise UsageError(
            f"need 1 <= n <= {MAX_BOUND_N} and 1 <= d <= {MAX_BOUND_D}, got n={n}, d={d}"
        )
    formula, takes_index = BOUNDS[args.formula]
    if takes_index != (args.index is not None):
        need = "needs a multi-index via -I" if takes_index else "takes no multi-index"
        raise UsageError(f"--{args.formula} {need}")
    index = (MultiIndex(args.index),) if takes_index else ()
    print(exact_decimal(formula(n, d, *index)))
    return 0


# -- verify ----------------------------------------------------------------


def _parse_names(text: str) -> tuple:
    names = tuple(name.strip() for name in text.split(","))
    if not all(names):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated check names, got {text!r}"
        )
    return names


def _refuse(args, actions, when: str) -> None:
    """Raise UsageError naming each of these flags that was given."""
    given = [a.option_strings[0] for a in actions if getattr(args, a.dest) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} cannot be used {when}")


def _grid_spec_from_args(args) -> GridSpec:
    if args.grid is None:
        given = vars(args)
        return GridSpec(**{f: given[f] for f in GridSpec._fields if given[f] is not None})
    _refuse(args, args.spec_flags, "with --grid")
    data = _read_json(args.grid, "grid")
    try:
        return GridSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad grid spec: {exc}") from exc


def _write_out(write, out_path):
    """Call ``write(stream)`` on the --out file, or on stdout without one,
    and return what it returns."""
    if out_path is None:
        return write(sys.stdout)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            return write(handle)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _cmd_verify(args) -> int:
    if args.sigma is not None:
        _refuse(args, args.grid_flags, "with --sigma")
        return _cmd_verify_signature(args)
    _refuse(args, args.signature_flags, "without --sigma")
    spec = _grid_spec_from_args(args)
    fmt = args.format or ("json" if args.out is not None else None)
    if fmt == "json":
        # the head counts the violations before the first report, so the
        # whole run is held; the other runs read the grid case by case
        result = verify_grid(spec)
        _write_out(lambda out: result.write(out, fmt), args.out)
    elif fmt is None:
        result = sweep_grid(spec)
    else:
        result = _write_out(lambda out: sweep_grid(spec, out, fmt), args.out)
    document_on_stdout = fmt is not None and args.out is None
    if not document_on_stdout:
        counts = (result.case_count, result.report_count, len(result.flagged))
        cases, reports, flagged = map(exact_decimal, counts)
        violations = exact_decimal(len(result.violations))
        print(
            f"cases={cases} truncated={str(result.truncated).lower()} "
            f"reports={reports} flagged={flagged} violations={violations}"
        )
    # keep stdout a pure data document when one was rendered there
    witness_stream = sys.stderr if document_on_stdout else sys.stdout
    for report in result.violations:
        print(f"VIOLATION {report.witness()}", file=witness_stream)
    return 1 if result.violations else 0


def _cmd_verify_signature(args) -> int:
    ci = _variety_from_args(args)
    report = signature_check(ci, args.sigma)
    status = "satisfied" if report.satisfied else "violated"
    print(
        f"signature check on {ci}: |3*sigma|={exact_decimal(abs(report.exact_value))} "
        f"c2^2={exact_decimal(report.bound_value)} "
        f"margin={exact_decimal(report.margin)} {status}"
    )
    if args.out is not None:
        _write_out(lambda out: write_json(out, (report,)), args.out)
    if not report.satisfied:
        print(f"VIOLATION {report.witness()}")
        return 1
    return 0


# -- table -----------------------------------------------------------------

# quantity -> its value, read from the variety's bounds._Variety record: the
# tangent multiples a_0..a_n give K = -a_1, the ample class A = K + (n+2)h
# and chi = d * a_n
TABLE = {
    "dimension": lambda v: v.n,
    "degree": lambda v: v.d,
    "canonical": lambda v: -v.tangent[1],
    "ample": lambda v: v.n + 2 - v.tangent[1],
    "chi": lambda v: v.d * v.tangent[v.n],
    "betti": lambda v: v.betti,
    "total_betti": lambda v: sum(v.betti),
    "degree_sequence": lambda v: v.sequence,
    "tangent_chern": lambda v: tuple(v.tangent),
    "betti_bound": lambda v: betti_bound(v.n, v.d),
    "betti_bound_recursive": lambda v: betti_bound_recursive(v.n, v.d),
    "pontryagin_bound": lambda v: pontryagin_bound(v.n, v.d),
}
TABLE_QUANTITIES = tuple(TABLE)


def _cmd_table(args) -> int:
    ci = _variety_from_args(args)
    if ci.dimension > MAX_BOUND_N:
        raise UsageError(f"table needs dimension <= {MAX_BOUND_N}, got {ci.dimension}")
    # stops at the first factor past the cap, never multiplying out the rest
    if any(d > MAX_TABLE_D for d in accumulate(ci.multidegree, mul)):
        raise UsageError(f"table needs degree <= {MAX_TABLE_D}")
    wanted = TABLE_QUANTITIES
    if args.quantities is not None:
        wanted = tuple(name.strip() for name in args.quantities.split(","))
        unknown = [q for q in wanted if q not in TABLE]
        if unknown:
            raise UsageError(
                f"unknown quantities {unknown}; available: {', '.join(TABLE_QUANTITIES)}"
            )
        repeated = sorted({q for q in wanted if wanted.count(q) > 1})
        if repeated:
            raise UsageError(f"quantities named more than once: {repeated}")
    v = _Variety(ci.dimension, ci.multidegree)
    print(f"variety: {ci}")
    for name in wanted:
        print(f"{name}: {exact_repr(TABLE[name](v))}")
    return 0


# -- schubert --------------------------------------------------------------

_POWER_TOKEN = re.compile(r"^sigma(\d+)(?:\^(\d+))?$")


def _parse_power_spec(text: str) -> tuple:
    """(k, exponent) pairs of a product of special classes, unexpanded."""
    factors = []
    for token in text.split("*"):
        token = token.strip()
        match = _POWER_TOKEN.match(token)
        if not match:
            raise argparse.ArgumentTypeError(
                f"cannot parse {token!r}; expected sigmaK or sigmaK^E terms joined by *"
            )
        if any(len(g) > MAX_POWER_DIGITS for g in match.groups() if g):
            raise argparse.ArgumentTypeError(
                f"{token!r}: index and exponent take at most {MAX_POWER_DIGITS} digits"
            )
        k = int(match.group(1))
        exponent = int(match.group(2)) if match.group(2) else 1
        factors.append((k, exponent))
    return tuple(factors)


def _cmd_schubert(args) -> int:
    gr = Grassmannian(args.q, args.N)
    cells = gr.total_codim
    if args.degree:
        if cells > MAX_DEGREE_CELLS:
            raise UsageError(
                f"--degree needs q(N-q) <= {MAX_DEGREE_CELLS}, got {cells} on {gr}"
            )
        print(exact_decimal(grassmannian_degree(args.q, args.N)))
        return 0
    if cells > MAX_SCHUBERT_CELLS or comb(gr.N, gr.q) > MAX_SCHUBERT_SHAPES:
        raise UsageError(
            f"{gr} is too large: --power and --giambelli need q(N-q) <= "
            f"{MAX_SCHUBERT_CELLS} and at most {MAX_SCHUBERT_SHAPES} box shapes C(N,q)"
        )
    if args.giambelli is not None:
        print(giambelli_expand(Partition(args.giambelli), gr))
        return 0
    for k, _ in args.power:
        if k > gr.cols:
            raise GradingError(
                f"sigma{k} vanishes on {gr}: special index must be <= {gr.cols}"
            )
    # sigma0 is the identity; past the top codimension every product is 0
    factors = [(k, e) for k, e in args.power if k and e]
    total = sum(k * e for k, e in factors)
    if total > cells:
        print(0)
        return 0
    cls = SchubertClass.one(gr)
    for k, exponent in factors:
        for _ in range(exponent):
            cls = pieri(cls, k)
    # in the top codimension the product is a multiple of the point class
    print(exact_decimal(cls.coefficient(gr.point_partition)) if total == cells else cls)
    return 0


# -- entry point -------------------------------------------------------------


def _add_variety_flags(parser) -> list:
    """--variety FILE, or -m and -D inline; returns their actions."""
    degrees = "comma-separated degrees, e.g. 2,2"
    return [
        parser.add_argument("--variety", help="variety spec JSON file"),
        parser.add_argument("-m", "--ambient-dim", type=int, help="ambient dimension"),
        parser.add_argument("-D", "--multidegree", type=_parse_int_list, help=degrees),
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charbound",
        description=(
            "Exact characteristic-class bounds for complete intersections: "
            "evaluate bound formulas, verify them against exact values on "
            "variety grids, print invariant tables, and query Schubert calculus."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate one bound formula exactly")
    formulas = bound.add_mutually_exclusive_group(required=True)
    for flag, (formula, _) in BOUNDS.items():
        formulas.add_argument(
            f"--{flag}", dest="formula", action="store_const", const=flag, help=formula.__doc__
        )
    bound.add_argument("-n", type=int, required=True, help=f"dimension, 1..{MAX_BOUND_N}")
    bound.add_argument("-d", type=int, required=True, help=f"degree, 1..{MAX_BOUND_D}")
    bound.add_argument(
        "-I", "--index", type=_parse_int_list, help="comma-separated multi-index, e.g. 1,2"
    )
    bound.set_defaults(func=_cmd_bound)

    verify = sub.add_parser(
        "verify", help="run bound checks over a variety grid, or a signature check"
    )
    grid = verify.add_argument_group("grid run")
    grid_file = grid.add_argument("--grid", help="path to a grid-spec JSON file")
    spec_flags = [  # each dest is a GridSpec field
        grid.add_argument("--max-ambient-dim", type=int),
        grid.add_argument(
            "--max-degree", type=int, dest="max_degree_per_factor", metavar="MAX_DEGREE"
        ),
        grid.add_argument("--max-codim", type=int),
        grid.add_argument("--max-cases", type=int),
        grid.add_argument(
            "--checks",
            type=_parse_names,
            help=f"comma-separated subset of: {','.join(CHECK_NAMES)}",
        ),
    ]
    report_format = grid.add_argument(
        "--format", choices=("json", "csv", "markdown"), help="report format"
    )
    verify.add_argument("--out", help="write the report file here")
    signature = verify.add_argument_group("signature check")
    signature.add_argument(
        "--sigma", type=int, help="supplied real-side signature; runs the signature check"
    )
    verify.set_defaults(
        func=_cmd_verify,
        spec_flags=spec_flags,
        grid_flags=[grid_file, *spec_flags, report_format],
        signature_flags=_add_variety_flags(signature),
    )

    table = sub.add_parser("table", help="print exact invariants of one variety")
    _add_variety_flags(table)
    table.add_argument(
        "--quantities", help=f"comma-separated subset of: {','.join(TABLE_QUANTITIES)}"
    )
    table.set_defaults(func=_cmd_table)

    schubert = sub.add_parser("schubert", help="Schubert calculus on G_q(C^N)")
    schubert.add_argument("-q", type=int, required=True, help="subspace dimension")
    schubert.add_argument("-N", type=int, required=True, help="ambient dimension")
    modes = schubert.add_mutually_exclusive_group(required=True)
    modes.add_argument(
        "--power", type=_parse_power_spec, help="product, e.g. sigma1^4 or sigma1^2*sigma2"
    )
    modes.add_argument("--giambelli", type=_parse_int_list, help="shape to expand, e.g. 1,1")
    modes.add_argument("--degree", action="store_true", help="degree of the Grassmannian")
    schubert.set_defaults(func=_cmd_schubert)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a legal grid can hold more rows than memory; exit 1 means a violation
        print(
            "error: out of memory; lower --max-ambient-dim, --max-degree, "
            "--max-codim or --max-cases",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
