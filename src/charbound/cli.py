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
from math import comb

from .betti import betti_numbers, total_betti
from .bounds import (
    CHECK_NAMES,
    GridSpec,
    betti_bound,
    betti_bound_recursive,
    cotangent_chern_bound,
    exact_decimal,
    exact_repr,
    nef_chern_bound,
    pontryagin_bound,
    signature_check,
    verify_grid,
    write_json,
)
from .chern import (
    ample_class,
    ample_degree_sequence,
    canonical_class,
    euler_characteristic,
    squared_chern_pairing,
    tangent_chern,
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
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _variety_from_args(args) -> CompleteIntersection:
    if getattr(args, "variety", None):
        try:
            with open(args.variety, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read variety spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed variety JSON: {exc}") from exc
        return CompleteIntersection.from_dict(data)
    if args.ambient_dim is None or not args.multidegree:
        raise UsageError("need --variety FILE or both -m and -D")
    return CompleteIntersection(args.ambient_dim, _parse_int_list(args.multidegree))


# -- bound -----------------------------------------------------------------


def _cmd_bound(args) -> int:
    picked = [name for name in ("pontryagin", "betti", "ci", "cin") if getattr(args, name)]
    if len(picked) != 1:
        raise UsageError("pick exactly one of --pontryagin, --betti, --ci, --cin")
    which = picked[0]
    n, d = args.n, args.d
    if not (1 <= n <= MAX_BOUND_N and 1 <= d <= MAX_BOUND_D):
        raise UsageError(
            f"need 1 <= n <= {MAX_BOUND_N} and 1 <= d <= {MAX_BOUND_D}, got n={n}, d={d}"
        )
    if which in ("ci", "cin"):
        if args.index is None:
            raise UsageError(f"--{which} needs a multi-index via -I")
        index = MultiIndex(_parse_int_list(args.index))
        value = (
            nef_chern_bound(n, d, index)
            if which == "ci"
            else cotangent_chern_bound(n, d, index)
        )
    else:
        if args.index is not None:
            raise UsageError(f"--{which} takes no multi-index")
        value = pontryagin_bound(n, d) if which == "pontryagin" else betti_bound(n, d)
    print(exact_decimal(value))
    return 0


# -- verify ----------------------------------------------------------------


def _grid_spec_from_args(args) -> GridSpec:
    if args.grid:
        try:
            with open(args.grid, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read grid spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed grid JSON: {exc}") from exc
        try:
            spec = GridSpec.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad grid spec: {exc}") from exc
    else:
        kwargs = {}
        if args.max_ambient_dim is not None:
            kwargs["max_ambient_dim"] = args.max_ambient_dim
        if args.max_degree is not None:
            kwargs["max_degree_per_factor"] = args.max_degree
        if args.max_codim is not None:
            kwargs["max_codim"] = args.max_codim
        if args.max_cases is not None:
            kwargs["max_cases"] = args.max_cases
        if args.checks is not None:
            names = tuple(name.strip() for name in args.checks.split(","))
            if not all(names):
                raise UsageError(
                    f"--checks needs comma-separated check names, got {args.checks!r}"
                )
            kwargs["checks"] = names
        try:
            spec = GridSpec(**kwargs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return spec


def _write_out(write, out_path) -> None:
    """Call ``write(stream)`` on the --out file, or on stdout without one."""
    if not out_path:
        write(sys.stdout)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            write(handle)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _cmd_verify(args) -> int:
    if args.sigma is not None:
        return _cmd_verify_signature(args)
    spec = _grid_spec_from_args(args)
    result = verify_grid(spec)
    document_on_stdout = bool(args.format) and not args.out
    if args.format or args.out:
        _write_out(lambda out: result.write(out, args.format or "json"), args.out)
    if not document_on_stdout:
        counts = (result.cases, result.reports, result.flagged, result.violations)
        cases, reports, flagged, violations = (exact_decimal(len(c)) for c in counts)
        print(
            f"cases={cases} truncated={str(result.truncated).lower()} "
            f"reports={reports} flagged={flagged} violations={violations}"
        )
    # keep stdout a pure data document when one was rendered there
    witness_stream = sys.stderr if document_on_stdout else sys.stdout
    for report in result.violations:
        print(f"VIOLATION {report.witness()}", file=witness_stream)
    return 0 if result.all_satisfied else 1


def _cmd_verify_signature(args) -> int:
    ci = _variety_from_args(args)
    if ci.dimension != 4:
        raise UsageError(
            f"signature check needs a 4-dimensional variety, got dimension {ci.dimension}"
        )
    c2_squared = squared_chern_pairing(ci, tangent_chern(ci), MultiIndex((1,)))
    report = signature_check(c2_squared, args.sigma)
    report = report._replace(n=ci.dimension, d=ci.degree, multidegree=ci.multidegree)
    status = "satisfied" if report.satisfied else "violated"
    print(
        f"signature check on {ci}: |3*sigma|={exact_decimal(abs(report.exact_value))} "
        f"c2^2={exact_decimal(report.bound_value)} "
        f"margin={exact_decimal(report.margin)} {status}"
    )
    if args.out:
        _write_out(lambda out: write_json(out, (report,)), args.out)
    if not report.satisfied:
        print(f"VIOLATION {report.witness()}")
        return 1
    return 0


# -- table -----------------------------------------------------------------

TABLE_QUANTITIES = (
    "dimension",
    "degree",
    "canonical",
    "ample",
    "chi",
    "betti",
    "total_betti",
    "degree_sequence",
    "tangent_chern",
    "betti_bound",
    "betti_bound_recursive",
    "pontryagin_bound",
)


def _cmd_table(args) -> int:
    ci = _variety_from_args(args)
    if ci.dimension > MAX_BOUND_N:
        raise UsageError(f"table needs dimension <= {MAX_BOUND_N}, got {ci.dimension}")
    wanted = TABLE_QUANTITIES
    if args.quantities:
        wanted = tuple(args.quantities.split(","))
        unknown = [q for q in wanted if q not in TABLE_QUANTITIES]
        if unknown:
            raise UsageError(
                f"unknown quantities {unknown}; available: {', '.join(TABLE_QUANTITIES)}"
            )
    n, d = ci.dimension, ci.degree
    values = {
        "dimension": lambda: n,
        "degree": lambda: d,
        "canonical": lambda: canonical_class(ci),
        "ample": lambda: ample_class(ci),
        "chi": lambda: euler_characteristic(ci),
        "betti": lambda: betti_numbers(ci),
        "total_betti": lambda: total_betti(ci),
        "degree_sequence": lambda: ample_degree_sequence(ci),
        "tangent_chern": lambda: tangent_chern(ci).h_multiples(),
        "betti_bound": lambda: betti_bound(n, d),
        "betti_bound_recursive": lambda: betti_bound_recursive(ci),
        "pontryagin_bound": lambda: pontryagin_bound(n, d),
    }
    print(f"variety: {ci}")
    for name in wanted:
        print(f"{name}: {exact_repr(values[name]())}")
    return 0


# -- schubert --------------------------------------------------------------

_POWER_TOKEN = re.compile(r"^sigma(\d+)(?:\^(\d+))?$")


def _parse_power_spec(text: str):
    """(k, exponent) pairs of a product of special classes, unexpanded."""
    factors = []
    for token in text.split("*"):
        token = token.strip()
        match = _POWER_TOKEN.match(token)
        if not match:
            raise UsageError(
                f"cannot parse {token!r}; expected sigmaK or sigmaK^E terms joined by *"
            )
        if any(len(g) > MAX_POWER_DIGITS for g in match.groups() if g):
            raise UsageError(
                f"{token!r}: index and exponent take at most {MAX_POWER_DIGITS} digits"
            )
        k = int(match.group(1))
        exponent = int(match.group(2)) if match.group(2) else 1
        factors.append((k, exponent))
    return factors


def _cmd_schubert(args) -> int:
    modes = [m for m in ("power", "giambelli", "degree") if getattr(args, m)]
    if len(modes) != 1:
        raise UsageError("pick exactly one of --power, --giambelli, --degree")
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
    if args.giambelli:
        shape = Partition(_parse_int_list(args.giambelli))
        expansion = giambelli_expand(shape, gr)
        print(expansion)
        return 0
    factors = _parse_power_spec(args.power)
    for k, _ in factors:
        if not 0 <= k <= gr.cols:
            raise GradingError(
                f"sigma{k} vanishes on {gr}: special index must be <= {gr.cols}"
            )
    # sigma0 is the identity; past the top codimension every product is 0
    factors = [(k, e) for k, e in factors if k and e]
    if sum(k * e for k, e in factors) > gr.total_codim:
        print(0)
        return 0
    cls = SchubertClass.one(gr)
    for k, exponent in factors:
        for _ in range(exponent):
            cls = pieri(cls, k)
    if cls.is_zero():
        print(0)
        return 0
    if cls.codimensions() == {gr.total_codim}:
        print(exact_decimal(cls.coefficient(gr.point_partition)))
    else:
        print(cls)
    return 0


# -- entry point -------------------------------------------------------------


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
    bound.add_argument("--pontryagin", action="store_true", help="Pontryagin-number bound")
    bound.add_argument("--betti", action="store_true", help="total-Betti-number bound")
    bound.add_argument(
        "--ci", action="store_true", help="bound for twisted-cotangent Chern numbers"
    )
    bound.add_argument(
        "--cin", action="store_true", help="bound for cotangent Chern numbers"
    )
    bound.add_argument(
        "-n", type=int, required=True, help=f"variety dimension, 1..{MAX_BOUND_N}"
    )
    bound.add_argument(
        "-d", type=int, required=True, help=f"variety degree, 1..{MAX_BOUND_D}"
    )
    bound.add_argument("-I", "--index", help="comma-separated multi-index, e.g. 1,2")
    bound.set_defaults(func=_cmd_bound)

    verify = sub.add_parser(
        "verify", help="run bound checks over a variety grid, or a signature check"
    )
    verify.add_argument("--grid", help="path to a grid-spec JSON file")
    verify.add_argument("--max-ambient-dim", type=int)
    verify.add_argument("--max-degree", type=int, help="max degree per factor")
    verify.add_argument("--max-codim", type=int)
    verify.add_argument("--max-cases", type=int)
    verify.add_argument(
        "--checks", help=f"comma-separated subset of: {','.join(CHECK_NAMES)}"
    )
    verify.add_argument("--out", help="write the report file here")
    verify.add_argument(
        "--format", choices=("json", "csv", "markdown"), help="report format"
    )
    verify.add_argument(
        "--sigma",
        type=int,
        help="supplied real-side signature; runs the signature check on one variety",
    )
    verify.add_argument("--variety", help="variety spec JSON file (signature mode)")
    verify.add_argument("-m", "--ambient-dim", type=int, help="ambient dimension")
    verify.add_argument("-D", "--multidegree", help="comma-separated degrees, e.g. 2,2")
    verify.set_defaults(func=_cmd_verify)

    table = sub.add_parser("table", help="print exact invariants of one variety")
    table.add_argument("--variety", help="variety spec JSON file")
    table.add_argument("-m", "--ambient-dim", type=int, help="ambient dimension")
    table.add_argument("-D", "--multidegree", help="comma-separated degrees, e.g. 2,2")
    table.add_argument(
        "--quantities", help=f"comma-separated subset of: {','.join(TABLE_QUANTITIES)}"
    )
    table.set_defaults(func=_cmd_table)

    schubert = sub.add_parser("schubert", help="Schubert calculus on G_q(C^N)")
    schubert.add_argument("-q", type=int, required=True, help="subspace dimension")
    schubert.add_argument("-N", type=int, required=True, help="ambient dimension")
    schubert.add_argument(
        "--power", help="product of special classes, e.g. sigma1^4 or sigma1^2*sigma2"
    )
    schubert.add_argument("--giambelli", help="partition to expand, e.g. 1,1")
    schubert.add_argument(
        "--degree", action="store_true", help="degree of the Grassmannian"
    )
    schubert.set_defaults(func=_cmd_schubert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
