"""Command-line interface: bound evaluation, grid verification, variety
tables, and Schubert-calculus queries.

Each subcommand's flags are declared once, in the flag table of COMMANDS. A
well-formed argv is read straight from the table; argparse, built from it
too, loads only for help and for the error messages it prints.

Exit codes: 0 all checks pass, 1 a mathematical violation was found,
2 usage or I/O error. All numeric output is exact decimal text.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from functools import partial
from itertools import accumulate
from math import comb
from operator import mul
from types import SimpleNamespace

from .chern import _Chunk, betti_from_euler
from .schubert import (
    Grassmannian,
    GradingError,
    SchubertClass,
    giambelli_expand,
    grassmannian_degree,
    pieri,
    special_intersection_number,
)
from .varieties import CompleteIntersection, MultiIndex, Partition, exact_decimal, exact_repr

# `bound` accepts 1 <= n <= MAX_BOUND_N and 1 <= d <= MAX_BOUND_D; the largest
# value, the Pontryagin cap at the corner, has about 21,000 decimal digits.
# `table` takes dimensions up to MAX_BOUND_N too
MAX_BOUND_N = 256
MAX_BOUND_D = 10**6
# `table` takes degrees d <= MAX_TABLE_D. Its values have about n * log10(d)
# digits, and a hypersurface is the costliest variety of its (n, d): every
# quantity of P^257 (10^30) takes about 0.4 s in a fresh process, 2 MB of text
MAX_TABLE_D = 10**30
# digits of a `schubert --power` index or exponent; longer ones are rejected
# before they are parsed
MAX_POWER_DIGITS = 18
# `schubert --power` and `--giambelli` work on the shapes of the q x (N-q)
# box, each a q-tuple, so both the shape count C(N, q) and the cell count
# q(N-q) are capped. The slowest accepted query found, `-q 5 -N 30 --power
# sigma5^24`, one factor short of the box, walks the whole forward product in
# about 1.4 s (a fresh process, best of 3, 2-core Xeon); a product that fills
# the box is paired by duality in about half that (`sigma5^25`, 0.8 s)
MAX_SCHUBERT_SHAPES = 150_000
MAX_SCHUBERT_CELLS = 200
# `schubert --degree` computes (q(N-q))!; at the cap it takes under a second
MAX_DEGREE_CELLS = 50_000


class UsageError(ValueError):
    """Bad flag combination or unreadable input."""


def _type_error(message: str) -> Exception:
    """The error a converter raises for argparse to report as a bad value."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _parse_int_list(text: str) -> tuple:
    """Comma-separated integers; the empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _type_error(f"expected comma-separated integers, got {text!r}") from exc


def _read_json(path: str, what: str):
    import json

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


# flag -> (its formula's name in charbound.bounds, whether it takes a multi-index)
BOUNDS = {
    "pontryagin": ("pontryagin_bound", False),
    "betti": ("betti_bound", False),
    "ci": ("nef_chern_bound", True),
    "cin": ("cotangent_chern_bound", True),
}


def _from_bounds(name: str):
    """The name ``name`` of charbound.bounds, imported on first use."""
    from . import bounds

    return getattr(bounds, name)


def _cmd_bound(args) -> int:
    n, d = args.n, args.d
    if not (1 <= n <= MAX_BOUND_N and 1 <= d <= MAX_BOUND_D):
        raise UsageError(
            f"need 1 <= n <= {MAX_BOUND_N} and 1 <= d <= {MAX_BOUND_D}, got n={n}, d={d}"
        )
    name, takes_index = BOUNDS[args.formula]
    formula = _from_bounds(name)
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
        raise _type_error(f"expected comma-separated check names, got {text!r}")
    return names


def _refuse(args, flags, when: str) -> None:
    """Raise UsageError naming each of these flag-table entries that was given."""
    given = [flag.options[0] for flag in flags if getattr(args, flag.dest) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} cannot be used {when}")


def _grid_spec_from_args(args) -> GridSpec:
    from .bounds import GridSpec

    if args.grid is None:
        given = vars(args)
        return GridSpec(**{f: given[f] for f in GridSpec._fields if given[f] is not None})
    _refuse(args, [flag for flag in _VERIFY_FLAGS if flag.dest in GridSpec._fields], "with --grid")
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
    from .bounds import verify_grid

    if args.sigma is not None:
        _refuse(args, [flag for flag in _VERIFY_FLAGS if flag.group == _GRID], "with --sigma")
        return _cmd_verify_signature(args)
    _refuse(args, [flag for flag in _VERIFY_FLAGS if flag.group == _SIGNATURE], "without --sigma")
    spec = _grid_spec_from_args(args)
    fmt = args.format or ("json" if args.out is not None else None)

    def run(out):
        return verify_grid(spec, out, fmt)

    # a summary run writes no document
    result = run(None) if fmt is None else _write_out(run, args.out)
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
    from .bounds import signature_check

    ci = _variety_from_args(args)
    check = partial(signature_check, ci, args.sigma)
    # an --out file is opened before the check runs, as for a grid
    report = check() if args.out is None else _write_out(check, args.out)
    status = "satisfied" if report.satisfied else "violated"
    print(
        f"signature check on {ci}: |3*sigma|={exact_decimal(abs(report.exact_value))} "
        f"c2^2={exact_decimal(report.bound_value)} "
        f"margin={exact_decimal(report.margin)} {status}"
    )
    if not report.satisfied:
        print(f"VIOLATION {report.witness()}")
        return 1
    return 0


# -- table -----------------------------------------------------------------

# quantity -> its value, read from a chern._Chunk of the one variety: the
# tangent multiples a_0..a_n give K = -a_1, the ample class A = K + (n+2)h
# and chi = d * a_n
TABLE = {
    "dimension": lambda c: c.n,
    "degree": lambda c: c.ds[0],
    "canonical": lambda c: -c.tangent[0][1],
    "ample": lambda c: c.n + 2 - c.tangent[0][1],
    "chi": lambda c: c.chi[0],
    "betti": lambda c: betti_from_euler(c.n, c.chi[0]),
    "total_betti": lambda c: c.betti_sums[0][0],
    "degree_sequence": lambda c: tuple(c.sequence[0]),
    "tangent_chern": lambda c: tuple(c.tangent[0]),
    "betti_bound": lambda c: _from_bounds("betti_bound")(c.n, c.ds[0]),
    "betti_bound_recursive": lambda c: _from_bounds("betti_bound_recursive")(c.n, c.ds[0]),
    "pontryagin_bound": lambda c: _from_bounds("pontryagin_bound")(c.n, c.ds[0]),
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
    c = _Chunk(ci.dimension, [ci.multidegree])
    print(f"variety: {ci}")
    for name in wanted:
        print(f"{name}: {exact_repr(TABLE[name](c))}")
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
            raise _type_error(
                f"cannot parse {token!r}; expected sigmaK or sigmaK^E terms joined by *"
            )
        if any(len(g) > MAX_POWER_DIGITS for g in match.groups() if g):
            raise _type_error(
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
    # in the top codimension the product is a multiple of the point class
    if total == cells:
        print(exact_decimal(special_intersection_number(gr, factors)))
        return 0
    cls = SchubertClass.one(gr)
    for k, exponent in factors:
        for _ in range(exponent):
            cls = pieri(cls, k)
    print(cls)
    return 0


# -- entry point -------------------------------------------------------------


class _OneOf(str):
    """The name of a required mutually exclusive group of flags."""


def _flag(*options, group=None, **facts) -> SimpleNamespace:
    """One entry of the flag table: its option strings, its group (an
    argument group's title, or a _OneOf) and what add_argument takes: dest,
    by default as argparse derives it; type, or const for a flag without a
    value; required; help, or a function giving it; metavar; choices."""
    long = next((option for option in options if option.startswith("--")), options[0])
    facts.setdefault("dest", long.lstrip("-").replace("-", "_"))
    facts.setdefault("action", "store_const" if "const" in facts else "store")
    unset = dict(type=None, const=None, required=False, help=None, metavar=None, choices=None)
    return SimpleNamespace(options=options, group=group, **{**unset, **facts})


_formula = partial(_flag, group=_OneOf("formula"), dest="formula")
_GRID, _SIGNATURE = "grid run", "signature check"
_grid, _signature = partial(_flag, group=_GRID), partial(_flag, group=_SIGNATURE)
_mode = partial(_flag, group=_OneOf("mode"))


def _variety_flags(flag=_flag) -> tuple:
    """--variety FILE, or -m and -D inline, each made by ``flag``."""
    return (
        flag("--variety", help="variety spec JSON file"),
        flag("-m", "--ambient-dim", type=int, help="ambient dimension"),
        flag("-D", "--multidegree", type=_parse_int_list, help="comma-separated degrees, e.g. 2,2"),
    )


_BOUND_FLAGS = tuple(
    _formula(f"--{flag}", const=flag, help=lambda name=name: _from_bounds(name).__doc__)
    for flag, (name, _) in BOUNDS.items()
) + (
    _flag("-n", type=int, required=True, help=f"dimension, 1..{MAX_BOUND_N}"),
    _flag("-d", type=int, required=True, help=f"degree, 1..{MAX_BOUND_D}"),
    _flag("-I", "--index", type=_parse_int_list, help="comma-separated multi-index, e.g. 1,2"),
)
_VERIFY_FLAGS = (
    _grid("--grid", help="path to a grid-spec JSON file"),
    _grid("--max-ambient-dim", type=int),
    _grid("--max-degree", type=int, dest="max_degree_per_factor", metavar="MAX_DEGREE"),
    _grid("--max-codim", type=int),
    _grid("--max-cases", type=int),
    _grid(
        "--checks",
        type=_parse_names,
        help=lambda: f"comma-separated subset of: {','.join(_from_bounds('CHECK_NAMES'))}",
    ),
    _grid("--format", choices=("json", "csv", "markdown"), help="report format"),
    _flag("--out", help="write the report file here"),
    _signature("--sigma", type=int, help="supplied real-side signature; runs the signature check"),
    *_variety_flags(_signature),
)
_TABLE_FLAGS = (
    *_variety_flags(),
    _flag("--quantities", help=f"comma-separated subset of: {','.join(TABLE_QUANTITIES)}"),
)
_SCHUBERT_FLAGS = (
    _flag("-q", type=int, required=True, help="subspace dimension"),
    _flag("-N", type=int, required=True, help="ambient dimension"),
    _mode("--power", type=_parse_power_spec, help="product, e.g. sigma1^4 or sigma1^2*sigma2"),
    _mode("--giambelli", type=_parse_int_list, help="shape to expand, e.g. 1,1"),
    _mode("--degree", const=True, help="degree of the Grassmannian"),
)

# subcommand -> (its line in the top-level help, its flags, the function it runs)
COMMANDS = {
    "bound": ("evaluate one bound formula exactly", _BOUND_FLAGS, _cmd_bound),
    "verify": (
        "run bound checks over a variety grid, or a signature check", _VERIFY_FLAGS, _cmd_verify
    ),
    "table": ("print exact invariants of one variety", _TABLE_FLAGS, _cmd_table),
    "schubert": ("Schubert calculus on G_q(C^N)", _SCHUBERT_FLAGS, _cmd_schubert),
}


def _read_argv(argv):
    """The namespace of a well-formed argv: a subcommand, then each of its
    flags at most once by full option string, each value one word that does
    not start with -, converts and is a legal choice, every required flag
    and one flag of each _OneOf. Any other argv gives None, for argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, flags, func = COMMANDS[argv[0]]
    by_option = {option: flag for flag in flags for option in flag.options}
    values, given, words = {flag.dest: None for flag in flags}, [], iter(argv[1:])
    for word in words:
        flag = by_option.get(word)
        if flag is None or flag in given:
            return None
        given.append(flag)
        values[flag.dest] = value = flag.const
        if value is None:
            text = next(words, "-")
            try:
                values[flag.dest] = value = text if flag.type is None else flag.type(text)
            except Exception:  # ArgumentTypeError among them: argparse reports it
                return None
            if text.startswith("-") or flag.choices is not None and value not in flag.choices:
                return None
    one_of = {flag.group for flag in flags if isinstance(flag.group, _OneOf)}
    chosen = sorted(flag.group for flag in given if flag.group in one_of)
    if chosen != sorted(one_of) or any(flag.required and flag not in given for flag in flags):
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, built from the flag table."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose help fails as any write to stdout does:
        argparse drops an OSError of its own writes, and with unbuffered
        stdout help into a closed pipe would then exit 0 with nothing said."""

        def _print_message(self, message, file=None):
            if file is sys.stdout and message:
                file.write(message)
            else:
                super()._print_message(message, file)

    parser = _Parser(
        prog="charbound",
        description=(
            "Exact characteristic-class bounds for complete intersections: "
            "evaluate bound formulas, verify them against exact values on "
            "variety grids, print invariant tables, and query Schubert calculus."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, func) in COMMANDS.items():
        subparser = sub.add_parser(name, help=summary)
        groups = {None: subparser}
        for flag in flags:
            if flag.group not in groups:
                groups[flag.group] = (
                    subparser.add_mutually_exclusive_group(required=True)
                    if isinstance(flag.group, _OneOf)
                    else subparser.add_argument_group(flag.group)
                )
            facts = {k: v for k, v in vars(flag).items() if v is not None and k != "group"}
            facts["help"] = flag.help() if callable(flag.help) else flag.help
            groups[flag.group].add_argument(*facts.pop("options"), **facts)
        subparser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_argv(argv) or _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
        else:
            code = args.func(args)
        # what stdout still buffers fails here if its reader has gone, not
        # at exit
        sys.stdout.flush()
        return code
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


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches this process; it
    reports at interpreter exit. From Python 3.12 cProfile and coverage may
    hook in as a sys.monitoring tool (ids 0 to 5), not through
    sys.setprofile or sys.settrace."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def run() -> int:
    """The process entry: ``main`` on sys.argv, then the end of the process.

    Once stdout is flushed and the atexit handlers have run, as interpreter
    exit would run them, ``os._exit`` ends the process without tearing down
    the modules, whose memory the OS takes back anyway. With a profiler,
    tracer or coverage tool attached, ``run`` returns the exit code instead,
    so that the tool reports at the normal exit. ``main`` itself returns, for
    tests and library callers that live on.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; the text still buffered has no
        # reader, and goes nowhere rather than failing again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if _observed():
        return code
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
