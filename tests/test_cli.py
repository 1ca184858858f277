import argparse
import csv
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from charbound.bounds import _CHECKS, _Chunk
from charbound.cli import (
    MAX_BOUND_D,
    MAX_TABLE_D,
    TABLE,
    _build_parser,
    _grid_spec_from_args,
    _read_argv,
    main,
)
from charbound.schubert import grassmannian_degree
from charbound.varieties import CompleteIntersection, exact_repr
from grid_run import document, json_reports, one_past_the_quadric_surface, with_sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bound ---------------------------------------------------------------------


def test_bound_betti_golden(capsys):
    code, out, _ = run(capsys, "bound", "--betti", "-n", "2", "-d", "2")
    assert code == 0
    assert out == "512\n"


def test_bound_pontryagin_golden(capsys):
    code, out, _ = run(capsys, "bound", "--pontryagin", "-n", "2", "-d", "2")
    assert code == 0
    assert out == "8192\n"


def test_bound_cin_golden(capsys):
    code, out, _ = run(capsys, "bound", "--cin", "-n", "2", "-d", "2", "-I", "2")
    assert code == 0
    assert out == "128\n"


def test_bound_ci(capsys):
    code, out, _ = run(capsys, "bound", "--ci", "-n", "2", "-d", "3", "-I", "2")
    assert code == 0
    assert out == "27\n"


def parse_decimal(text):
    # int() refuses decimal text past 4300 digits unless the limit is lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bound_prints_long_values_in_full(capsys):
    code, out, _ = run(capsys, "bound", "--pontryagin", "-n", "120", "-d", "2")
    assert code == 0
    assert len(out.strip()) > 4300
    assert parse_decimal(out) == 2 ** (120 * 120 + 3 * 120) * 2 * 120**120
    code, out, _ = run(capsys, "bound", "--betti", "-n", "256", "-d", "1000000")
    assert code == 0
    assert parse_decimal(out) == 2 ** (256 * 256 + 2) * 1000000**257


def test_bound_rejects_n_and_d_above_limit(capsys):
    for n, d in (("257", "2"), ("2", "1000001"), ("0", "2"), ("2", "-1")):
        code, out, err = run(capsys, "bound", "--pontryagin", "-n", n, "-d", d)
        assert code == 2
        assert out == ""
        assert "n <= 256" in err and "d <= 1000000" in err


def test_bound_usage_errors(capsys):
    code, _, err = run(capsys, "bound", "--betti", "--ci", "-n", "2", "-d", "2")
    assert code == 2
    code, _, _ = run(capsys, "bound", "--betti", "-n", "2")  # missing -d
    assert code == 2
    code, _, err = run(capsys, "bound", "--cin", "-n", "2", "-d", "2")  # missing -I
    assert code == 2
    assert "multi-index" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("bound", "-n", "2", "-d", "2"),
            "one of the arguments --pontryagin --betti --ci --cin is required",
            id="bound-none",
        ),
        pytest.param(
            ("bound", "--betti", "--ci", "-n", "2", "-d", "2"),
            "argument --ci: not allowed with argument --betti",
            id="bound-two",
        ),
        pytest.param(
            ("schubert", "-q", "2", "-N", "4"),
            "one of the arguments --power --giambelli --degree is required",
            id="schubert-none",
        ),
        pytest.param(
            ("schubert", "-q", "2", "-N", "4", "--degree", "--power", "sigma1"),
            "argument --power: not allowed with argument --degree",
            id="schubert-two",
        ),
    ],
)
def test_each_subcommand_takes_exactly_one_mode(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "command, group",
    [
        ("bound", "(--pontryagin | --betti | --ci | --cin)"),
        ("schubert", "(--power POWER | --giambelli GIAMBELLI | --degree)"),
    ],
    ids=("bound", "schubert"),
)
def test_help_shows_the_required_mode_group(capsys, monkeypatch, command, group):
    # wide enough that argparse of 3.11, 3.12 and 3.13 prints each group on
    # one line
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert group in out


def test_empty_lists_are_the_empty_index_and_shape(capsys):
    # d (d+n-2)^0 for the empty multi-index; the empty shape is the unit class
    assert run(capsys, "bound", "--ci", "-n", "3", "-d", "3", "-I", "")[:2] == (0, "3\n")
    assert run(capsys, "schubert", "-q", "2", "-N", "4", "--giambelli", "")[:2] == (0, "1\n")


# -- verify ---------------------------------------------------------------------


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--max-ambient-dim", "4",
        "--max-degree", "3",
        "--max-cases", "100",
    )
    assert code == 0
    assert "violations=0" in out


def test_verify_default_grid_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "cases=500" in out
    assert "truncated=true" in out
    assert "violations=0" in out


def test_verify_writes_deterministic_json(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "max_ambient_dim": 4,
                "max_degree_per_factor": 2,
                "max_codim": 2,
                "checks": ["degree-sequence", "betti", "euler"],
                "max_cases": 50,
            }
        )
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code, _, _ = run(capsys, "verify", "--grid", str(grid), "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--grid", str(grid), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["violations"] == 0
    assert payload["grid"]["max_ambient_dim"] == 4


def test_verify_rejects_ambient_dim_above_limit(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the grid must not run")

    monkeypatch.setattr("charbound.bounds.verify_grid", never)
    argv = ["--max-ambient-dim", "60", "--max-degree", "1", "--max-codim", "1"]
    argv += ["--max-cases", "60", "--checks", "nef-chern"]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert "max_ambient_dim must be between 2 and 24, got 60" in err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"max_ambient_dim": 25}))
    code, out, err = run(capsys, "verify", "--grid", str(grid))
    assert (code, out) == (2, "")
    assert "got 25" in err


@pytest.mark.parametrize(
    "sizes",
    (
        # once an OverflowError from combinations_with_replacement
        ("--max-degree", "99999999999999999999", "--max-cases", "99999999999999999999"),
        # once a MemoryError: the pool of 10^10 degrees was copied into a tuple
        ("--max-ambient-dim", "3", "--max-degree", "9999999999", "--max-cases", "99999999999"),
    ),
)
def test_verify_refuses_a_grid_past_the_case_limit(sizes):
    proc = run_limited("verify", *sizes)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "more than 1000000 cases after the max_cases cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_out_of_memory_exits_two_with_one_error_line(capsys, monkeypatch):
    # a legal grid that outgrows memory, as m<=24 D<=5 does under a 2 GB
    # address-space limit; exit 1 would claim a violation. Every format
    # runs the grid through verify_grid
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("charbound.bounds.verify_grid", exhausted)
    argv = ["verify", "--max-ambient-dim", "24", "--max-degree", "5"]
    for fmt in ((), ("--format", "csv"), ("--format", "markdown"), ("--format", "json")):
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, out) == (2, ""), fmt
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        for flag in ("--max-ambient-dim", "--max-degree", "--max-codim", "--max-cases"):
            assert flag in err


# grids where a run read case by case could part from the held one, with
# their (cases, truncated, reports, flagged, violations)
STREAMED_GRIDS = {
    # 6 of the 439 reports, those of lines, are flagged
    "flagged lines": (("--max-ambient-dim", "4", "--max-degree", "3"), (31, False, 439, 6, 0)),
    # the cap stops at the 9th of the 34 cases in P^5
    "cut mid-dimension": (
        ("--max-ambient-dim", "6", "--max-degree", "3", "--max-cases", "40"),
        (40, True, 754, 6, 0),
    ),
    "no cases": (("--max-cases", "0"), (0, True, 0, 0, 0)),
    # only 4 of the 27 keys, those of dimension 4, have rows
    "keys without rows": (
        ("--max-ambient-dim", "7", "--max-degree", "2", "--checks", "pontryagin"),
        (77, False, 9, 0, 0),
    ),
    # three cases share the violating key, with the degree sequence above
    "one past the bound": (
        ("--max-ambient-dim", "5", "--max-degree", "3", "--checks", "degree-sequence"),
        (65, False, 176, 0, 9),
    ),
}


def table_cells(report) -> list:
    """A report's CSV or markdown cells."""
    joined = lambda values: "" if values is None else ",".join(map(str, values))
    numbers = report.n, report.d, report.exact_value, report.bound_value
    n, d, exact, bound = map(str, numbers)
    satisfied = "true" if report.satisfied else "false"
    cells = [report.subject, n, d, joined(report.multidegree), joined(report.index)]
    return cells + [exact, bound, satisfied, str(report.margin)]


def test_verify_builds_reports_only_for_violations_and_flags(tmp_path, capsys, monkeypatch):
    # the sweep tallies the violations and flags from its exception rows
    # alone; they must be those of the JSON document's reports, and every
    # run of the CLI must print and write what the library's runs give
    rows = {
        "json": lambda text: len(json.loads(text)["reports"]),
        "csv": lambda text: text.count("\n") - 1,
        "markdown": lambda text: text.count("\n") - 2,
    }
    for name, (flags, expected) in STREAMED_GRIDS.items():
        with monkeypatch.context() as patched:
            if name == "one past the bound":
                patched.setattr(
                    "charbound.bounds._Chunk", with_sequence(one_past_the_quadric_surface)
                )
            args = _build_parser().parse_args(["verify", *flags])
            spec = _grid_spec_from_args(args)
            runs = {fmt: document(spec, fmt) for fmt in rows}
            grid = runs["json"][0]
            reports = json_reports(runs["json"][1])
            violations = [r for r in reports if not r.satisfied and not r.degenerate]
            assert (grid.violations, grid.flagged) == (
                violations, [r for r in reports if r.degenerate]
            ), name
            counts = (grid.case_count, grid.truncated, grid.report_count, len(grid.flagged))
            assert (*counts, len(violations)) == expected, name
            summary = (
                f"cases={grid.case_count} truncated={str(grid.truncated).lower()} "
                f"reports={grid.report_count} flagged={len(grid.flagged)} "
                f"violations={len(violations)}\n"
            )
            witnesses = "".join(f"VIOLATION {r.witness()}\n" for r in violations)
            code = 1 if violations else 0
            assert run(capsys, "verify", *flags) == (code, summary + witnesses, ""), name
            for fmt, count in rows.items():
                sweep, text = runs[fmt]
                assert (sweep.violations, sweep.flagged) == (grid.violations, grid.flagged)
                assert count(text) == grid.report_count, (name, fmt)
                path = tmp_path / f"reports.{fmt}"
                argv = ["verify", *flags, "--format", fmt, "--out", str(path)]
                assert run(capsys, *argv) == (code, summary + witnesses, ""), (name, fmt)
                assert path.read_text() == text, (name, fmt)
                # a document on stdout sends the witnesses to stderr
                assert run(capsys, *argv[:-2]) == (code, text, witnesses), (name, fmt)
            # the three documents hold the same rows, row for row
            table = [*csv.reader(io.StringIO(runs["csv"][1]))][1:]
            marked = [line[2:-2].split(" | ") for line in runs["markdown"][1].splitlines()[2:]]
            assert table == marked == [*map(table_cells, reports)], name


def test_verify_builds_no_variety_per_case(tmp_path, capsys, monkeypatch):
    built = []
    init = CompleteIntersection.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CompleteIntersection, "__init__", counting)
    flags = ["--max-ambient-dim", "5", "--max-degree", "4", "--max-cases", "1000"]
    code, out, _ = run(capsys, "verify", *flags)
    assert code == 0 and out.startswith("cases=")
    path = tmp_path / "reports.csv"
    code, out, _ = run(capsys, "verify", *flags, "--format", "csv", "--out", str(path))
    assert code == 0 and out.startswith("cases=")
    assert built == []
    # the patch counts the varieties that are built
    CompleteIntersection(3, (2,))
    assert built == [(3, (2,))]


def test_verify_grid_sizes_must_be_integers(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    for data in ({"max_ambient_dim": 4.0}, {"max_cases": True}):
        grid.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--grid", str(grid))
        assert (code, out) == (2, "")
        assert "must be an integer" in err


@pytest.mark.parametrize(
    "text, kind",
    [
        ("[]", "list"),
        ('""', "str"),
        ("null", "NoneType"),
        ("5", "int"),
        ("true", "bool"),
        ('["max_cases"]', "list"),
        ('"max_cases"', "str"),
    ],
)
def test_verify_grid_spec_must_be_an_object(tmp_path, capsys, text, kind):
    # an empty list or string once ran the default grid and exited 0
    grid, report = tmp_path / "grid.json", tmp_path / "report.json"
    grid.write_text(text)
    code, out, err = run(capsys, "verify", "--grid", str(grid), "--out", str(report))
    assert (code, out) == (2, "")
    assert f"grid spec must be an object, got {kind}" in err and "Traceback" not in err
    assert not report.exists()


def test_verify_opens_out_before_computing_and_after_reading_inputs(tmp_path, capsys, monkeypatch):
    # a JSON grid once ran to the end, and --sigma printed its verdict,
    # before an unwritable --out exited 2
    def never(*args):
        raise AssertionError("nothing may run")

    monkeypatch.setattr("charbound.bounds.verify_grid", never)
    monkeypatch.setattr("charbound.bounds.signature_check", never)
    unwritable = str(tmp_path / "missing" / "x.json")
    grid = ["--max-ambient-dim", "24", "--max-degree", "2", "--max-codim", "23"]
    for argv in (
        (*grid, "--max-cases", "1000000", "--format", "json"),
        ("--sigma", "0", "-m", "6", "-D", "2,2"),
    ):
        code, out, err = run(capsys, "verify", *argv, "--out", unwritable)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
    monkeypatch.undo()
    # the spec is read from the file before the report is written over it
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"max_ambient_dim": 3}))
    code, _, _ = run(capsys, "verify", "--grid", str(spec), "--out", str(spec))
    assert code == 0
    assert json.loads(spec.read_text())["grid"]["max_ambient_dim"] == 3


def test_verify_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(
        capsys,
        "verify",
        "--max-ambient-dim", "3",
        "--max-degree", "2",
        "--checks", "betti,euler",
        "--out", str(out),
        "--format", "csv",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "subject,n,d,multidegree,index,exact,bound,satisfied,margin"
    assert len(lines) > 1


def test_verify_markdown_to_stdout(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--max-ambient-dim", "3",
        "--max-degree", "2",
        "--checks", "betti",
        "--format", "markdown",
    )
    assert code == 0
    assert out.startswith("| subject |")


def test_verify_malformed_grid_json(tmp_path, capsys):
    grid = tmp_path / "bad.json"
    grid.write_text("{not json")
    code, _, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 2
    assert "error" in err


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    # json.load raises RecursionError on this, which once escaped as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv, what in (
        (("verify", "--grid", str(deep)), "grid"),
        (("verify", "--sigma", "0", "--variety", str(deep)), "variety"),
        (("table", "--variety", str(deep)), "variety"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"malformed {what} JSON" in err and "Traceback" not in err


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_verify_grid_checks_must_be_a_list(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"checks": "betti"}))
    code, out, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 2
    assert out == ""
    assert "checks must be a list of names" in err


def test_verify_duplicate_checks_rejected(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--checks", "betti,betti")
    assert code == 2
    assert out == ""
    assert "more than once" in err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"checks": ["euler", "betti", "euler"]}))
    code, _, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 2
    assert "more than once" in err


def test_verify_empty_checks_rejected(capsys, tmp_path):
    for text in ("", ",", "betti,"):
        code, out, err = run(capsys, "verify", "--checks", text)
        assert code == 2
        assert out == ""
        assert "check names" in err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"checks": []}))
    code, _, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 2
    assert "at least one check" in err


def test_verify_signature_satisfied(capsys):
    code, out, _ = run(capsys, "verify", "--sigma", "0", "-m", "5", "-D", "2")
    assert code == 0
    assert "c2^2=98" in out
    assert "margin=98" in out


def test_verify_signature_prints_the_pinned_bytes(capsys):
    code, out, err = run(capsys, "verify", "--sigma", "0", "-m", "5", "-D", "2")
    assert (code, err) == (0, "")
    assert out == "signature check on m=5 deg=(2): |3*sigma|=0 c2^2=98 margin=98 satisfied\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0a61a75eec4a0f078ecaef07db6ad6ccc8182ae5229f8aea9137f5e833cbd852"
    )


def test_verify_signature_violation_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--sigma", "33", "-m", "5", "-D", "2")
    assert code == 1
    assert "VIOLATION" in out
    assert "exact=99" in out
    assert "bound=98" in out


def test_verify_signature_out_file_bytes(tmp_path, capsys):
    # a violated signature, and a satisfied one, which renders as a clean batch
    out = tmp_path / "sig.json"
    for sigma, exact, satisfied, margin in ((33, 99, False, -1), (0, 0, True, 98)):
        argv = ("verify", "--sigma", str(sigma), "-m", "5", "-D", "2", "--out", str(out))
        code, _, _ = run(capsys, *argv)
        assert code == (0 if satisfied else 1), sigma
        report = {
            "subject": "signature",
            "n": 4,
            "d": 2,
            "multidegree": [2],
            "index": None,
            "exact": exact,
            "bound": 98,
            "satisfied": satisfied,
            "margin": margin,
            "degenerate": False,
            "note": "sigma supplied externally; c2^2 computed",
        }
        assert out.read_text() == json.dumps({"reports": [report]}, indent=2) + "\n", sigma


def test_verify_signature_prints_long_values_in_full(tmp_path, capsys):
    out = tmp_path / "sig.json"
    sigma = "9" * 4300  # 3*sigma has 4,301 digits, past str()'s default limit
    code, text, _ = run(capsys, "verify", "--sigma", sigma, "-m", "5", "-D", "2", "--out", str(out))
    assert code == 1
    exact = "2" + "9" * 4299 + "7"
    assert f"|3*sigma|={exact} c2^2=98 margin=-{exact[:-3]}899 violated" in text
    assert f"VIOLATION subject=signature n=4 d=2 multidegree=(2,) index=None exact={exact}" in text
    assert f'"exact": {exact},' in out.read_text()


def test_verify_signature_needs_fourfold(capsys):
    code, _, err = run(capsys, "verify", "--sigma", "0", "-m", "3", "-D", "2")
    assert code == 2
    assert "4-dimensional" in err


def test_verify_signature_from_variety_file(tmp_path, capsys):
    spec = tmp_path / "v.json"
    spec.write_text(json.dumps({"ambient_dim": 5, "multidegree": [2]}))
    code, out, _ = run(capsys, "verify", "--sigma", "0", "--variety", str(spec))
    assert code == 0
    assert "satisfied" in out


SIGNATURE = ("--sigma", "0", "-m", "5", "-D", "2")
# verify argv that give one mode flags only the other mode reads, and the
# flags the refusal names; each of these flags was once silently ignored
MIXED_VERIFY_FLAGS = [
    pytest.param(SIGNATURE + ("--grid", "g.json"), "--grid", id="sigma-grid"),
    pytest.param(SIGNATURE + ("--format", "csv"), "--format", id="sigma-format"),
    pytest.param(SIGNATURE + ("--checks", "betti"), "--checks", id="sigma-checks"),
    pytest.param(SIGNATURE + ("--max-degree", "2"), "--max-degree", id="sigma-size"),
    pytest.param(
        SIGNATURE + ("--format", "csv", "--max-ambient-dim", "99"),
        "--max-ambient-dim, --format",
        id="sigma-format-size",
    ),
    pytest.param(("-m", "5", "-D", "2"), "-m, -D", id="grid-variety"),
    pytest.param(("--variety", "v.json"), "--variety", id="grid-variety-file"),
    pytest.param(("--max-cases", "5", "-D", "2"), "-D", id="grid-multidegree"),
    pytest.param(("--grid", "g.json", "--max-cases", "5"), "--max-cases", id="grid-file-size"),
]


@pytest.mark.parametrize("argv, flags", MIXED_VERIFY_FLAGS)
def test_verify_refuses_the_flags_of_the_other_mode(capsys, monkeypatch, argv, flags):
    def never(*args):
        raise AssertionError("nothing may run")

    monkeypatch.setattr("charbound.bounds.verify_grid", never)
    monkeypatch.setattr("charbound.bounds.signature_check", never)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"error: {flags} cannot be used" in err


def test_variety_file_excludes_inline_variety(tmp_path, capsys):
    spec = tmp_path / "v.json"
    spec.write_text(json.dumps({"ambient_dim": 5, "multidegree": [2]}))
    for argv in (("table",), ("verify", "--sigma", "0")):
        code, out, err = run(capsys, *argv, "--variety", str(spec), "-m", "5")
        assert (code, out) == (2, "")
        assert "--variety FILE excludes -m and -D" in err


# -- table ------------------------------------------------------------------------


def test_table_quadric_surface(capsys):
    code, out, _ = run(capsys, "table", "-m", "3", "-D", "2")
    assert code == 0
    assert "chi: 4" in out
    assert "betti: (1, 0, 2, 0, 1)" in out
    assert "degree_sequence: (2, 4, 8)" in out


def test_table_quartic_surface(capsys):
    code, out, _ = run(capsys, "table", "-m", "3", "-D", "4")
    assert code == 0
    assert "chi: 24" in out


def test_table_intersection_of_quadrics(capsys):
    code, out, _ = run(capsys, "table", "-m", "4", "-D", "2,2")
    assert code == 0
    assert "degree_sequence: (4, 12, 36)" in out


def test_table_quantity_selection(capsys):
    code, out, _ = run(capsys, "table", "-m", "3", "-D", "2", "--quantities", "chi")
    assert code == 0
    assert "chi: 4" in out
    assert "betti_bound" not in out


def test_table_quantities_take_spaces_after_the_commas(capsys):
    # as verify --checks "betti, euler" does; " degree" was once unknown
    code, out, err = run(capsys, "table", "-m", "3", "-D", "2", "--quantities", "chi, degree")
    assert (code, err) == (0, "")
    assert out == "variety: m=3 deg=(2)\nchi: 4\ndegree: 2\n"


def test_table_refuses_empty_quantities(capsys):
    # an empty list once printed every quantity, as if the flag were absent
    code, out, err = run(capsys, "table", "-m", "3", "-D", "2", "--quantities", "")
    assert (code, out) == (2, "")
    assert "unknown quantities ['']" in err


def test_table_refuses_repeated_quantities(capsys):
    # as verify refuses --checks betti,betti; chi was once printed twice
    code, out, err = run(capsys, "table", "-m", "3", "-D", "2", "--quantities", "chi,degree,chi")
    assert (code, out) == (2, "")
    assert "quantities named more than once: ['chi']" in err


def test_table_invalid_spec(capsys):
    code, _, _ = run(capsys, "table", "-m", "3", "-D", "0")
    assert code == 2
    code, _, _ = run(capsys, "table", "-m", "3")
    assert code == 2


BAD_VARIETY_SPECS = (
    ({"ambient_dim": 4.7, "multidegree": [2.9]}, "ambient_dim must be an integer"),
    ({"ambient_dim": 4, "multidegree": [2.9]}, "multidegree must be a list of integers"),
    ({"ambient_dim": "3", "multidegree": [2]}, "ambient_dim must be an integer"),
    ({"ambient_dim": 5, "multidegree": ["2"]}, "multidegree must be a list of integers"),
    ({"ambient_dim": True, "multidegree": [2]}, "ambient_dim must be an integer"),
    ({"ambient_dim": 5, "multidegree": 2}, "multidegree must be a list of integers"),
    ({"multidegree": [2]}, "ambient_dim must be an integer"),
    ({"ambient_dim": 5, "multidegree": [2], "degree": 2}, "unknown variety spec keys"),
    ([5, [2]], "variety spec must be an object"),
)


@pytest.mark.parametrize("data, message", BAD_VARIETY_SPECS)
def test_variety_files_reject_non_integer_sizes_and_unknown_keys(tmp_path, capsys, data, message):
    spec = tmp_path / "v.json"
    spec.write_text(json.dumps(data))
    for argv in (("table",), ("verify", "--sigma", "0")):
        code, out, err = run(capsys, *argv, "--variety", str(spec))
        assert code == 2, argv
        assert out == ""
        assert message in err and "Traceback" not in err


def test_table_refuses_a_dimension_past_the_cap_before_computing(capsys, monkeypatch):
    monkeypatch.setattr("charbound.cli._Chunk", lambda n, multidegrees: pytest.fail("computed"))
    code, out, err = run(capsys, "table", "-m", "3000", "-D", "2")
    assert code == 2
    assert out == ""
    assert "dimension <= 256, got 2999" in err
    # the patch is the chunk `table` builds: a legal call under it computes
    with pytest.raises(pytest.fail.Exception, match="computed"):
        run(capsys, "table", "-m", "257", "-D", "1", "--quantities", "dimension")
    monkeypatch.undo()
    code, out, _ = run(capsys, "table", "-m", "257", "-D", "1", "--quantities", "dimension")
    assert (code, out) == (0, "variety: m=257 deg=(1)\ndimension: 256\n")


# sha256 of each `verify --max-ambient-dim 4` document: the bytes a sweep
# that calls every selected check on every block writes
SMALL_GRID_DIGESTS = {
    "json": "52074285936a4d5da0decf2928715e02531bb06343e553718a418e72a2d9f51c",
    "csv": "cbfeb7ea1410b16ee58e2353feeded1e74c0121d6b9661b7f942b9bfbcc0cc27",
    "markdown": "6b97f5334d3d5aff5a42dffea278c5613805386f21b3ebbed78347a1225cf62b",
}


def test_verify_never_calls_a_check_where_it_has_no_rows(capsys, monkeypatch):
    # log-concavity gives a curve no row, and pontryagin a dimension off
    # 0 mod 4 none: each is refused there, and the documents keep their bytes
    log_concavity, pontryagin = _CHECKS["log-concavity"], _CHECKS["pontryagin"]

    def refused(check, rowless):
        return lambda c: pytest.fail(f"called on n={c.n}") if rowless(c.n) else check(c)

    monkeypatch.setitem(_CHECKS, "log-concavity", refused(log_concavity, lambda n: n < 2))
    monkeypatch.setitem(_CHECKS, "pontryagin", refused(pontryagin, lambda n: n % 4))
    for fmt, digest in SMALL_GRID_DIGESTS.items():
        code, out, err = run(capsys, "verify", "--max-ambient-dim", "4", "--format", fmt)
        assert (code, err) == (0, ""), fmt
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    # a grid where no selected check has a row builds no chunk at all
    monkeypatch.setattr("charbound.bounds._Chunk", lambda n, multidegrees: pytest.fail("built"))
    argv = ["verify", "--max-ambient-dim", "2", "--checks", "log-concavity"]
    summary = "cases=5 truncated=false reports=0 flagged=0 violations=0\n"
    assert run(capsys, *argv) == (0, summary, "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out.endswith('"reports": []\n}\n')


def test_table_refuses_a_huge_degree_before_computing():
    # twenty 4,000-digit factors; betti_bound alone once ran for over 30 s
    degrees = ",".join(["9" * 4000] * 20)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for quantity in ("betti_bound", "pontryagin_bound"):
        argv = ["table", "-m", "276", "-D", degrees, "--quantities", quantity]
        proc = subprocess.run(
            [sys.executable, "-m", "charbound", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"table needs degree <= 1{'0' * 30}" in proc.stderr


def test_table_at_both_caps_prints_the_pinned_bytes():
    # a hypersurface of degree 10^30 in P^257, every quantity; about 0.4 s
    argv = ["table", "-m", "257", "-D", str(MAX_TABLE_D)]
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) == 2_090_408
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "d73101d7053ea4e9bdf1c8cca820220010650f129d87fbaf4d72c71568d0ad5d"
    )


def test_every_table_quantity_of_a_long_record_prints_in_full(capsys):
    # a hypersurface of degree 10^30 in P^146: its degree sequence ends at
    # 10^4380, past str()'s 4,300-digit limit, and repr() of a list would
    # raise on it; exact_repr prints a tuple item by item
    c = _Chunk(145, [(MAX_TABLE_D,)])
    assert type(TABLE["degree_sequence"](c)) is tuple
    printed = {name: exact_repr(quantity(c)) for name, quantity in TABLE.items()}
    assert printed["degree_sequence"].endswith(f", 1{'0' * 4380})")
    code, out, _ = run(capsys, "table", "-m", "146", "-D", str(MAX_TABLE_D))
    assert code == 0
    assert out.splitlines()[1:] == [f"{name}: {text}" for name, text in printed.items()]


def test_table_takes_degrees_up_to_the_cap(capsys):
    # a grid variety in P^m with factors of degree <= D has degree <= D^(m-1):
    # the default grid, deep-json (m<=9 D<=2) and wide-csv (m<=5 D<=14)
    assert max(d ** (m - 1) for m, d in ((8, 5), (9, 2), (5, 14))) <= MAX_BOUND_D
    assert MAX_BOUND_D < MAX_TABLE_D == 10**30
    for degrees in (f"{10**30}", f"{10**15},{10**15}", f"1,2,{5 * 10**29}"):
        code, out, _ = run(capsys, "table", "-m", "4", "-D", degrees, "--quantities", "degree")
        assert (code, out.splitlines()[1:]) == (0, [f"degree: {10**30}"]), degrees
    # a first factor past the cap stops the product there
    for degrees in (f"{10**30 + 1}", f"{10**15},{10**15 + 1}", f"2,{10**4000}"):
        code, out, err = run(capsys, "table", "-m", "4", "-D", degrees)
        assert (code, out) == (2, ""), degrees
        assert f"table needs degree <= {10**30}" in err


# -- schubert -----------------------------------------------------------------------


def test_schubert_power_golden(capsys):
    code, out, _ = run(capsys, "schubert", "-q", "2", "-N", "4", "--power", "sigma1^4")
    assert code == 0
    assert out == "2\n"


def test_schubert_giambelli(capsys):
    code, out, _ = run(capsys, "schubert", "-q", "2", "-N", "4", "--giambelli", "1,1")
    assert code == 0
    assert out == "sigma[1,1]\n"


def test_schubert_degree(capsys):
    code, out, _ = run(capsys, "schubert", "-q", "1", "-N", "3", "--degree")
    assert code == 0
    assert out == "1\n"


def test_schubert_partial_power_prints_expansion(capsys):
    code, out, _ = run(capsys, "schubert", "-q", "2", "-N", "4", "--power", "sigma1^2")
    assert code == 0
    assert out == "sigma[1,1] + sigma[2]\n"


def test_schubert_box_violation_exits_two(capsys):
    # a shape outside the box is bad input, not a mathematical violation
    code, _, err = run(capsys, "schubert", "-q", "2", "-N", "4", "--giambelli", "5,1")
    assert code == 2
    assert "box" in err


def test_schubert_vanishing_special_class_exits_two(capsys):
    code, _, err = run(capsys, "schubert", "-q", "2", "-N", "4", "--power", "sigma3")
    assert code == 2
    assert "special index must be <= 2" in err


def test_schubert_bad_power_spec(capsys):
    code, _, _ = run(capsys, "schubert", "-q", "2", "-N", "4", "--power", "tau1^4")
    assert code == 2


def run_limited(*argv, address_space=1 << 30):
    # the CLI in a fresh process whose address space is capped
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "charbound", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=60,
    )


def test_schubert_huge_power_is_not_expanded():
    proc = run_limited("schubert", "-q", "2", "-N", "4", "--power", "sigma1^300000000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    # sigma0 is the identity, however often it is repeated
    proc = run_limited(
        "schubert", "-q", "2", "-N", "4", "--power", "sigma0^300000000*sigma1^4"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
    # an index past the box still fails, before any expansion
    proc = run_limited("schubert", "-q", "2", "-N", "4", "--power", "sigma3^300000000")
    assert proc.returncode == 2
    assert "special index must be <= 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_schubert_power_products(capsys):
    def power(spec):
        return run(capsys, "schubert", "-q", "2", "-N", "4", "--power", spec)

    assert power("sigma1^2*sigma0*sigma2")[:2] == (0, "1\n")
    assert power("sigma2^3")[:2] == (0, "0\n")
    code, _, err = power("sigma1^" + "9" * 5000)
    assert code == 2
    assert "at most 18 digits" in err


def test_schubert_degree_prints_all_digits(capsys):
    # 9,226 digits, past the 4,300 that str() accepts
    code, out, err = run(capsys, "schubert", "-q", "40", "-N", "200", "--degree")
    assert (code, err) == (0, "")
    assert len(out.strip()) > 4300
    assert parse_decimal(out) == grassmannian_degree(40, 200)


def test_schubert_rejects_oversized_grassmannians(capsys):
    rejected = (
        # 30,045,015 box shapes
        ("-q", "10", "-N", "30", "--power", "sigma1^200"),
        ("-q", "10", "-N", "30", "--giambelli", "1"),
        # 163,185 box shapes, 168 cells
        ("-q", "4", "-N", "46", "--power", "sigma1"),
        # 201 cells, 202 box shapes
        ("-q", "1", "-N", "202", "--power", "sigma1"),
        ("-q", "201", "-N", "202", "--giambelli", "1"),
    )
    for argv in rejected:
        code, out, err = run(capsys, "schubert", *argv)
        assert (code, out) == (2, ""), argv
        assert "q(N-q) <= 200 and at most 150000 box shapes" in err, argv
    # q(N-q) = 10^10 cells: (10^10)! is never built
    code, out, err = run(capsys, "schubert", "-q", "100000", "-N", "200000", "--degree")
    assert (code, out) == (2, "")
    assert "--degree needs q(N-q) <= 50000, got 10000000000" in err
    code, _, err = run(capsys, "schubert", "-q", "1", "-N", "50002", "--degree")
    assert code == 2 and "got 50001" in err


def test_schubert_accepts_the_largest_grassmannians(capsys):
    def schubert(*argv):
        return run(capsys, "schubert", *argv)[:2]

    # 148,995 box shapes (the most under the cap) in 164 cells
    assert schubert("-q", "41", "-N", "45", "--power", "sigma4^41") == (0, "1\n")
    assert schubert("-q", "41", "-N", "45", "--giambelli", "4,3,2,1") == (
        0,
        "sigma[4,3,2,1]\n",
    )
    # exactly 200 cells
    assert schubert("-q", "1", "-N", "201", "--power", "sigma1^200") == (0, "1\n")
    # exactly 50,000 cells
    assert schubert("-q", "1", "-N", "50001", "--degree") == (0, "1\n")


def test_schubert_giambelli_twelve_parts_is_fast():
    # a Leibniz expansion would face 12! = 479,001,600 permutations
    shape = ",".join(["2"] * 12)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["schubert", "-q", "12", "-N", "14", "--giambelli", shape]
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"sigma[{shape}]\n", "")


def child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports from src, with
    ``extra`` set. Unless ``extra`` sets PYTHONUNBUFFERED, its stdout is
    buffered, so what the process has not flushed by its exit shows as
    lost."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **extra}


def run_module(*argv, env=None, **kwargs):
    """``python -m charbound *argv`` in a fresh interpreter, by default in
    child_env()."""
    return subprocess.run(
        [sys.executable, "-m", "charbound", *argv], env=env or child_env(), timeout=60, **kwargs
    )


def run_script(script: str, **extra):
    """``python -c script`` in a fresh interpreter (see child_env)."""
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(**extra),
        timeout=60,
    )


def test_module_entry_point():
    proc = run_module("bound", "--betti", "-n", "2", "-d", "2", capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "512\n"


def script_target_call() -> str:
    """The statement an installed ``charbound`` script runs, from pyproject."""
    tomllib = pytest.importorskip("tomllib", reason="Python 3.11 added tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, name = pyproject["project"]["scripts"]["charbound"].split(":")
    return f"from {module} import {name}; sys.exit({name}())"


@pytest.mark.parametrize(
    "entry",
    [
        # python -m charbound
        "import runpy; runpy.run_module('charbound', run_name='__main__', alter_sys=True)",
        # python -m charbound.cli
        "import runpy; runpy.run_module('charbound.cli', run_name='__main__', alter_sys=True)",
        "script",
    ],
    ids=("charbound", "charbound.cli", "script"),
)
def test_every_process_entry_runs_atexit_once_and_skips_teardown(entry):
    # the process ends once stdout is flushed and the atexit handlers have
    # run: the object the handler leaves on sys would speak when module
    # teardown deletes it. Every entry runs with the cyclic collector off
    script = (
        "import atexit, gc, os, sys\n"
        "class Teardown:\n"
        "    def __del__(self, write=os.write):\n"
        "        write(2, b'teardown\\n')\n"
        "def handler():\n"
        "    print('atexit', gc.isenabled())\n"
        "    sys.teardown = Teardown()\n"
        "atexit.register(handler)\n"
        "sys.argv = ['charbound', 'bound', '--betti', '-n', '2', '-d', '2']\n"
        + (script_target_call() if entry == "script" else entry)
    )
    proc = run_script(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "512\natexit False\n", "")


def test_main_leaves_the_heap_unfrozen(capsys):
    # tests and library callers keep a heap the collector can free, and the
    # collector as they set it
    before, enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        for switch, state in ((gc.disable, False), (gc.enable, True)):
            switch()
            assert run(capsys, "bound", "--betti", "-n", "2", "-d", "2") == (0, "512\n", "")
            assert gc.get_freeze_count() == before
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


# a product of special classes whose Pieri steps strip many shapes
MIXED_POWER = (
    "sigma4^4*sigma2*sigma1*sigma4*sigma1*sigma4^2*sigma1*sigma4*sigma3*sigma2*sigma1"
    "*sigma3*sigma1^4"
)


def test_no_command_leaves_cyclic_garbage():
    # a CLI process runs with the collector off (cli.run), so whatever a
    # command drops must be freed by reference counting alone. A fresh
    # interpreter, so that no cache is warm and every command builds what
    # it needs; functions that held themselves through their own closure
    # cells left 13,600 objects after the mixed Schubert query. The top
    # sigma1 power (paired by duality) and a product short of the box (the
    # forward product) run the strip step on both --power paths
    commands = [
        GOLDEN["default-json"]["argv"],
        GOLDEN["wide-csv"]["argv"],
        "verify --sigma 32 -m 5 -D 2",
        "table -m 3 -D 4",
        f"schubert -q 5 -N 15 --power {MIXED_POWER}",
        "schubert -q 5 -N 15 --power sigma1^50",
        "schubert -q 3 -N 7 --power sigma2^2*sigma1",
        "schubert -q 2 -N 5 --giambelli 2,1",
    ]
    script = (
        "import contextlib, gc, io, sys\n"
        "from charbound.cli import main\n"
        "gc.collect()\n"
        "gc.disable()\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        "    print(code, gc.collect())\n"
    )
    proc = run_script(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0 0"] * len(commands)


def test_a_profiled_run_reports_after_the_output():
    # a profiler reports at interpreter exit, so run() returns under it
    argv = ["-m", "cProfile", "-m", "charbound", "bound", "--betti", "-n", "2", "-d", "2"]
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    output, _, profile = proc.stdout.partition("\n")
    assert output == "512"
    assert "function calls" in profile and "Ordered by" in profile


def test_importing_the_main_module_runs_nothing():
    script = (
        "import sys\n"
        "sys.argv = ['charbound', 'bound', '--betti', '-n', '2', '-d', '2']\n"
        "try:\n"
        "    import charbound.__main__\n"
        "except SystemExit as exc:\n"
        "    print('SystemExit', exc.code)\n"
    )
    proc = run_script(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN["default-json"]["argv"].split(),
        GOLDEN["wide-csv"]["argv"].split(),
        ["table", "-m", "257", "-D", "1000"],
        # output that stays in stdout's buffer until the command is done
        ["bound", "--betti", "-n", "2", "-d", "2"],
        ["verify"],
        ["--help"],
        ["verify", "-h"],
    ],
)
def test_a_closed_stdout_pipe_is_one_error_line_and_exit_two(argv):
    # with stdout buffered, and unbuffered as PYTHONUNBUFFERED=1 makes it:
    # argparse drops its own write errors, so help once exited 0 into a
    # closed pipe when stdout was unbuffered
    for env in (child_env(), child_env(PYTHONUNBUFFERED="1")):
        # the reader is gone before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module(*argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        expected = (2, b"error: [Errno 32] Broken pipe\n")
        assert (proc.returncode, proc.stderr) == expected, env.get("PYTHONUNBUFFERED")


def test_verify_out_file_is_complete_at_exit(tmp_path):
    # the file is closed before the process exits
    golden = GOLDEN["default-json"]
    path = tmp_path / "report.json"
    proc = run_module(*golden["argv"].split(), "--out", str(path), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"cases={golden['cases']} truncated={str(golden['truncated']).lower()} "
        f"reports={golden['reports']} flagged={golden['flagged']} "
        f"violations={golden['violations']}\n"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["sha256"]


def modules_loaded_by_cli_import() -> set:
    """The modules that ``import charbound.cli`` adds, in a fresh interpreter."""
    script = (
        "import sys; before = set(sys.modules); import charbound.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "charbound.cli" in added
    return added


# argparse, and the gettext and locale modules it loads, cost about 4 ms of
# a fresh process; only help and usage errors need them
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


def test_cli_import_needs_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up, which
    # no command uses
    assert not modules_loaded_by_cli_import() & {"dataclasses", "inspect", *ARGPARSE_MODULES}
    # the package binds every name it exports at import, and neither import
    # form loads the grid layer or json
    script = (
        "import sys, charbound\n"
        "assert set(charbound.__all__) <= set(vars(charbound))\n"
        "from charbound import *\n"
        "print(*sorted({'charbound.bounds', 'json'} & set(sys.modules)))\n"
    )
    proc = run_script(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def run_listing_modules(*argv) -> tuple:
    """``python -m charbound *argv`` in a fresh interpreter at 80 columns:
    its exit code, stdout and stderr, and the modules it loaded, as an
    atexit handler sees them once it has run."""
    script = (
        "import atexit, runpy, sys\n"
        "before = set(sys.modules)\n"
        "added = lambda: sorted(set(sys.modules) - before)\n"
        "atexit.register(lambda: print('modules:', *added(), file=sys.stderr))\n"
        f"sys.argv = ['charbound', *{list(argv)!r}]\n"
        "runpy.run_module('charbound', run_name='__main__', alter_sys=True)\n"
    )
    proc = run_script(script, COLUMNS="80")
    err, _, modules = proc.stderr.rpartition("modules: ")
    return proc.returncode, proc.stdout, err, set(modules.split())


def modules_loaded_by_run(*argv) -> set:
    """The modules that ``python -m charbound *argv`` loads; it must exit 0."""
    code, _, err, loaded = run_listing_modules(*argv)
    assert code == 0, err
    return loaded


def test_schubert_starts_without_the_grid_layer():
    # charbound.bounds and json cost about 4 ms of every start, and only
    # `bound`, `verify` and `table` read the grid layer
    loaded = modules_loaded_by_run("schubert", "-q", "2", "-N", "4", "--degree")
    assert "charbound.schubert" in loaded
    assert not loaded & {"charbound.bounds", "json", *ARGPARSE_MODULES}
    assert "charbound.bounds" in modules_loaded_by_run("verify", "--max-cases", "1")
    # a JSON document is quoted by _json's C function alone
    loaded = modules_loaded_by_run("verify", "--max-cases", "1", "--format", "json")
    assert "_json" in loaded
    assert not loaded & {"json", "json.decoder", *ARGPARSE_MODULES}
    # every well-formed argv is read from the flag table, without argparse
    for argv in (("bound", "--betti", "-n", "2", "-d", "2"), ("table", "-m", "3", "-D", "2")):
        loaded = modules_loaded_by_run(*argv)
        assert "charbound.bounds" in loaded and not loaded & ARGPARSE_MODULES, argv


def test_cli_import_leaves_decimal_unloaded():
    # decimal, _decimal and numbers cost about 2 ms at every start; only an
    # int past 639 digits loads them (see varieties.exact_decimal)
    assert not modules_loaded_by_cli_import() & {"decimal", "_decimal", "numbers"}


# the help layout of each Python minor version's argparse: 3.13 prints an
# option's metavar once (-m, --ambient-dim AMBIENT_DIM), where 3.10 to 3.12
# print it after each flag (-m AMBIENT_DIM, --ambient-dim AMBIENT_DIM)
ARGPARSE_LAYOUTS = {(3, 10): "3.11", (3, 11): "3.11", (3, 12): "3.11", (3, 13): "3.13"}

# per layout, the sha256 and length of the help text at 80 columns
HELP_PINS = {
    "3.11": {
        (): ("bbe7ae83df6e3b2cbaafb5d21866149e57e33097406b8919b5d2bf2c3fdb4f96", 651),
        ("bound",): ("e84029ba81ff40df8e84f8d68cb3f01aaabc3af89d6b28931ea33bd839bdaf4d", 823),
        ("verify",): ("88c6ad1bdb8ec0e7fdba865ad09d6d9954cea39ed964e4a01145116a52969219", 1310),
        ("table",): ("d4734f60ed9e822fcf370e697bcad7ce3c328891b20055eec3c80d5280c67107", 695),
        ("schubert",): ("5159493e97c0c0c8c169f98a1d51bacf463654682e4f6c85a57fd2f743226b4f", 460),
    },
    "3.13": {
        (): ("bbe7ae83df6e3b2cbaafb5d21866149e57e33097406b8919b5d2bf2c3fdb4f96", 651),
        ("bound",): ("d90f3d231ec40bd9b5a36f406f285fdeab4f989b17c4b4f1a93e9541c6c03ae6", 761),
        ("verify",): ("a16d36a505a009699c709b665cfb211bfacd1bcd17f1ee432e2ee9d5d2d77383", 1286),
        ("table",): ("8edec594c3dfc46b4b03bbf2339f2cd77a2f4305659d66a8a941f7ac76b77a3a", 671),
        ("schubert",): ("8153c562a79656f8f9651ca473bc54337533c511ba5d62006b9bb0d2e6af4b79", 460),
    },
}


@pytest.mark.parametrize("command", list(HELP_PINS["3.11"]))
def test_help_prints_the_pinned_bytes(capsys, monkeypatch, command):
    # a Python without pins fails here: its help bytes are unchecked
    version = sys.version_info[:2]
    assert version in ARGPARSE_LAYOUTS, f"no help pins for Python {version}"
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    data = out.encode()
    pins = HELP_PINS[ARGPARSE_LAYOUTS[version]]
    assert (hashlib.sha256(data).hexdigest(), len(data)) == pins[command]


def test_help_through_a_pipe_prints_the_pinned_bytes():
    # stdout is a buffered pipe here, and the help is flushed before the exit
    version = sys.version_info[:2]
    assert version in ARGPARSE_LAYOUTS, f"no help pins for Python {version}"
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", "-h"],
        capture_output=True,
        env=child_env(COLUMNS="80"),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    pins = HELP_PINS[ARGPARSE_LAYOUTS[version]]
    assert (hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)) == pins[()]


# -- argv fuzz ------------------------------------------------------------------


def subcommand_flags():
    """Each subcommand's flags, read from the parser the CLI uses."""
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in subparsers.choices.items()
    }


FLAGS = subcommand_flags()
BIG = "9" * 20
JUNK = ("", ",", "x", "1.5", "-1", "0", "-" + BIG)
# values by dest, next to JUNK; every legal run stays cheap: q, N <= 12, and a
# grid run has --max-ambient-dim <= 8 and --max-cases <= 30 (added below)
VALUES = {
    "n": ("1", "4", "256", "257", BIG),
    "d": ("1", "3", "1000000", "1000001", BIG),
    "index": ("1", "2", "1,2", "2,1,1", "", BIG),
    "grid": ("out.json", "missing.json"),
    "max_ambient_dim": ("2", "3", "8", "25"),
    "max_degree_per_factor": ("1", "3", BIG),
    "max_codim": ("1", "2", BIG),
    "max_cases": ("1", "5", "30"),
    "checks": ("betti", "betti,euler", "euler,euler", "bogus", "pontryagin,nef-chern"),
    "format": ("json", "csv", "markdown"),
    "out": ("out.json",),
    "sigma": ("33", BIG),
    "variety": ("out.json", "missing.json"),
    "ambient_dim": ("3", "5", "24", "25", "256", "257", BIG),
    "multidegree": ("2", "2,2", "1,1", "2,0", "1000000", "1000001", BIG),
    "quantities": ("chi", "betti,total_betti", "dimension", "bogus"),
    "q": ("1", "2", "3", "6", "12", BIG),
    "N": ("2", "4", "7", "12", BIG),
    "power": (
        "sigma1^4",
        "sigma2*sigma1^2",
        "sigma13",
        "sigma0^" + "9" * 18,
        "sigma1^" + "9" * 18,
        "sigma1^" + "9" * 19,
        "tau1",
    ),
    "giambelli": ("1,1", "2,1", "", "1,2", "5,1", "12", BIG),
}


# legal argv, one or more per mode; the fuzz adds flags of the same subcommand
SEEDS = (
    ("bound", "--betti", "-n", "2", "-d", "2"),
    ("bound", "--ci", "-n", "3", "-d", "3", "-I", "1,2"),
    ("verify",),
    ("verify", "--sigma", "0", "-m", "5", "-D", "2"),
    ("table", "-m", "3", "-D", "2"),
    ("schubert", "-q", "2", "-N", "4", "--power", "sigma1^4"),
    ("schubert", "-q", "2", "-N", "4", "--giambelli", "1,1"),
    ("schubert", "-q", "2", "-N", "4", "--degree"),
)


def value(dest):
    # two draws in three from the flag's own values
    own = st.sampled_from(VALUES[dest])
    return st.one_of(own, own, st.sampled_from(JUNK))


@st.composite
def argvs(draw):
    argv = list(draw(st.sampled_from(SEEDS)))
    # added flags repeat a flag (the last value counts), add a rival mode or
    # add a flag the mode does not read
    for action in draw(st.lists(st.sampled_from(FLAGS[argv[0]]), max_size=3)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(value(action.dest)))
    if argv[0] == "verify" and "--sigma" not in argv:
        argv += ["--max-cases", draw(value("max_cases"))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # --out writes here, and --grid and --variety may read what it wrote
    return tmp_path_factory.mktemp("fuzz")


# Without the explain phase, as in test_writers_match_stdlib_serializers.
@settings(
    max_examples=600,
    deadline=None,
    phases=tuple(phase for phase in Phase if phase is not Phase.explain),
)
@given(argvs())
@example(["schubert", "-q", "2", "-N", "4", "--giambelli", ""])
@example(["verify", "--sigma", "0", "-m", "5", "-D", "2", "--max-cases", "5"])
@example(["verify", "--max-degree", BIG, "--max-cases", "30"])
def test_any_argv_exits_with_a_code_and_no_traceback(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- the flag-table reader -------------------------------------------------------


def argparse_vars(argv) -> dict:
    """vars() of what argparse parses from argv; the test fails if it
    refuses argv."""
    try:
        return vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        pytest.fail(f"argparse refused {argv} with exit code {exc.code}")


# argv the reader must leave to argparse, with the exit code and, after the
# usage line, the stderr that argparse prints; a run that exits 0 pins its
# stdout instead
LEFT_TO_ARGPARSE = {
    "missing -N": (
        ["schubert", "-q", "2", "--degree"],
        2,
        ["the following arguments are required: -N"],
    ),
    "two modes": (
        ["schubert", "-q", "2", "-N", "4", "--power", "sigma1", "--degree"],
        2,
        ["argument --degree: not allowed with argument --power"],
    ),
    # later argparse releases list the choices with str(), not repr()
    "bad choice": (
        ["verify", "--max-cases", "5", "--format", "xml"],
        2,
        [
            "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'markdown')",
            "argument --format: invalid choice: 'xml' (choose from json, csv, markdown)",
        ],
    ),
    "bad int": (
        ["schubert", "-q", "x", "-N", "4", "--degree"],
        2,
        ["argument -q: invalid int value: 'x'"],
    ),
    # argparse takes the abbreviation of --max-degree
    "abbreviation": (
        ["verify", "--max-deg", "3", "--max-cases", "5"],
        0,
        "cases=5 truncated=true reports=66 flagged=2 violations=0\n",
    ),
}


# Without the explain phase, as in test_writers_match_stdlib_serializers.
@settings(
    max_examples=600,
    deadline=None,
    phases=tuple(phase for phase in Phase if phase is not Phase.explain),
)
@given(st.one_of(st.sampled_from(SEEDS).map(list), argvs()))
# the argv of LEFT_TO_ARGPARSE
@example(["schubert", "-q", "2", "--degree"])
@example(["schubert", "-q", "2", "-N", "4", "--power", "sigma1", "--degree"])
@example(["verify", "--max-cases", "5", "--format", "xml"])
@example(["schubert", "-q", "x", "-N", "4", "--degree"])
@example(["verify", "--max-deg", "3", "--max-cases", "5"])
# a value joined to its flag, a negative value, a repeated flag, help
@example(["verify", "--max-degree=3"])
@example(["bound", "--betti", "-n", "-2", "-d", "2"])
@example(["bound", "--betti", "--betti", "-n", "2", "-d", "2"])
@example(["schubert", "-h"])
def test_the_reader_gives_argparse_s_namespace_or_leaves_the_argv_to_it(argv):
    read = _read_argv(argv)
    if tuple(argv) in SEEDS:
        assert read is not None, argv
    if read is not None:
        assert vars(read) == argparse_vars(argv)


def usage_of(help_text: str) -> str:
    """The usage lines that open a help text."""
    return help_text[: help_text.index("\n\n") + 1]


@pytest.mark.parametrize(
    "argv, code, expected", LEFT_TO_ARGPARSE.values(), ids=list(LEFT_TO_ARGPARSE)
)
def test_argv_left_to_argparse_prints_the_pinned_bytes(capsys, monkeypatch, argv, code, expected):
    assert _read_argv(argv) is None
    monkeypatch.setenv("COLUMNS", "80")
    if code == 0:
        assert run(capsys, *argv) == (0, expected, "")
        return
    # the usage lines as the subcommand's help prints them, whose bytes
    # test_help_prints_the_pinned_bytes pins
    usage = usage_of(run(capsys, argv[0], "--help")[1])
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err in [f"{usage}charbound {argv[0]}: error: {message}\n" for message in expected]


def test_help_and_usage_errors_load_argparse_and_print_the_pinned_bytes():
    version = sys.version_info[:2]
    assert version in ARGPARSE_LAYOUTS, f"no help pins for Python {version}"
    code, out, err, loaded = run_listing_modules("schubert", "-h")
    assert (code, err) == (0, "")
    assert loaded >= ARGPARSE_MODULES
    data = out.encode()
    pins = HELP_PINS[ARGPARSE_LAYOUTS[version]]
    assert (hashlib.sha256(data).hexdigest(), len(data)) == pins[("schubert",)]
    usage = usage_of(out)
    code, out, err, loaded = run_listing_modules("schubert", "-q", "2", "-N", "4")
    assert (code, out) == (2, "")
    assert loaded >= ARGPARSE_MODULES
    message = "one of the arguments --power --giambelli --degree is required"
    assert err == f"{usage}charbound schubert: error: {message}\n"
