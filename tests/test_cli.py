import argparse
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

from charbound.bounds import GridResult, GridSpec, verify_grid
from charbound.chern import degree_sequence
from charbound.cli import MAX_BOUND_D, MAX_TABLE_D, _build_parser, _grid_spec_from_args, main
from charbound.schubert import grassmannian_degree
from charbound.varieties import CompleteIntersection

SRC = Path(__file__).resolve().parent.parent / "src"


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
def test_help_shows_the_required_mode_group(capsys, command, group):
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
    def never(spec):
        raise AssertionError("the grid must not run")

    monkeypatch.setattr("charbound.cli.verify_grid", never)
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
    # address-space limit; exit 1 would claim a violation. JSON runs hold
    # the grid (verify_grid), the others read it case by case (sweep_grid)
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("charbound.cli.verify_grid", exhausted)
    monkeypatch.setattr("charbound.cli.sweep_grid", exhausted)
    argv = ["verify", "--max-ambient-dim", "24", "--max-degree", "5"]
    for fmt in ((), ("--format", "csv"), ("--format", "markdown"), ("--format", "json")):
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, out) == (2, ""), fmt
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        for flag in ("--max-ambient-dim", "--max-degree", "--max-codim", "--max-cases"):
            assert flag in err


def one_past_the_quadric_surface(a, d, n):
    """degree_sequence, with the values of the quadric surface key (n, d) =
    (2, 2) one past their bounds d^(i+1)."""
    if (n, d) == (2, 2):
        return tuple(d ** (i + 1) + 1 for i in range(n + 1))
    return degree_sequence(a, d, n)


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


def test_verify_builds_reports_only_for_violations_and_flags(tmp_path, capsys, monkeypatch):
    # the held record's documents, counts, witnesses and exit code, its
    # violations and flags derived from its keys anew, against every run of
    # the CLI: JSON holds the grid, the other runs read it case by case
    def refuse(self):
        raise AssertionError("GridResult.reports was built")

    monkeypatch.setattr(GridResult, "reports", property(refuse))
    # one row per report, counted from the keys and labels
    rows = {
        "json": lambda text: len(json.loads(text)["reports"]),
        "csv": lambda text: text.count("\n") - 1,
        "markdown": lambda text: text.count("\n") - 2,
    }
    for name, (flags, expected) in STREAMED_GRIDS.items():
        with monkeypatch.context() as patched:
            if name == "one past the bound":
                patched.setattr("charbound.bounds.degree_sequence", one_past_the_quadric_surface)
            args = _build_parser().parse_args(["verify", *flags])
            held = verify_grid(_grid_spec_from_args(args))
            grid = GridResult(held.spec, held.truncated, held.keys, held.labels)
            counts = (grid.case_count, grid.truncated, grid.report_count, len(grid.flagged))
            assert (*counts, len(grid.violations)) == expected, name
            assert (held.violations, held.flagged) == (grid.violations, grid.flagged), name
            summary = (
                f"cases={grid.case_count} truncated={str(grid.truncated).lower()} "
                f"reports={grid.report_count} flagged={len(grid.flagged)} "
                f"violations={len(grid.violations)}\n"
            )
            witnesses = "".join(f"VIOLATION {r.witness()}\n" for r in grid.violations)
            code = 1 if grid.violations else 0
            assert run(capsys, "verify", *flags) == (code, summary + witnesses, ""), name
            for fmt, count in rows.items():
                path = tmp_path / f"reports.{fmt}"
                argv = ["verify", *flags, "--format", fmt, "--out", str(path)]
                assert run(capsys, *argv) == (code, summary + witnesses, ""), (name, fmt)
                assert path.read_text() == grid.render(fmt), (name, fmt)
                assert count(path.read_text()) == grid.report_count, (name, fmt)
                # a document on stdout sends the witnesses to stderr
                on_stdout = (code, grid.render(fmt), witnesses)
                assert run(capsys, *argv[:-2]) == on_stdout, (name, fmt)


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
    # the lazy cases still build on request
    assert len(verify_grid(GridSpec(max_ambient_dim=3)).cases) == len(built) > 0


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
    out = tmp_path / "sig.json"
    code, _, _ = run(capsys, "verify", "--sigma", "33", "-m", "5", "-D", "2", "--out", str(out))
    assert code == 1
    report = {
        "subject": "signature",
        "n": 4,
        "d": 2,
        "multidegree": [2],
        "index": None,
        "exact": 99,
        "bound": 98,
        "satisfied": False,
        "margin": -1,
        "degenerate": False,
        "note": "sigma supplied externally; c2^2 computed",
    }
    assert out.read_text() == json.dumps({"reports": [report]}, indent=2) + "\n"


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

    monkeypatch.setattr("charbound.cli.verify_grid", never)
    monkeypatch.setattr("charbound.cli.signature_check", never)
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
    monkeypatch.setattr("charbound.cli._Variety", lambda n, degrees: pytest.fail("computed"))
    code, out, err = run(capsys, "table", "-m", "3000", "-D", "2")
    assert code == 2
    assert out == ""
    assert "dimension <= 256, got 2999" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "table", "-m", "257", "-D", "1", "--quantities", "dimension")
    assert (code, out) == (0, "variety: m=257 deg=(1)\ndimension: 256\n")


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
    # a hypersurface of degree 10^30 in P^257, every quantity; about 0.6 s
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


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", "bound", "--betti", "-n", "2", "-d", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "512\n"


def modules_loaded_by_cli_import() -> set:
    """The modules that ``import charbound.cli`` adds, in a fresh interpreter."""
    script = (
        "import sys; before = set(sys.modules); import charbound.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "charbound.cli" in added
    return added


def test_cli_import_needs_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up, which
    # no command uses
    assert not modules_loaded_by_cli_import() & {"dataclasses", "inspect"}


def test_cli_import_leaves_decimal_unloaded():
    # decimal, _decimal and numbers cost about 2 ms at every start; only an
    # int past 639 digits loads them (see varieties.exact_decimal)
    assert not modules_loaded_by_cli_import() & {"decimal", "_decimal", "numbers"}


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
