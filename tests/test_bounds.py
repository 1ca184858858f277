import csv
import gc
import io
import json
import sys
import tracemalloc
import types
from contextlib import contextmanager
from decimal import Decimal
from functools import partial
from itertools import count, islice

import pytest
from hypothesis import Phase, given, settings, strategies as st

from charbound.bounds import (
    _CHECKS,
    _Variety,
    _cases,
    _write,
    CHECK_NAMES,
    DEGENERATE_NOTE,
    MAX_GRID_CASES,
    BoundReport,
    GridResult,
    GridSpec,
    betti_bound,
    betti_bound_recursive,
    blowup_euler,
    cotangent_chern_bound,
    curve_betti_bound,
    exact_decimal,
    nef_chern_bound,
    pontryagin_bound,
    signature_check,
    sweep_grid,
    verify_grid,
    write_json,
)
from charbound.chern import DegreeError, degree_sequence
from charbound.cli import main
from charbound.varieties import CompleteIntersection, MultiIndex, partitions_of
import chern_oracle as oracle
from determinants import long_side_schur


# -- closed-form bound formulas ------------------------------------------------


def test_pontryagin_bound_values():
    assert pontryagin_bound(2, 2) == 8192
    assert pontryagin_bound(1, 1) == 0  # degenerate base (d+n-2)=0
    assert pontryagin_bound(4, 2) == 2**37


def test_betti_bound_values():
    assert betti_bound(1, 3) == 72
    assert betti_bound(2, 2) == 512
    assert betti_bound(2, 4) == 4096


def test_bounds_reject_bad_input():
    with pytest.raises(ValueError):
        pontryagin_bound(0, 2)
    with pytest.raises(ValueError):
        betti_bound(2, 0)


def test_recursive_betti_bound_curve_base():
    assert betti_bound_recursive(1, 3) == 4
    for d in range(1, 8):
        assert betti_bound_recursive(1, d) == curve_betti_bound(d)
    with pytest.raises(ValueError):
        betti_bound_recursive(0, 2)


def test_recursive_betti_bound_quadric_surface():
    # hand recursion: conic section gives 2 + 1*0 = 2, then 4*2 + 2*2^4*2^3 = 264
    assert betti_bound_recursive(2, 2) == 264


def test_nef_chern_bound_values():
    assert nef_chern_bound(2, 3, MultiIndex((2,))) == 27
    assert nef_chern_bound(2, 2, MultiIndex((1, 1))) == 8
    assert nef_chern_bound(1, 1, MultiIndex((1,))) == 0  # degenerate base


def test_cotangent_chern_bound_values():
    assert cotangent_chern_bound(2, 2, MultiIndex((2,))) == 128
    assert cotangent_chern_bound(1, 4, MultiIndex((1,))) == 24
    assert cotangent_chern_bound(2, 3, MultiIndex((1, 1))) == 432


def test_chern_bounds_reject_overweight_index():
    with pytest.raises(DegreeError):
        nef_chern_bound(2, 3, MultiIndex((2, 1)))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=30),
)
def test_bounds_monotone_in_degree(n, d):
    assert betti_bound(n, d + 1) > betti_bound(n, d)
    assert pontryagin_bound(n, d + 1) >= pontryagin_bound(n, d)
    index = MultiIndex((1,)) if n >= 1 else MultiIndex(())
    assert cotangent_chern_bound(n, d + 1, index) >= cotangent_chern_bound(n, d, index)


# -- signature and blow-up plumbing ----------------------------------------------


# c2 = 7h on the quadric fourfold, so c2^2 = 2 * 7^2 = 98
QUADRIC_FOURFOLD = CompleteIntersection(5, (2,))


def test_signature_check_satisfied():
    report = signature_check(QUADRIC_FOURFOLD, 0)
    assert (report.n, report.d, report.multidegree) == (4, 2, (2,))
    assert report.bound_value == 98
    assert report.satisfied
    assert report.margin == 98
    assert "supplied" in report.note


def test_signature_check_violated():
    report = signature_check(QUADRIC_FOURFOLD, 33)
    assert not report.satisfied
    assert report.exact_value == 99


def test_signature_check_boundary():
    # the cubic fourfold has c2 = 6h, so c2^2 = 3 * 6^2 = 108 = 3 * 36
    for sigma in (36, -36):
        report = signature_check(CompleteIntersection(5, (3,)), sigma)
        assert report.bound_value == 108
        assert report.satisfied
        assert report.margin == 0
    assert not signature_check(CompleteIntersection(5, (3,)), 37).satisfied


def test_blowup_euler_complex_side():
    assert blowup_euler(40, -6, 3) == 40 - 12
    assert blowup_euler(7, 0, 2) == 7


def test_blowup_euler_real_side_ignores_nu():
    assert blowup_euler(40, -6, 3, real_side=True, chi_c_real=0) == 40
    assert blowup_euler(40, -6, 5, real_side=True, chi_c_real=2) == 44


def test_blowup_euler_requires_codim_two():
    with pytest.raises(ValueError):
        blowup_euler(0, 0, 1)


# -- grid enumeration ---------------------------------------------------------------
# The oracle walks the grid on its own, sharing no code with verify_grid:
# ambient dimension, then codimension, then sorted multidegree, cut by islice
# at max_cases. Degrees are walked lazily, so a huge max_degree_per_factor
# costs nothing past the cap.


def oracle_multidegrees(k, low, top):
    """Sorted k-tuples of degrees low..top, in lexicographic order."""
    if k == 0:
        yield ()
        return
    for d in range(low, top + 1):
        for rest in oracle_multidegrees(k - 1, d, top):
            yield (d, *rest)


def oracle_grid(spec):
    """(cases, truncated) of the grid, one case at a time."""

    def cases():
        for m in range(2, spec.max_ambient_dim + 1):
            for k in range(1, min(m - 1, spec.max_codim) + 1):
                for degs in oracle_multidegrees(k, 1, spec.max_degree_per_factor):
                    yield CompleteIntersection(m, degs)

    found = tuple(islice(cases(), spec.max_cases + 1))
    return found[: spec.max_cases], len(found) > spec.max_cases


def test_enumeration_is_canonical_and_deterministic():
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=2, max_cases=1000)
    cases = (
        CompleteIntersection(2, (1,)),
        CompleteIntersection(2, (2,)),
        CompleteIntersection(3, (1,)),
        CompleteIntersection(3, (2,)),
        CompleteIntersection(3, (1, 1)),
        CompleteIntersection(3, (1, 2)),
        CompleteIntersection(3, (2, 2)),
        CompleteIntersection(4, (1,)),
        CompleteIntersection(4, (2,)),
        CompleteIntersection(4, (1, 1)),
        CompleteIntersection(4, (1, 2)),
        CompleteIntersection(4, (2, 2)),
        CompleteIntersection(4, (1, 1, 1)),
        CompleteIntersection(4, (1, 1, 2)),
        CompleteIntersection(4, (1, 2, 2)),
        CompleteIntersection(4, (2, 2, 2)),
    )
    assert oracle_grid(spec) == (cases, False)
    result = verify_grid(spec)
    assert (result.cases, result.truncated) == (cases, False)
    assert verify_grid(spec) == result


def test_enumeration_respects_codim_cap():
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=2, max_codim=1)
    cases = verify_grid(spec).cases
    assert cases == oracle_grid(spec)[0]
    assert cases and all(ci.codimension == 1 for ci in cases)


def test_enumeration_truncates_with_flag():
    spec = GridSpec(max_ambient_dim=8, max_degree_per_factor=5, max_cases=10)
    result = verify_grid(spec)
    assert result.truncated
    assert len(result.cases) == 10
    assert (result.cases, result.truncated) == oracle_grid(spec)


@pytest.mark.parametrize("max_degree", (7, 10**6, 10**20))
@pytest.mark.parametrize("max_cases", (0, 1, 5))
def test_enumeration_under_a_degree_cap_past_the_case_cap(max_degree, max_cases):
    # the cap stops the first block, the plane curves of degree 1, 2, ...; a
    # range(1, 10**20 + 1) of degrees used to raise OverflowError
    spec = GridSpec(max_degree_per_factor=max_degree, max_cases=max_cases)
    curves = tuple(CompleteIntersection(2, (d,)) for d in range(1, max_cases + 1))
    result = verify_grid(spec)
    assert (result.cases, result.truncated) == oracle_grid(spec) == (curves, True)


@pytest.mark.parametrize(
    "spec",
    (
        GridSpec(max_ambient_dim=4, max_degree_per_factor=2, max_cases=1000),
        GridSpec(max_ambient_dim=9, max_degree_per_factor=2, max_codim=8, max_cases=10**6),
        GridSpec(max_ambient_dim=5, max_degree_per_factor=14, max_cases=10**6),
        GridSpec(max_ambient_dim=12, max_degree_per_factor=3, max_codim=2, max_cases=10**6),
        # cut short by the cap
        GridSpec(),
        GridSpec(max_ambient_dim=6, max_degree_per_factor=3, max_codim=2, max_cases=37),
        GridSpec(max_degree_per_factor=10**20, max_cases=5),
        GridSpec(max_cases=0),
    ),
)
def test_case_count_is_the_enumerated_count(spec):
    cases, truncated = oracle_grid(spec)
    result = verify_grid(spec)
    assert (result.cases, result.truncated) == (cases, truncated)
    assert spec.case_count == result.case_count == len(cases)


def test_grid_spec_refuses_more_cases_than_the_limit():
    assert MAX_GRID_CASES == 10**6
    at_limit = GridSpec(max_degree_per_factor=10**20, max_cases=MAX_GRID_CASES)
    assert at_limit.case_count == MAX_GRID_CASES
    for sizes in (
        {"max_degree_per_factor": 10**20, "max_cases": 10**20},
        {"max_ambient_dim": 3, "max_degree_per_factor": 9999999999, "max_cases": 99999999999},
        # m<=24 D<=8 has 28,048,776 cases
        {"max_ambient_dim": 24, "max_degree_per_factor": 8, "max_codim": 23,
         "max_cases": MAX_GRID_CASES + 1},
    ):
        with pytest.raises(ValueError, match="more than 1000000 cases after the max_cases cap"):
            GridSpec(**sizes)


def test_empty_grid():
    result = verify_grid(GridSpec(max_cases=0))
    assert result.reports == ()
    assert result.cases == ()


def test_a_grid_read_case_by_case_writes_no_json():
    # a JSON head counts the violations before the first report
    stream = io.StringIO()
    with pytest.raises(ValueError, match="use verify_grid"):
        sweep_grid(GridSpec(max_ambient_dim=3), stream, "json")
    assert stream.getvalue() == ""


def test_grid_spec_json_roundtrip():
    spec = GridSpec(max_ambient_dim=5, checks=("betti", "euler"), max_cases=20)
    empty = GridResult(spec, False, (), ())
    assert GridSpec.from_dict(json.loads(empty.render("json"))["grid"]) == spec
    with pytest.raises(ValueError):
        GridSpec.from_dict({"max_cases": 5, "bogus": 1})
    with pytest.raises(ValueError):
        GridSpec(checks=("nonsense",))


def test_grid_spec_bounds_ambient_dim():
    assert GridSpec(max_ambient_dim=24).max_ambient_dim == 24
    for bad in (1, 25, 60):
        with pytest.raises(ValueError, match="between 2 and 24"):
            GridSpec(max_ambient_dim=bad)


def test_grid_spec_sizes_must_be_integers():
    for name in ("max_ambient_dim", "max_degree_per_factor", "max_codim", "max_cases"):
        for bad in (4.0, True, "4"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                GridSpec(**{name: bad})


# -- verification runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_grid():
    return verify_grid(GridSpec(max_ambient_dim=4, max_degree_per_factor=3, max_cases=100))


def test_small_grid_has_no_violations(small_grid):
    assert small_grid.all_satisfied
    assert small_grid.violations == ()
    assert small_grid.violations is small_grid.violations
    assert small_grid.flagged is small_grid.flagged


def test_small_grid_flags_only_degenerate_lines(small_grid):
    for report in small_grid.flagged:
        assert (report.n, report.d) == (1, 1)
    # the known formula failure outside its regime: lines, untwisted cotangent
    unsatisfied = [r for r in small_grid.reports if not r.satisfied]
    assert unsatisfied
    assert all(r.degenerate for r in unsatisfied)
    assert {r.subject for r in unsatisfied} == {"cotangent-chern"}
    assert all(r.exact_value == -2 for r in unsatisfied)


def test_hypersurface_degree_sequence_is_tight(small_grid):
    for report in small_grid.reports:
        if report.subject == "degree-sequence" and len(report.multidegree) == 1:
            assert report.margin == 0


def test_report_type_invariant(small_grid):
    for report in small_grid.reports:
        if report.exact_value is not None:
            assert report.satisfied == (abs(report.exact_value) <= report.bound_value)
            assert report.margin == report.bound_value - abs(report.exact_value)


def test_check_table_lists_every_name_once():
    assert tuple(_CHECKS) == CHECK_NAMES


def test_nef_chern_lower_limit_can_fail(monkeypatch):
    # a negative pairing is within |exact| <= bound but below the limit 0
    monkeypatch.setattr(
        "charbound.bounds._chern_numbers", lambda t, d, multiples: [-1] * len(t.indices)
    )
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=3, checks=("nef-chern",))
    result = verify_grid(spec)
    plain = [r for r in result.reports if not r.degenerate]
    assert plain
    assert all(r.exact_value == -1 and r.margin >= 0 for r in plain)
    assert not any(r.satisfied for r in plain)
    assert result.violations == tuple(plain)


def test_degree_sequence_lower_limit_can_fail(monkeypatch):
    monkeypatch.setattr("charbound.bounds.degree_sequence", lambda a, d, n: (0,) * (n + 1))
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=3, checks=("degree-sequence",))
    result = verify_grid(spec)
    assert result.reports
    assert not any(r.satisfied for r in result.reports)
    assert result.violations == result.reports


def test_schur_work_runs_only_when_schur_positivity_is_selected(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("computed the dual sequence without schur-positivity")

    monkeypatch.setattr("charbound.bounds.dual_sequence", refuse)
    others = ",".join(name for name in CHECK_NAMES if name != "schur-positivity")
    assert main(["verify", "--checks", others]) == 0
    assert "violations=0" in capsys.readouterr().out
    # the patch bites where schur-positivity runs
    with pytest.raises(AssertionError, match="without schur-positivity"):
        verify_grid(GridSpec(max_ambient_dim=3, checks=("schur-positivity",)))


# the deep-json grid: dimensions 1..8, so Pontryagin rows at n = 4 and 8, and
# the degenerate lines (n, d) = (1, 1)
DEEP = dict(max_ambient_dim=9, max_degree_per_factor=2, max_codim=8, max_cases=10**6)


@pytest.fixture(scope="module")
def deep_grid():
    return verify_grid(GridSpec(**DEEP))


def test_the_deep_grid_reaches_pontryagin_and_degenerate_rows(deep_grid):
    pontryagin = {r.n for r in deep_grid.reports if r.subject == "pontryagin"}
    assert pontryagin == {4, 8}
    assert {(r.n, r.d) for r in deep_grid.flagged} == {(1, 1)}


def key_rows(key) -> tuple:
    """A grid key's rows as it holds them: (subject, index, lower limit,
    based, whether the value is a Schur pairing, value, bound, note)."""
    _, _, (*layout, paired), *values = key
    return tuple(zip(*layout, map(paired.__contains__, range(len(values[0]))), *values))


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_a_check_alone_gives_its_rows_of_the_full_run(deep_grid, name):
    alone = verify_grid(GridSpec(**DEEP, checks=(name,)))
    assert alone.labels == deep_grid.labels
    assert [key[:2] for key in alone.keys] == [key[:2] for key in deep_grid.keys]
    assert [key_rows(key) for key in alone.keys] == [
        tuple(row for row in key_rows(key) if row[0] == name) for key in deep_grid.keys
    ]
    # the pairings are Schur's rows and no others
    for n, _, (subjects, *_, paired), *_ in deep_grid.keys:
        assert [j for j, s in enumerate(subjects) if s == "schur-positivity"] == [*paired]
    # every key of one dimension holds the same layout object
    for result in (alone, deep_grid):
        layouts = {}
        for n, _, layout, *_ in result.keys:
            assert layouts.setdefault(n, layout) is layout


def test_a_grid_result_holds_its_values_not_a_tuple_per_row():
    # m<=20 D<=2: 209 keys, 120,025 distinct rows and 1,520 cases; each key
    # holds its values, bounds and notes over one layout per dimension, about
    # 8.2 MB in all, where a tuple per row held 23.1 MB, and values with a
    # pairing=<int> note per Schur row 9.5 MB
    spec = GridSpec(max_ambient_dim=20, max_degree_per_factor=2, max_codim=19, max_cases=10**6)
    gc.collect()
    tracemalloc.start()
    try:
        result = verify_grid(spec)
        gc.collect()
        with_result = tracemalloc.get_traced_memory()[0]
        assert (len(result.keys), result.case_count) == (209, 1520)
        del result
        gc.collect()
        held = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 9.3e6, f"the result holds {held / 1e6:.1f} MB"


def test_upper_limit_fails_by_one_on_every_case_of_a_key(monkeypatch, tmp_path, capsys):
    # the quadric surface key, (n, d) = (2, 2), gets degree sequence values
    # one past their bounds d^(i+1); every other key keeps its own
    def one_past(a, d, n):
        if (n, d) == (2, 2):
            return tuple(d ** (i + 1) + 1 for i in range(n + 1))
        return degree_sequence(a, d, n)

    monkeypatch.setattr("charbound.bounds.degree_sequence", one_past)
    spec = GridSpec(max_ambient_dim=5, max_degree_per_factor=3, checks=("degree-sequence",))
    result = verify_grid(spec)
    # P^3 (2), P^4 (1,2) and P^5 (1,1,2): three cases share the key
    quadrics = [ci.multidegree for ci in result.cases if (ci.dimension, ci.degree) == (2, 2)]
    assert quadrics == [(2,), (1, 2), (1, 1, 2)]
    expected = tuple(
        BoundReport("degree-sequence", 2, 2, degs, (i,), 2 ** (i + 1) + 1, 2 ** (i + 1), False, -1)
        for degs in quadrics
        for i in range(3)
    )
    assert result.violations == expected
    assert result.flagged == ()
    assert all(r.satisfied for r in result.reports if (r.n, r.d) != (2, 2))
    # degree-sequence has n + 1 rows per case
    reports = sum(ci.dimension + 1 for ci in result.cases)
    assert reports == len(result.reports)
    # the summary line and the JSON head count each case of the key
    flags = ["--max-ambient-dim", "5", "--max-degree", "3", "--checks", "degree-sequence"]
    assert main(["verify", *flags]) == 1
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(f"reports={reports} flagged=0 violations=9")
    out = tmp_path / "reports.json"
    assert main(["verify", *flags, "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["violations"] == 9
    assert sum(not r["satisfied"] for r in payload["reports"]) == 9


# -- the grid kernel against a case-by-case oracle -------------------------------
# Built from the test oracles of chern_oracle.py, one case and one index at a
# time, with no reduced-key memo: each case's tangent series, its cotangent
# classes and their binomial twist by 2h, Chern numbers as products, Betti
# numbers by Lefschetz, the ample class by adjunction, Schur classes as
# long-side Jacobi-Trudi determinants, and the recursive Betti bound through
# CompleteIntersection hyperplane sections. It reads nothing from
# charbound.chern or charbound.betti, whose values it checks.

ORACLE_LEAST = {"degree-sequence": 1, "nef-chern": 0}
ORACLE_HAS_BASE = {"nef-chern", "cotangent-chern", "pontryagin"}


def oracle_indices(n):
    return [()] + [parts for total in range(1, n + 1) for parts in partitions_of(total)]


def sectioned_betti_bound(ci):
    n, d = ci.dimension, ci.degree
    if n == 1:
        return curve_betti_bound(d)
    return 4 * sectioned_betti_bound(ci.hyperplane_section()) + 2 * 2 ** (n * n) * d ** (n + 1)


def oracle_rows(check, ci):
    n, d = ci.dimension, ci.degree
    tangent = oracle.tangent(ci.ambient_dim, ci.multidegree, n)
    cotangent = oracle.cotangent(tangent)
    twisted = oracle.twist(cotangent, 2)
    if check in ("degree-sequence", "log-concavity"):
        # A = K + (n+2)h, with K = (sum d_j - m - 1)h by adjunction
        ample = sum(ci.multidegree) - ci.ambient_dim - 1 + n + 2
        seq = [ample**i * d for i in range(n + 1)]
        if check == "degree-sequence":
            return [((i,), value, d ** (i + 1), "") for i, value in enumerate(seq)]
        return [((i,), seq[i] * seq[i - 2], seq[i - 1] ** 2, "") for i in range(2, n + 1)]
    if check in ("nef-chern", "cotangent-chern"):
        if check == "nef-chern":
            e, bound = twisted, nef_chern_bound
        else:
            e, bound = cotangent, cotangent_chern_bound
        return [
            (parts, oracle.chern_number(d, e, parts), bound(n, d, MultiIndex(parts)), "")
            for parts in oracle_indices(n)
        ]
    chi = oracle.chern_number(d, tangent, (n,))
    betti = oracle.betti(n, chi)
    if check == "betti":
        return [(None, sum(betti), betti_bound(n, d), "")]
    if check == "betti-recursive":
        return [(None, sum(betti), sectioned_betti_bound(ci), "")]
    if check == "euler":
        alternating = sum((-1) ** i * b for i, b in enumerate(betti))
        return [(None, chi - alternating, 0, f"chi={chi} alternating_betti={alternating}")]
    if check == "schur-positivity":
        rows = []
        for parts in oracle_indices(n)[1:]:
            pairing = long_side_schur(twisted, parts) * d
            rows.append((parts, min(pairing, 0), 0, f"pairing={pairing}"))
        return rows
    assert check == "pontryagin"
    if n % 4:
        return []
    bound = pontryagin_bound(n, d)
    # the Pontryagin index j reads the squared class c_2j^2
    return [
        (parts, oracle.chern_number(d, twisted, [2 * j for j in parts] * 2), bound, "")
        for parts in partitions_of(n // 4)
    ]


def globals_reached(fn) -> dict:
    """name -> value of each module global that ``fn`` reads, and that the
    functions of its own module which it reads read, transitively."""
    found, todo, seen = {}, [fn], set()
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for name in code.co_names:
                if name in f.__globals__:
                    value = found[name] = f.__globals__[name]
                    if isinstance(value, types.FunctionType) and value.__module__ == f.__module__:
                        todo.append(value)
    return found


def test_oracle_rows_reads_nothing_from_chern_or_betti():
    # an oracle built on the values it checks could not catch their faults
    reached = globals_reached(oracle_rows)
    assert {"oracle", "long_side_schur", "sectioned_betti_bound", "curve_betti_bound"} <= set(
        reached
    )
    homes = {
        name: getattr(value, "__module__", None) or getattr(value, "__name__", None)
        for name, value in reached.items()
    }
    assert homes["oracle"] == "chern_oracle"
    assert not {n: h for n, h in homes.items() if h in ("charbound.chern", "charbound.betti")}


def oracle_reports(spec):
    out = []
    for ci in oracle_grid(spec)[0]:
        n, d = ci.dimension, ci.degree
        for check in spec.checks:
            least = ORACLE_LEAST.get(check)
            for index, exact, bound, note in oracle_rows(check, ci):
                degenerate = check in ORACLE_HAS_BASE and d + n - 2 == 0 and bool(index)
                satisfied = abs(exact) <= bound and (least is None or exact >= least)
                note = DEGENERATE_NOTE if degenerate else note
                margin = bound - abs(exact)
                out.append(
                    BoundReport(
                        check, n, d, ci.multidegree, index, exact, bound, satisfied, margin,
                        degenerate, note,
                    )
                )
    return out


MEMO_GRIDS = (
    # 120 of 156 cases have a degree-1 factor
    GridSpec(max_ambient_dim=9, max_degree_per_factor=2, max_codim=8, max_cases=10**6),
    GridSpec(max_ambient_dim=6, max_degree_per_factor=3, max_codim=5, max_cases=10**6),
    # reaches dimension 11, where Giambelli matrices have order 3
    GridSpec(max_ambient_dim=12, max_degree_per_factor=3, max_codim=2, max_cases=10**6),
)


@pytest.mark.parametrize("spec", MEMO_GRIDS)
def test_grid_cases_built_from_labels_are_the_enumerated_cases(spec):
    result = verify_grid(spec)
    assert result.case_count == spec.case_count
    assert (result.cases, result.truncated) == oracle_grid(spec)
    assert result.case_count == len(result.cases)


@pytest.mark.parametrize("spec", MEMO_GRIDS)
def test_memoized_reports_match_case_by_case_checks(spec):
    result = verify_grid(spec)
    expected = oracle_reports(spec)
    assert len(result.reports) == len(expected)
    for got, want in zip(result.reports, expected):
        assert got._asdict() == want._asdict()
        assert type(got.satisfied) is bool and type(got.degenerate) is bool
    keys = {(ci.dimension, tuple(d for d in ci.multidegree if d > 1)) for ci in result.cases}
    assert len(keys) < len(result.cases)


def test_every_schur_pairing_of_the_p23_quadric_matches_long_side_bareiss():
    # n = 22: the only key tested here whose Giambelli matrices reach order 4
    ci = CompleteIntersection(23, (2,))
    twisted = oracle.twist(oracle.cotangent(oracle.tangent(23, (2,), ci.dimension)), 2)
    spec = GridSpec(
        max_ambient_dim=23, max_degree_per_factor=2, max_codim=1, checks=("schur-positivity",)
    )
    reports = [r for r in verify_grid(spec).reports if (r.n, r.multidegree) == (22, (2,))]
    shapes = [r.index for r in reports]
    assert shapes == oracle_indices(22)[1:]
    assert len(shapes) == 4507
    durfee = [sum(1 for i, p in enumerate(parts) if p > i) for parts in shapes]
    assert durfee.count(4) == 131 and max(durfee) == 4
    for report in reports:
        pairing = long_side_schur(twisted, report.index) * 2
        assert report.note == f"pairing={pairing}"
        expected = (min(pairing, 0), 0, pairing >= 0)
        assert (report.exact_value, report.bound_value, report.satisfied) == expected


def test_root_series_twist_matches_binomial_twist():
    # Omega(2h) from its Chern roots, per key, against the binomial twist of
    # the cotangent bundle of each case, degree-1 factors and all
    spec = GridSpec(max_ambient_dim=14, max_degree_per_factor=4, max_codim=13, max_cases=10**6)
    cases = oracle_grid(spec)[0]
    assert len(cases) == 8554
    for ci in cases:
        big = tuple(d for d in ci.multidegree if d > 1)
        twisted = _Variety(ci.dimension, big).twisted
        cotangent = oracle.cotangent(oracle.tangent(ci.ambient_dim, ci.multidegree, ci.dimension))
        assert tuple(twisted) == oracle.twist(cotangent, 2)


def test_every_check_contributes(small_grid):
    subjects = {r.subject for r in small_grid.reports}
    # no fourfolds below ambient dimension 5, so no pontryagin reports here
    assert subjects == set(CHECK_NAMES) - {"pontryagin"}


def test_json_output_is_deterministic(small_grid):
    again = verify_grid(small_grid.spec)
    assert small_grid.render("json") == again.render("json")
    payload = json.loads(small_grid.render("json"))
    assert payload["cases"] == len(small_grid.cases)
    assert payload["violations"] == 0
    assert len(payload["reports"]) == len(small_grid.reports)


def test_csv_output_shape(small_grid):
    lines = small_grid.render("csv").splitlines()
    assert lines[0] == "subject,n,d,multidegree,index,exact,bound,satisfied,margin"
    assert len(lines) == len(small_grid.reports) + 1


def test_markdown_output_shape(small_grid):
    lines = small_grid.render("markdown").splitlines()
    assert lines[0].startswith("| subject |")
    assert len(lines) == len(small_grid.reports) + 2


def test_bound_report_is_an_immutable_named_tuple():
    report = BoundReport(
        subject="betti",
        n=2,
        d=3,
        multidegree=(3,),
        index=None,
        exact_value=10,
        bound_value=27,
        satisfied=True,
        margin=17,
    )
    assert report.degenerate is False and report.note == ""
    assert report == ("betti", 2, 3, (3,), None, 10, 27, True, 17, False, "")
    with pytest.raises(AttributeError):
        report.n = 4
    moved = report._replace(n=4, multidegree=(1, 3))
    assert moved == ("betti", 4, 3, (1, 3), None, 10, 27, True, 17, False, "")
    assert report.n == 2
    assert report.witness() == (
        "subject=betti n=2 d=3 multidegree=(3,) index=None exact=10 bound=27 margin=17"
    )


# -- report writers against the stdlib serializers -----------------------------------


def oracle_dict(r):
    return {
        "subject": r.subject,
        "n": r.n,
        "d": r.d,
        "multidegree": None if r.multidegree is None else list(r.multidegree),
        "index": None if r.index is None else list(r.index),
        "exact": r.exact_value,
        "bound": r.bound_value,
        "satisfied": r.satisfied,
        "margin": r.margin,
        "degenerate": r.degenerate,
        "note": r.note,
    }


def oracle_json(spec, case_count, truncated, reports):
    payload = {
        "grid": {
            "max_ambient_dim": spec.max_ambient_dim,
            "max_degree_per_factor": spec.max_degree_per_factor,
            "max_codim": spec.max_codim,
            "checks": list(spec.checks),
            "max_cases": spec.max_cases,
        },
        "cases": case_count,
        "truncated": truncated,
        "violations": sum(not r.satisfied and not r.degenerate for r in reports),
        "reports": [oracle_dict(r) for r in reports],
    }
    return payload, json.dumps(payload, indent=2) + "\n"


def oracle_row(r):
    join = lambda t: "" if t is None else ",".join(map(str, t))
    blank = lambda v: "" if v is None else str(v)
    return [
        r.subject,
        blank(r.n),
        blank(r.d),
        join(r.multidegree),
        join(r.index),
        blank(r.exact_value),
        str(r.bound_value),
        "true" if r.satisfied else "false",
        blank(r.margin),
    ]


@contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


COLUMNS = ["subject", "n", "d", "multidegree", "index", "exact", "bound", "satisfied", "margin"]


def oracle_csv(reports):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(oracle_row(r) for r in reports)
    return buffer.getvalue()


def oracle_markdown(reports):
    lines = ["| " + " | ".join(COLUMNS) + " |", "|" + "---|" * len(COLUMNS)]
    lines += ["| " + " | ".join(oracle_row(r)) + " |" for r in reports]
    return "\n".join(lines) + "\n"


# ints past str()'s default 4,300-digit limit, which take the writers' exact_decimal path
long_ints = st.sampled_from((10**4300, -(10**4300) - 7))
some_int = st.integers(min_value=-(10**30), max_value=10**30) | long_ints
maybe_int = st.none() | some_int
maybe_ints = st.none() | st.lists(
    st.integers(min_value=-(10**12), max_value=10**12) | long_ints, max_size=4
).map(tuple)
# csv.writer quotes on "," '"' and "\n" only, so a subject needs no "\r";
# "%" is literal template text, and "\x00" the writers' first mark
subjects = st.sampled_from(CHECK_NAMES + ("signature",)) | st.text(
    alphabet='ab -,"\n\\%{}\x00', max_size=8
)
notes = st.text(
    alphabet=st.sampled_from('a "\\\n\r\t,%\x00\x7fé€\U0001d11e') | st.characters(), max_size=12
)
# a report without n, d and multidegree, with any values, as a key of the
# writer core holds it
rows_strategy = st.tuples(
    subjects, maybe_ints, maybe_int, some_int, st.booleans(), maybe_int, st.booleans(), notes
)
# "2,3" needs CSV quoting
multidegrees = maybe_ints | st.sampled_from(((2, 3), (1, 1, 2)))


def writer_keys(keys):
    """Keys (n, d, rows) of report rows without n, d and multidegree, as the
    writer core takes them: (n, d, layout, exacts, bounds, satisfied,
    margins, degenerate, notes). Keys given the same rows object share one
    layout object."""
    layouts, out = {}, []
    for n, d, rows in keys:
        subjects, indices, *columns = zip(*rows) if rows else ((),) * 8
        layout = layouts.setdefault(id(rows), (subjects, indices))
        out.append((n, d, layout, *columns))
    return out


def row_reports(keys, labels):
    """The reports of keys (n, d, rows) x labels, one case and one row at a time."""
    return tuple(
        BoundReport(row[0], keys[i][0], keys[i][1], multidegree, *row[1:])
        for i, multidegree in labels
        for row in keys[i][2]
    )


def render_core(keys, labels) -> dict:
    """The writer core's document of keys (n, d, rows) x labels in each format."""
    core = writer_keys(keys)
    rendered = {}
    for fmt in ("json", "csv", "markdown"):
        buffer = io.StringIO()
        _write(buffer, fmt, _cases(labels, core.__getitem__))
        rendered[fmt] = buffer.getvalue()
    return rendered


def oracle_documents(reports) -> dict:
    """What the stdlib gives for the report list alone, in each format."""
    standalone = {"reports": [oracle_dict(r) for r in reports]}
    return {
        "json": json.dumps(standalone, indent=2) + "\n",
        "csv": oracle_csv(reports),
        "markdown": oracle_markdown(reports),
    }


@st.composite
def keyed_rows(draw):
    """(keys, labels) for the writer core: a few keys (n, d, rows) of any
    values, each shared by several cases that carry their own multidegrees."""
    keys = draw(
        st.lists(
            st.tuples(maybe_int, maybe_int, st.lists(rows_strategy, max_size=2).map(tuple)),
            min_size=1,
            max_size=3,
        )
    )
    labels = st.tuples(st.integers(min_value=0, max_value=len(keys) - 1), multidegrees)
    return keys, draw(st.lists(labels, max_size=4))


# a layout row's lower limit; n and d near 1, where the base d+n-2 vanishes
limits = st.none() | st.integers(min_value=-2, max_value=2)
sizes = st.integers(min_value=-1, max_value=3) | some_int


@st.composite
def grid_layouts(draw):
    """(keys, labels) as verify_grid lays a grid out: a few keys (n, d,
    layout, values, bounds, notes) over one or two layouts that keys share,
    each key shared by several cases that carry their own multidegrees."""
    layouts = []
    for size in draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2)):
        column = partial(st.lists, min_size=size, max_size=size)
        columns = draw(st.tuples(*map(column, (subjects, maybe_ints, limits, st.booleans()))))
        # the rows holding Schur pairings: a run of them, maybe empty
        ends = st.lists(st.integers(min_value=0, max_value=size), min_size=2, max_size=2)
        layouts.append((*map(tuple, columns), range(*sorted(draw(ends)))))
    keys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        layout = draw(st.sampled_from(layouts))
        column = partial(st.lists, min_size=len(layout[0]), max_size=len(layout[0]))
        values = draw(st.tuples(column(some_int), column(some_int), column(notes)))
        keys.append((draw(sizes), draw(sizes), layout, *map(tuple, values)))
    labels = st.tuples(st.integers(min_value=0, max_value=len(keys) - 1), multidegrees)
    return keys, draw(st.lists(labels, max_size=4))


def layout_reports(keys, labels):
    """The reports of a grid layout, one case and one row at a time, each
    derived field from its definition."""
    reports = []
    for i, multidegree in labels:
        n, d, (*layout, paired), values, bounds, notes = keys[i]
        rows = zip(count(), *layout, values, bounds, notes)
        for j, subject, index, least, based, exact, bound, note in rows:
            if j in paired:
                # a one-sided Schur row holds its pairing
                exact, note = min(exact, 0), f"pairing={exact}"
            degenerate = based and d + n - 2 == 0
            satisfied = abs(exact) <= bound and (least is None or exact >= least)
            note = DEGENERATE_NOTE if degenerate else note
            reports.append(
                BoundReport(
                    subject, n, d, multidegree, index, exact, bound, satisfied,
                    bound - abs(exact), degenerate, note,
                )
            )
    return tuple(reports)


specs = st.builds(
    GridSpec,
    max_ambient_dim=st.integers(min_value=2, max_value=24),
    max_degree_per_factor=st.integers(min_value=1, max_value=10**20),
    max_codim=st.integers(min_value=1, max_value=30),
    checks=st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True).map(tuple),
    max_cases=st.integers(min_value=0, max_value=10**6),
)


# Without the explain phase: after shrinking, it reruns the failing example
# with each part varied, and pytest formats a traceback for every rerun that
# fails. That took a broken writer 50-100 s to report, shrinking itself 5-13 s.
@settings(phases=tuple(phase for phase in Phase if phase is not Phase.explain))
@given(specs, st.booleans(), grid_layouts())
def test_writers_match_stdlib_serializers(spec, truncated, layout):
    # the reports as verify_grid stores them: keys x labels, one case per label
    keys, labels = map(tuple, layout)
    with unlimited_int_digits():  # a pairing note prints its pairing with str()
        reports = layout_reports(keys, labels)
    result = GridResult(spec, truncated, keys, labels)
    assert result.reports == reports and result.report_count == len(reports)
    assert result.case_count == len(labels)
    violations = tuple(r for r in reports if not r.satisfied and not r.degenerate)
    assert result.violations == violations
    assert result.flagged == tuple(r for r in reports if r.degenerate)
    rendered = {fmt: result.render(fmt) for fmt in ("json", "csv", "markdown")}
    # the signature check's --out file: a document with the report list alone
    buffer = io.StringIO()
    write_json(buffer, reports)
    with unlimited_int_digits():  # the stdlib oracles print every int with str()
        payload, expected = oracle_json(spec, len(labels), truncated, reports)
        assert json.loads(rendered["json"]) == payload
        documents = oracle_documents(reports)
        assert rendered == {**documents, "json": expected}
        assert buffer.getvalue() == documents["json"]


# Without the explain phase, as above.
@settings(phases=tuple(phase for phase in Phase if phase is not Phase.explain))
@given(keyed_rows())
def test_writer_core_renders_any_values(layout):
    # None n, d, exact, margin, index and multidegree, and flags that no
    # derivation gives, as write_json takes them in a report list
    keys, labels = layout
    reports = row_reports(keys, labels)
    rendered = render_core(keys, labels)
    buffer = io.StringIO()
    write_json(buffer, reports)
    with unlimited_int_digits():
        documents = oracle_documents(reports)
        assert rendered == documents
        assert buffer.getvalue() == documents["json"]


def test_writers_keep_layouts_of_one_dimension_apart():
    # keys of dimension 2: the first two have layouts of their own, the rest
    # the first one's, as one object or as an equal copy; "%" and "{}" are
    # literal text, and "\x00", the first mark a layout may take, is
    # part of a subject
    first = (
        ("50% of {n}", (1,), 5, 9, True, 4, False, "p%s"),
        ("euler", None, 0, 0, True, 0, False, ""),
    )
    second = (
        ("a\x00b", (2,), 5, 9, True, 4, False, ""),
        ("eu,ler", (1, 1), 0, 0, False, 0, True, "x"),
    )
    (a, b), huge = first, 10**4999 + 7  # 5,000 digits, past str()'s default limit
    keys = [
        (2, 3, first),
        (2, 3, second),
        # each number that may be None is None in one key
        (2, 3, (a[:2] + (None,) + a[3:], b)),
        (2, 3, (a, b[:5] + (None,) + b[6:])),
        (None, 3, first),
        (2, None, first),
        (2, huge, (a[:2] + (huge, huge) + a[4:], b)),
    ]
    labels = [(0, (3,)), (1, (1, 3)), (0, (1, 1, 3)), (2, None), (3, (2,)), (4, (2,)), (5, ())]
    labels += [(6, (huge,)), (1, (2, 3))]
    rendered = render_core(keys, labels)
    with unlimited_int_digits():
        expected = oracle_documents(row_reports(keys, labels))
    for fmt, text in expected.items():
        assert rendered[fmt] == text, fmt
    assert "a\x00b" in expected["csv"] and "50% of {n}" in expected["markdown"]


def test_writers_on_an_empty_report_list():
    result = GridResult(GridSpec(), False, (), ())
    assert result.render("json") == oracle_json(GridSpec(), 0, False, ())[1]
    assert result.render("json").endswith('  "violations": 0,\n  "reports": []\n}\n')
    assert result.render("csv") == oracle_csv(()) == ",".join(COLUMNS) + "\n"
    assert result.render("markdown") == oracle_markdown(())
    with pytest.raises(ValueError, match="unknown format"):
        result.render("yaml")


def test_long_integers_print_in_full_in_every_format():
    exact = 10**4999 + 7  # 5,000 digits, past str()'s default 4,300-digit limit
    layout = (("betti",), ((exact,),), (None,), (False,), range(0))
    key = 2, exact, layout, (exact,), (3,), ("",)
    result = GridResult(GridSpec(), False, (key,), ((0, (exact, 2)),))
    (report,) = result.reports
    assert report == BoundReport(
        subject="betti",
        n=2,
        d=exact,
        multidegree=(exact, 2),
        index=(exact,),
        exact_value=exact,
        bound_value=3,
        satisfied=False,
        margin=3 - exact,
    )
    digits = "1" + "0" * 4998 + "7"
    margin = "-1" + "0" * 4998 + "4"
    for fmt in ("json", "csv", "markdown"):
        text = result.render(fmt)
        assert text.count(digits) == 4, fmt
        assert margin in text, fmt
    assert report.witness() == (
        f"subject=betti n=2 d={digits} multidegree=({digits}, 2) index=({digits},) "
        f"exact={digits} bound=3 margin={margin}"
    )


def test_a_grid_result_built_from_lists_is_the_one_built_from_tuples():
    big = 10**5000  # 5,001 digits, past str()'s default 4,300-digit limit
    layout = (("betti",), (None,), (None,), (False,), range(0))
    empty = ((),) * 4 + (range(0),)
    for key in ((2, big, empty, (), (), ()), (2, big, layout, (big,), (3,), ("",))):
        listed = GridResult(GridSpec(), False, [key], [(0, (2,))])
        tupled = GridResult(GridSpec(), False, (key,), ((0, (2,)),))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert (listed.keys, listed.labels) == ((key,), ((0, (2,)),))
        assert repr(listed) == repr(tupled)
        assert f"keys=((2, 1{'0' * 5000}, ((" in repr(listed)


def test_bound_report_repr_prints_long_ints_in_full():
    report = BoundReport("betti", 2, 3, (3,), None, 10**4999 + 7, 27, False, -(10**4999))

    def stdlib_repr(r):
        # the named tuple's own format
        return "BoundReport(" + ", ".join(f"{k}={v!r}" for k, v in r._asdict().items()) + ")"

    short = report._replace(exact_value=10, margin=17)
    assert repr(short) == stdlib_repr(short)
    assert repr(short) == (
        "BoundReport(subject='betti', n=2, d=3, multidegree=(3,), index=None, "
        "exact_value=10, bound_value=27, satisfied=False, margin=17, "
        "degenerate=False, note='')"
    )
    text = repr(report)
    assert "exact_value=1" + "0" * 4998 + "7," in text
    assert "margin=-1" + "0" * 4999 + "," in text
    with unlimited_int_digits():
        assert text == stdlib_repr(report)


def test_exact_decimal_under_the_lowest_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for value in (0, -5, 10**639 - 1, 10**639, -(10**639), 10**700 + 1):
            text = exact_decimal(value)
            assert text.removeprefix("-").isdigit()
            assert Decimal(text) == value
    finally:
        sys.set_int_max_str_digits(limit)


def test_default_grid_has_no_violations():
    result = verify_grid(GridSpec())
    assert result.truncated  # the full family exceeds the 500-case cap
    assert len(result.cases) == 500
    assert result.all_satisfied
    subjects = {r.subject for r in result.reports}
    assert subjects == set(CHECK_NAMES)


def test_pontryagin_check_runs_on_fourfolds():
    spec = GridSpec(
        max_ambient_dim=5,
        max_degree_per_factor=3,
        checks=("pontryagin",),
        max_cases=500,
    )
    result = verify_grid(spec)
    reports = [r for r in result.reports if r.subject == "pontryagin"]
    assert reports, "grid contains quadric/cubic fourfolds"
    assert all(r.n % 4 == 0 for r in reports)
    assert all(r.satisfied for r in reports)
    quadric = [r for r in reports if r.d == 2 and r.multidegree == (2,)]
    assert len(quadric) == 1
    assert quadric[0].bound_value == 2**37
