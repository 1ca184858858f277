import csv
import hashlib
import io
import json
import sys
import types
from contextlib import contextmanager, nullcontext
from decimal import Decimal
from functools import partial
from itertools import combinations_with_replacement, count, cycle, groupby, islice, repeat
from json.encoder import encode_basestring_ascii, py_encode_basestring_ascii
from math import comb, prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import charbound.bounds
from charbound.bounds import (
    _CHECKS,
    _Chunk,
    _chunk_keys,
    _columns,
    _layout,
    _row_count,
    _rows,
    CHUNK_KEYS,
    CHUNK_ROWS,
    CHECK_NAMES,
    DEGENERATE_NOTE,
    MAX_AMBIENT_DIM,
    MAX_GRID_CASES,
    BoundReport,
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
    verify_grid,
)
from charbound.chern import DegreeError
from charbound.cli import main
from charbound.report import _json_head, _write
from charbound.varieties import CompleteIntersection, MultiIndex, partitions_of
import chern_oracle as oracle
from determinants import long_side_schur
from grid_run import (
    case_stream,
    document,
    grid_cases,
    json_reports,
    json_run,
    label_cases,
    label_runs,
    one_past_the_quadric_surface,
    with_sequence,
)

ROOT = Path(__file__).resolve().parent.parent


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
    sweep, text = document(spec)
    assert (grid_cases(sweep), sweep.truncated) == (cases, False)
    assert document(spec)[1] == text


def test_enumeration_respects_codim_cap():
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=2, max_codim=1)
    cases = grid_cases(verify_grid(spec))
    assert cases == oracle_grid(spec)[0]
    assert cases and all(ci.codimension == 1 for ci in cases)


def test_enumeration_truncates_with_flag():
    spec = GridSpec(max_ambient_dim=8, max_degree_per_factor=5, max_cases=10)
    sweep = verify_grid(spec)
    assert sweep.truncated
    assert len(grid_cases(sweep)) == 10
    assert (grid_cases(sweep), sweep.truncated) == oracle_grid(spec)


@pytest.mark.parametrize("max_degree", (7, 10**6, 10**20))
@pytest.mark.parametrize("max_cases", (0, 1, 5))
def test_enumeration_under_a_degree_cap_past_the_case_cap(max_degree, max_cases):
    # the cap stops the first block, the plane curves of degree 1, 2, ...; a
    # range(1, 10**20 + 1) of degrees used to raise OverflowError
    spec = GridSpec(max_degree_per_factor=max_degree, max_cases=max_cases)
    curves = tuple(CompleteIntersection(2, (d,)) for d in range(1, max_cases + 1))
    sweep = verify_grid(spec)
    assert (grid_cases(sweep), sweep.truncated) == oracle_grid(spec) == (curves, True)


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
    sweep = verify_grid(spec)
    assert (grid_cases(sweep), sweep.truncated) == (cases, truncated)
    assert spec.case_count == sweep.case_count == len(cases)


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
    sweep, _, reports = json_run(GridSpec(max_cases=0))
    assert reports == []
    assert grid_cases(sweep) == ()
    assert sweep.report_count == 0 and sweep.violations == sweep.flagged == []


def test_a_library_json_run_gives_the_default_json_golden():
    # the one grid entry point writes JSON as it writes CSV, no CLI involved
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    golden = golden["default-json"]
    assert golden["argv"] == "verify --format json"
    _, text = document(GridSpec())
    data = text.encode()
    assert len(data) == golden["bytes"]
    assert hashlib.sha256(data).hexdigest() == golden["sha256"]


# small grids: dimensions up to 6, so Pontryagin rows at n = 4 and the
# degenerate lines (n, d) = (1, 1), cut anywhere
small_specs = st.builds(
    GridSpec,
    max_ambient_dim=st.integers(min_value=2, max_value=7),
    max_degree_per_factor=st.integers(min_value=1, max_value=4),
    max_codim=st.integers(min_value=1, max_value=6),
    checks=st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True).map(tuple),
    max_cases=st.integers(min_value=0, max_value=600),
)


def negated_values():
    """Patches under which every nef-chern number and Schur pairing flips
    sign: nef-chern rows fall below their limit 0, and Schur rows with a
    positive pairing fail with a "pairing=<int>" note."""
    chern_numbers, schur = charbound.bounds._chern_numbers, charbound.bounds.giambelli
    return {
        "_chern_numbers": lambda t, d, multiples: [-x for x in chern_numbers(t, d, multiples)],
        "giambelli": lambda plan, hooks: -schur(plan, hooks),
    }


# Without the explain phase, as below.
@settings(max_examples=50, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(small_specs, st.booleans())
@example(GridSpec(max_ambient_dim=7, max_degree_per_factor=4, max_codim=6, max_cases=600), True)
def test_a_grid_read_case_by_case_gives_what_the_held_grid_gives(spec, negative):
    # a JSON run holds its case stream until the sweep ends and builds the
    # notes as it writes them; CSV and markdown runs render each chunk as it
    # comes, without notes. The sweep tallies each key's exception rows, read
    # with their notes from its chunk's columns
    patched = patch.multiple(charbound.bounds, **negated_values()) if negative else nullcontext()
    with patched:
        runs = {fmt: document(spec, fmt) for fmt in ("json", "csv", "markdown")}
    reports = json_reports(runs["json"][1])
    violations = [r for r in reports if not r.satisfied and not r.degenerate]
    flagged = [r for r in reports if r.degenerate]
    for sweep, _ in runs.values():
        assert (sweep.violations, sweep.flagged) == (violations, flagged)
        assert sweep.report_count == len(reports)
    # the CSV and markdown rows are the JSON document's, row for row
    sweep = runs["json"][0]
    expected = oracle_json(spec, sweep.case_count, sweep.truncated, reports)[1]
    assert runs["json"][1] == expected
    assert runs["csv"][1] == oracle_csv(reports)
    assert runs["markdown"][1] == oracle_markdown(reports)


# the deep-json grid: dimensions 1..8, so Pontryagin rows at n = 4 and 8, and
# the degenerate lines (n, d) = (1, 1)
DEEP = dict(max_ambient_dim=9, max_degree_per_factor=2, max_codim=8, max_cases=10**6)


# -- chunk sizes: a chunk holds CHUNK_ROWS rows' worth of keys, at least
# CHUNK_KEYS of them


def partition_counts(top: int) -> list:
    """p(0), ..., p(top), counted part by part."""
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for weight in range(part, top + 1):
            p[weight] += p[weight - part]
    return p


def layout_rows(names, n: int) -> int:
    """The rows of the layout the checks ``names`` build from a real
    one-key chunk of dimension n."""
    c = _Chunk(n, [(2,)])
    return len(_layout(names, [_CHECKS[name](c) for name in names])[0])


def chunk_cap(names, n: int) -> int:
    """The most keys of one block of dimension n that a chunk holds, from
    the rows the checks build; a rowless key counts as one row."""
    return max(CHUNK_KEYS, CHUNK_ROWS // max(layout_rows(names, n), 1))


def oracle_stream(spec, cap=None) -> list:
    """(key position, case, chunk, last) for each case of oracle_grid(spec),
    worked out from the enumeration alone. Keys (n, degrees above 1) are
    numbered in the order of their first cases. A case is last when no later
    case of the capped grid has its key. A chunk (n, key count) starts at a
    first case and takes the first cases right after it of the same block
    (m, k), at most cap(n) keys: by default _chunk_keys(_row_count(checks,
    n)); every other case has chunk None."""
    cap = cap or (lambda n: _chunk_keys(_row_count(spec.checks, n)))
    cases, _ = oracle_grid(spec)
    keys = [(ci.dimension, tuple(d for d in ci.multidegree if d > 1)) for ci in cases]
    where = {}
    positions = [where.setdefault(key, len(where)) for key in keys]
    later, lasts = set(), []
    for key in reversed(keys):
        lasts.append(key not in later)
        later.add(key)
    chunks, start, known = [None] * len(cases), None, 0
    for j, (ci, i) in enumerate(zip(cases, positions)):
        if i < known:  # a later case ends the run of first cases
            start = None
            continue
        known, n = i + 1, ci.dimension
        block = ci.ambient_dim, ci.codimension
        if start is not None and block == run_block and chunks[start][1] < cap(n):
            chunks[start] = n, chunks[start][1] + 1
        else:
            start, run_block, chunks[j] = j, block, (n, 1)
    return [*zip(positions, cases, chunks, reversed(lasts))]


def oracle_chunks(spec, cap=None) -> list:
    """The chunks (n, key count) of oracle_stream(spec, cap), in order."""
    return [chunk for _, _, chunk, _ in oracle_stream(spec, cap) if chunk]


def spied_chunks(spec) -> list:
    """The (n, key count) of each batch a summary run of ``spec`` derives
    columns for, in order."""
    chunks, columns = [], charbound.bounds._columns

    def spy(batch):
        chunks.append((batch[0], len(batch[1])))
        return columns(batch)

    with patch.object(charbound.bounds, "_columns", spy):
        verify_grid(spec)
    return chunks


def test_the_closed_form_row_count_is_the_rows_the_checks_build():
    p = partition_counts(MAX_AMBIENT_DIM)
    for n in range(1, MAX_AMBIENT_DIM + 1):
        for name in CHECK_NAMES:
            assert _row_count((name,), n) == layout_rows((name,), n), (n, name)
        rows = 2 * n + 2 + 3 * sum(p[: n + 1]) + (0 if n % 4 else p[n // 4])
        assert _row_count(CHECK_NAMES, n) == layout_rows(CHECK_NAMES, n) == rows, n
    # 10, 18, 29, 47 and 69 rows per key up to n = 5, 104 at n = 6
    caps = [_chunk_keys(_row_count(CHECK_NAMES, n)) for n in range(1, 8)]
    assert caps == [204, 113, 70, 43, 29, 24, 24]
    # pontryagin alone gives no row off n = 0 mod 4
    assert [_row_count(("pontryagin",), n) for n in range(1, 9)] == [0, 0, 0, 1, 0, 0, 0, 2]
    assert _chunk_keys(0) == CHUNK_ROWS


@pytest.mark.parametrize(
    "spec, reports",
    [
        (GridSpec(), 10_323),
        (GridSpec(**DEEP), 5_892),
        (GridSpec(max_ambient_dim=5, max_degree_per_factor=14, max_cases=10**6), 46_921),
    ],
    ids=("default", "deep-json", "wide-csv"),
)
def test_the_closed_form_counts_a_grid_s_reports(spec, reports):
    sweep = verify_grid(spec)
    cases = grid_cases(sweep)
    assert sum(_row_count(spec.checks, ci.dimension) for ci in cases) == reports
    assert sweep.report_count == reports


@settings(max_examples=50, deadline=None)
@given(small_specs)
def test_the_closed_form_counts_the_reports_of_any_check_subset(spec):
    sweep = verify_grid(spec)
    rows = sum(_row_count(spec.checks, ci.dimension) for ci in grid_cases(sweep))
    assert rows == sweep.report_count


def test_a_json_run_derives_each_chunk_as_often_as_a_csv_run():
    # every format derives each chunk's columns exactly once, and a key with
    # exception rows reads them from its chunk's columns. A JSON run once
    # derived every chunk again to write it (45 derivations on the default
    # grid), and each exception key once took a derivation of its own
    grids = {
        # the default, deep-json and wide-csv grids, with their chunk counts;
        # at 24 keys a chunk, whatever its rows, they were 22, 36 and 130
        18: GridSpec(),
        36: GridSpec(**DEEP),
        25: GridSpec(max_ambient_dim=5, max_degree_per_factor=14, max_cases=10**6),
    }
    for chunks, spec in grids.items():
        for fmt in ("json", "csv", None):
            with patch.object(charbound.bounds, "_columns", wraps=_columns) as spy:
                verify_grid(spec, io.StringIO(), fmt) if fmt else verify_grid(spec)
            assert spy.call_count == chunks, (spec, fmt)
        # a chunk is a run of first cases of one block, as many as its cap allows
        assert len(oracle_chunks(spec)) == chunks, spec


def test_blocks_from_dimension_6_on_are_chunked_by_keys_alone():
    # m<=24 D<=4: 17,549 keys. From n = 6 on a key has 104 rows or more
    # under all nine checks, so CHUNK_ROWS allows fewer than CHUNK_KEYS keys
    # and the chunks are those of CHUNK_KEYS alone; a row budget with no key
    # floor cut them smaller and ran the frontier grids some 5% slower
    spec = GridSpec(max_ambient_dim=24, max_degree_per_factor=4, max_codim=23, max_cases=10**6)
    plan = spied_chunks(spec)
    assert plan == oracle_chunks(spec)
    assert sum(keys for _, keys in plan) == 17_549
    by_keys = oracle_chunks(spec, lambda n: CHUNK_KEYS)
    high = [chunk for chunk in plan if chunk[0] >= 6]
    assert high == [chunk for chunk in by_keys if chunk[0] >= 6]
    assert (6, CHUNK_KEYS) in high
    # and the lower blocks take more keys a chunk
    assert max(keys for n, keys in plan if n < 6) > CHUNK_KEYS


# the pontryagin-only CSV of 125 reports of 1,708 cases, as chunks of at
# most CHUNK_KEYS keys wrote it
PONTRYAGIN_CSV_SHA256 = "c15f14934c08235bdcfdf9e568a57b401bb5f368b7203b628788bfc12c7de2f2"


def test_rowless_keys_run_in_chunks_of_chunk_rows_keys(capsys):
    # pontryagin alone gives rows only at n = 4 on this grid (n = 1..7), one
    # a key: every other key is rowless and counts as one row, so every
    # block is a chunk of its own, up to 120 keys
    argv = "verify --max-ambient-dim 8 --max-degree 5 --max-codim 7 --max-cases 1000000"
    spec = GridSpec(
        max_ambient_dim=8, max_degree_per_factor=5, max_codim=7, checks=("pontryagin",),
        max_cases=10**6,
    )
    plan = spied_chunks(spec)
    assert plan == oracle_chunks(spec, partial(chunk_cap, spec.checks))
    assert {n for n, _ in plan} == {*range(1, 8)}
    assert {chunk_cap(spec.checks, n) for n in range(1, 8)} == {CHUNK_ROWS}
    # one chunk for each block that holds first cases
    firsts = oracle_stream(spec)
    blocks = {(ci.ambient_dim, ci.codimension) for _, ci, chunk, _ in firsts if chunk}
    assert len(plan) == len(blocks) and max(keys for _, keys in plan) == 120
    assert main([*argv.split(), "--checks", "pontryagin", "--format", "csv"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PONTRYAGIN_CSV_SHA256
    sweep = verify_grid(spec)
    assert sweep.report_count == sum(ci.dimension == 4 for ci in grid_cases(sweep)) == 125


# grids the case cap cuts anywhere, up to the top ambient dimension, and
# degrees up to 10**20 that the cap cuts in the first block
capped_specs = st.builds(
    GridSpec,
    max_ambient_dim=st.integers(min_value=2, max_value=MAX_AMBIENT_DIM),
    max_degree_per_factor=st.integers(min_value=1, max_value=5) | st.just(10**20),
    max_codim=st.integers(min_value=1, max_value=30) | st.just(10**18),
    checks=st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True).map(tuple),
    max_cases=st.integers(min_value=0, max_value=400),
)


@settings(max_examples=60, deadline=None)
@given(small_specs | capped_specs)
# (2,) in P^2, case 1, has its next case (1, 2) in P^3 at case 5, the cap
@example(GridSpec(max_ambient_dim=4, max_degree_per_factor=2, max_cases=5))
# (1, 2) in P^5, case 35, has its next case (1, 1, 2) in P^6 at case 60, the cap
@example(GridSpec(max_ambient_dim=7, max_degree_per_factor=3, max_codim=3, max_cases=60))
def test_the_case_stream_s_last_flags_and_chunks_are_the_enumeration_s(spec):
    # a case is last where no later case of the capped grid has its key, and
    # a batch comes at the first case of each chunk the enumeration plans;
    # a sweep that held a key past its last case would print the same bytes
    assert case_stream(spec) == oracle_stream(spec)


def test_grid_spec_json_roundtrip():
    spec = GridSpec(max_ambient_dim=5, checks=("betti", "euler"), max_cases=20)
    assert GridSpec.from_dict(json.loads(document(spec)[1])["grid"]) == spec
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


SMALL = GridSpec(max_ambient_dim=4, max_degree_per_factor=3, max_cases=100)


@pytest.fixture(scope="module")
def small_grid():
    return json_run(SMALL)


def test_small_grid_has_no_violations(small_grid):
    assert small_grid.sweep.violations == []
    assert small_grid.sweep.flagged == [r for r in small_grid.reports if r.degenerate]


def test_small_grid_flags_only_degenerate_lines(small_grid):
    for report in small_grid.sweep.flagged:
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


def test_the_degree_sequence_is_d_times_powers_of_the_multidegree_sum():
    # K and h are multiples of h, so h^(n-i) A^i = d a^i with
    # a = sum_j (d_j - 1) + 1, read off the multidegree with no series; its
    # bound d^(i+1) is met for i >= 1 exactly where a = d, which is where at
    # most one factor has degree above 1: hypersurfaces and P^n
    spec = GridSpec(max_ambient_dim=12, max_degree_per_factor=4, max_codim=11, max_cases=10**6)
    cases = grid_cases(verify_grid(spec))
    assert len(cases) == 4356
    for ci in cases:
        n, degrees = ci.dimension, ci.multidegree
        d, a = prod(degrees), sum(degrees) - len(degrees) + 1
        c = _Chunk(n, [degrees])
        assert c.sequence == [[d * a**i for i in range(n + 1)]], ci
        (sequence,), (bounds,) = c.sequence, c.degree_powers
        tight = [value == bound for value, bound in zip(sequence[1:], bounds[1:])]
        assert tight == [sum(x > 1 for x in degrees) <= 1] * n, ci


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
    sweep, _, reports = json_run(spec)
    plain = [r for r in reports if not r.degenerate]
    assert plain
    assert all(r.exact_value == -1 and r.margin >= 0 for r in plain)
    assert not any(r.satisfied for r in plain)
    assert sweep.violations == plain


def test_degree_sequence_lower_limit_can_fail(monkeypatch):
    monkeypatch.setattr(
        "charbound.bounds._Chunk", with_sequence(lambda n, d, sequence: (0,) * (n + 1))
    )
    spec = GridSpec(max_ambient_dim=4, max_degree_per_factor=3, checks=("degree-sequence",))
    sweep, _, reports = json_run(spec)
    assert reports
    assert not any(r.satisfied for r in reports)
    assert sweep.violations == reports


def test_schur_work_runs_only_when_schur_positivity_is_selected(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("computed the dual sequence without schur-positivity")

    monkeypatch.setattr("charbound.bounds.twist_duals", refuse)
    others = ",".join(name for name in CHECK_NAMES if name != "schur-positivity")
    assert main(["verify", "--checks", others]) == 0
    assert "violations=0" in capsys.readouterr().out
    # the patch bites where schur-positivity runs
    with pytest.raises(AssertionError, match="without schur-positivity"):
        verify_grid(GridSpec(max_ambient_dim=3, checks=("schur-positivity",)))


def spied_run(spec) -> tuple:
    """(a JSON run of ``spec``, the (n, layout, key count) of each batch
    whose columns it derives)."""
    batches, columns = [], charbound.bounds._columns

    def spy(batch):
        batches.append((batch[0], batch[2], len(batch[1])))
        return columns(batch)

    with patch.object(charbound.bounds, "_columns", spy):
        return json_run(spec), batches


@pytest.fixture(scope="module")
def deep_grid():
    return spied_run(GridSpec(**DEEP))


def test_the_deep_grid_reaches_pontryagin_and_degenerate_rows(deep_grid):
    grid, _ = deep_grid
    pontryagin = {r.n for r in grid.reports if r.subject == "pontryagin"}
    assert pontryagin == {4, 8}
    assert {(r.n, r.d) for r in grid.sweep.flagged} == {(1, 1)}


# The line P^1, (n, d) = (1, 1), by hand. Its tangent bundle is O(2), so its
# cotangent bundle O(-2) has c_1 of degree -2, and its nef twist by O(2) is
# trivial, with c_1 of degree 0. The bound base d + n - 2 is 0, so both
# bounds, d (d+n-2) and 2 d (d+n-2), are 0: (subject, index) -> (exact,
# bound, satisfied, margin)
LINE_ROWS = {
    ("nef-chern", (1,)): (0, 0, True, 0),
    ("cotangent-chern", (1,)): (-2, 0, False, -2),
}


@pytest.mark.parametrize(
    "spec, flagged", [(GridSpec(), 10), (GridSpec(**DEEP), 16)], ids=("default", "deep-json")
)
def test_the_flagged_rows_are_the_hand_values_of_the_line(spec, flagged):
    # the rows whose bound base vanishes: every line case of the grid gives
    # the table's rows, and no other row is flagged
    sweep, _, reports = json_run(spec)
    line = {(1, 1, *row) for row in LINE_ROWS}
    rows = [r for r in reports if (r.n, r.d, r.subject, r.index) in line]
    assert [r for r in reports if r.degenerate] == rows == sweep.flagged
    assert len(rows) == flagged
    for r in rows:
        assert set(r.multidegree) == {1} and r.note == DEGENERATE_NOTE
        assert (r.exact_value, r.bound_value, r.satisfied, r.margin) == LINE_ROWS[r.subject, r.index]
    lines = {r.multidegree for r in rows}
    assert [(r.subject, r.index) for r in rows] == [*LINE_ROWS] * len(lines)
    assert verify_grid(spec, io.StringIO(), "csv").flagged == rows


def row_limits(layout) -> list:
    """Each row's lower limit, or None, from a layout's (start, stop, least)
    runs."""
    subjects, _, limits, *_ = layout
    least = [None] * len(subjects)
    for start, stop, limit in limits:
        least[start:stop] = [limit] * (stop - start)
    return least


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_a_check_alone_gives_its_rows_of_the_full_run(deep_grid, name):
    full, full_batches = deep_grid
    alone, alone_batches = spied_run(GridSpec(**DEEP, checks=(name,)))
    assert grid_cases(alone.sweep) == grid_cases(full.sweep)
    assert alone.reports == [r for r in full.reports if r.subject == name]
    # every layout holds each check's rows as one run, in check order
    for _, layout, _ in full_batches:
        assert len(layout) == 4
        subjects = layout[0]
        assert [name for name, _ in groupby(subjects)] == [c for c in CHECK_NAMES if c in subjects]
    # every key of one dimension holds the same layout object
    for batches in (alone_batches, full_batches):
        layouts = {}
        for n, layout, _ in batches:
            assert layouts.setdefault(n, layout) is layout


def test_upper_limit_fails_by_one_on_every_case_of_a_key(monkeypatch, tmp_path, capsys):
    # the quadric surface key, (n, d) = (2, 2), gets degree sequence values
    # one past their bounds d^(i+1); every other key keeps its own
    monkeypatch.setattr("charbound.bounds._Chunk", with_sequence(one_past_the_quadric_surface))
    spec = GridSpec(max_ambient_dim=5, max_degree_per_factor=3, checks=("degree-sequence",))
    sweep, _, found = json_run(spec)
    cases = grid_cases(sweep)
    # P^3 (2), P^4 (1,2) and P^5 (1,1,2): three cases share the key
    quadrics = [ci.multidegree for ci in cases if (ci.dimension, ci.degree) == (2, 2)]
    assert quadrics == [(2,), (1, 2), (1, 1, 2)]
    expected = [
        BoundReport("degree-sequence", 2, 2, degs, (i,), 2 ** (i + 1) + 1, 2 ** (i + 1), False, -1)
        for degs in quadrics
        for i in range(3)
    ]
    assert sweep.violations == expected
    assert sweep.flagged == []
    assert all(r.satisfied for r in found if (r.n, r.d) != (2, 2))
    # degree-sequence has n + 1 rows per case
    reports = sum(ci.dimension + 1 for ci in cases)
    assert reports == len(found) == sweep.report_count
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
# charbound.chern, whose Chern and Betti values it checks.

ORACLE_LEAST = {"degree-sequence": 1, "nef-chern": 0}
ORACLE_HAS_BASE = {"nef-chern", "cotangent-chern", "pontryagin"}


def oracle_indices(n):
    return [()] + [parts for total in range(1, n + 1) for parts in partitions_of(total)]


def sectioned_betti_bound(ci):
    n, d = ci.dimension, ci.degree
    if n == 1:
        return curve_betti_bound(d)
    section = CompleteIntersection(ci.ambient_dim - 1, ci.multidegree)
    return 4 * sectioned_betti_bound(section) + 2 * 2 ** (n * n) * d ** (n + 1)


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
    assert not {n: h for n, h in homes.items() if h == "charbound.chern"}


def oracle_case_reports(ci, checks):
    """The reports of one case, each derived field from its definition."""
    n, d, out = ci.dimension, ci.degree, []
    for check in checks:
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


def oracle_reports(spec):
    return [r for ci in oracle_grid(spec)[0] for r in oracle_case_reports(ci, spec.checks)]


MEMO_GRIDS = (
    # 120 of 156 cases have a degree-1 factor
    GridSpec(max_ambient_dim=9, max_degree_per_factor=2, max_codim=8, max_cases=10**6),
    GridSpec(max_ambient_dim=6, max_degree_per_factor=3, max_codim=5, max_cases=10**6),
    # reaches dimension 11, where Giambelli matrices have order 3
    GridSpec(max_ambient_dim=12, max_degree_per_factor=3, max_codim=2, max_cases=10**6),
)


@pytest.mark.parametrize("spec", MEMO_GRIDS)
def test_grid_cases_built_from_labels_are_the_enumerated_cases(spec):
    sweep = verify_grid(spec)
    assert sweep.case_count == spec.case_count
    assert (grid_cases(sweep), sweep.truncated) == oracle_grid(spec)
    assert sweep.case_count == len(grid_cases(sweep))


@pytest.mark.parametrize("spec", MEMO_GRIDS)
def test_memoized_reports_match_case_by_case_checks(spec):
    sweep, _, reports = json_run(spec)
    expected = oracle_reports(spec)
    assert len(reports) == len(expected) == sweep.report_count
    for got, want in zip(reports, expected):
        assert got._asdict() == want._asdict()
        assert type(got.satisfied) is bool and type(got.degenerate) is bool
    cases = grid_cases(sweep)
    keys = {(ci.dimension, tuple(d for d in ci.multidegree if d > 1)) for ci in cases}
    assert len(keys) < len(cases)


# -- the block kernel: chunks of one block against the oracle --------------------
# The new keys whose first case has ambient dimension m and codimension k
# form a block: every k-multiset of degrees >= 2, all of dimension m - k.
# The sweep computes a block a chunk at a time, chunk_cap(CHECK_NAMES, n)
# keys at most: 204 curves, 113 surfaces, down to CHUNK_KEYS from n = 6 on.


def block_grid(n, size):
    """(spec, block degree): a grid whose last block, the complete
    intersections of two factors of degree 2..D of dimension n, first met
    in P^(n+2), the case cap cuts to its first ``size`` keys."""
    # the 2-multisets of top - 1 degrees, one more than a chunk at least
    top = next(top for top in count(3) if comb(top, 2) > chunk_cap(CHECK_NAMES, n))
    grid = dict(max_ambient_dim=n + 2, max_degree_per_factor=top, max_codim=2)
    # the block's keys are the last cases of the uncapped grid
    whole = GridSpec(**grid, max_cases=10**6).case_count
    return GridSpec(**grid, max_cases=whole - comb(top, 2) + size), top


@pytest.mark.parametrize("n", range(1, 9))
def test_a_block_chunk_by_chunk_matches_the_case_by_case_oracle(n):
    # chunks of 1, cap - 1 and cap keys, and of cap + 1 keys, which the
    # sweep splits in two, each the last block of its grid
    expected, cap = {}, chunk_cap(CHECK_NAMES, n)
    for size in (1, cap - 1, cap, cap + 1):
        spec, top = block_grid(n, size)
        (sweep, _, reports), batches = spied_run(spec)
        # the block's chunks are the last batches the run derived
        chunks = [(n, size)] if size <= cap else [(n, cap), (n, 1)]
        assert [(m, keys) for m, _, keys in batches[-len(chunks) :]] == chunks
        stream = case_stream(spec)
        block = [ci for _, ci, _, _ in stream[-size:]]
        assert sweep.truncated and len(block) == size
        assert {(ci.dimension, ci.codimension) for ci in block} == {(n, 2)}
        assert all(2 <= min(ci.multidegree) <= max(ci.multidegree) <= top for ci in block)
        # the block's cases are the first cases of keys of their own
        keys = max(i for i, _, _, _ in stream) + 1
        assert [i for i, _, _, _ in stream[-size:]] == [*range(keys - size, keys)]
        want = []
        for ci in block:
            if ci.multidegree not in expected:
                expected[ci.multidegree] = oracle_case_reports(ci, CHECK_NAMES)
            want += expected[ci.multidegree]
        assert reports[-len(want) :] == want
        assert sweep.violations == []
        csv_sweep, text = document(spec, "csv")
        assert text == oracle_csv(reports)
        assert (csv_sweep.violations, csv_sweep.flagged) == (sweep.violations, sweep.flagged)


def test_a_seam_failing_one_key_mid_chunk_fails_that_key_alone(monkeypatch):
    # the wide-csv grid; the surface cut by (3, 5) in P^4 is a key of the
    # 91-key block of P^4 with two factors, in the middle of its chunk; its
    # Schur pairings are negated, so each positive one fails with its own
    # note, at both of its cases: (3, 5) in P^4 and (1, 3, 5) in P^5
    spec = GridSpec(max_ambient_dim=5, max_degree_per_factor=14, max_cases=10**6)
    clean = json_run(spec)
    block, cap = [*combinations_with_replacement(range(2, 15), 2)], chunk_cap(CHECK_NAMES, 2)
    assert 0 < block.index((3, 5)) % cap < min(cap, len(block)) - 1
    twisted = _Chunk(2, [(3, 5)]).twisted[0]
    hooks = charbound.bounds.hook_classes(twisted, oracle.dual_sequence(twisted))
    schur = charbound.bounds.giambelli
    monkeypatch.setattr(
        "charbound.bounds.giambelli",
        lambda plan, found: -schur(plan, found) if found == hooks else schur(plan, found),
    )
    expected = []
    for r in clean.reports:
        if (r.n, r.d, r.subject) == (2, 15, "schur-positivity"):
            pairing = -int(r.note.removeprefix("pairing="))
            if pairing < 0:
                failed = dict(exact_value=pairing, satisfied=False, margin=pairing)
                expected.append(r._replace(**failed, note=f"pairing={pairing}"))
    assert {r.multidegree for r in expected} == {(3, 5), (1, 3, 5)}
    result = json_run(spec)
    assert result.sweep.violations == expected
    assert result.sweep.flagged == clean.sweep.flagged
    oracles = {"csv": oracle_csv, "markdown": oracle_markdown}
    for fmt, oracle_document in oracles.items():
        sweep, text = document(spec, fmt)
        assert (sweep.violations, sweep.flagged) == (expected, clean.sweep.flagged)
        assert text == oracle_document(result.reports)
    # every other row is as it was
    assert [b for a, b in zip(clean.reports, result.reports) if a != b] == expected


def test_a_failing_euler_row_keeps_its_own_note(monkeypatch):
    # chi and the alternating Betti sum agree by construction; a middle Betti
    # number one too large fails the euler row of each surface with chi = 8,
    # with a note that gives both sides
    spec = GridSpec(max_ambient_dim=5, max_degree_per_factor=4, max_cases=10**6)
    clean = json_run(spec)
    middle_betti = charbound.chern.middle_betti

    def one_more(n, chis):
        return [b + ((n, chi) == (2, 8)) for b, chi in zip(middle_betti(n, chis), chis)]

    monkeypatch.setattr("charbound.chern.middle_betti", one_more)
    expected = [
        r._replace(exact_value=-1, satisfied=False, margin=-1, note="chi=8 alternating_betti=9")
        for r in clean.reports
        if r.subject == "euler" and r.n == 2 and r.note.startswith("chi=8 ")
    ]
    assert len({r.multidegree for r in expected}) > 1
    assert verify_grid(spec).violations == expected
    assert verify_grid(spec, io.StringIO(), "csv").violations == expected
    assert json_run(spec).sweep.violations == expected


def test_every_schur_pairing_of_the_p23_quadric_matches_long_side_bareiss():
    # n = 22: the only key tested here whose Giambelli matrices reach order 4
    ci = CompleteIntersection(23, (2,))
    twisted = oracle.twist(oracle.cotangent(oracle.tangent(23, (2,), ci.dimension)), 2)
    spec = GridSpec(
        max_ambient_dim=23, max_degree_per_factor=2, max_codim=1, checks=("schur-positivity",)
    )
    reports = [r for r in json_run(spec).reports if (r.n, r.multidegree) == (22, (2,))]
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
        twisted = _Chunk(ci.dimension, [big]).twisted[0]
        cotangent = oracle.cotangent(oracle.tangent(ci.ambient_dim, ci.multidegree, ci.dimension))
        assert tuple(twisted) == oracle.twist(cotangent, 2)


def test_every_check_contributes(small_grid):
    subjects = {r.subject for r in small_grid.reports}
    # no fourfolds below ambient dimension 5, so no pontryagin reports here
    assert subjects == set(CHECK_NAMES) - {"pontryagin"}


def test_json_output_is_deterministic(small_grid):
    assert document(SMALL)[1] == small_grid.document
    payload = json.loads(small_grid.document)
    assert payload["cases"] == len(grid_cases(small_grid.sweep))
    assert payload["violations"] == 0
    assert len(payload["reports"]) == len(small_grid.reports)


def test_csv_output_shape(small_grid):
    lines = document(SMALL, "csv")[1].splitlines()
    assert lines[0] == "subject,n,d,multidegree,index,exact,bound,satisfied,margin"
    assert len(lines) == len(small_grid.reports) + 1


def test_markdown_output_shape(small_grid):
    lines = document(SMALL, "markdown")[1].splitlines()
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


def rows_strategy(numbers):
    """A report without n, d and multidegree, with any values, its exact
    value and margin drawn from ``numbers``."""
    return st.tuples(
        subjects, maybe_ints, numbers, some_int, st.booleans(), numbers, st.booleans(), notes
    )

# "2,3" needs CSV quoting
multidegrees = maybe_ints | st.sampled_from(((2, 3), (1, 1, 2)))


def writer_keys(keys):
    """Keys (n, d, rows) of report rows without n, d and multidegree, each
    as the writer core takes a batch of one key: (n, (d,), layout, (exacts,),
    (bounds,), (satisfied,), (margins,), (degenerate,), notes, clean),
    notes(0) the key's notes and clean False. Keys given the same rows
    object share one layout object."""
    layouts, out = {}, []
    for n, d, rows in keys:
        subjects, indices, *columns, notes = zip(*rows) if rows else ((),) * 8
        layout = layouts.setdefault(id(rows), (subjects, indices))
        out.append((n, (d,), layout, *zip(columns), (notes,).__getitem__, False))
    return out


def report_list_json(reports) -> str:
    """The writer core's JSON document of a report list, head "": one
    one-key batch of one row per report."""
    keys = writer_keys([(r.n, r.d, ((r.subject, *r[4:]),)) for r in reports])
    buffer = io.StringIO()
    _write(buffer, "json", zip(count(), (r.multidegree for r in reports), keys, repeat(True)))
    return buffer.getvalue()


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
        _write(buffer, fmt, label_cases(labels, core.__getitem__))
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
def keyed_rows(draw, numbers):
    """(keys, labels) for the writer core: a few keys (n, d, rows) of any
    values, n, d, exact values and margins drawn from ``numbers``, each key
    shared by several cases that carry their own multidegrees."""
    rows = st.lists(rows_strategy(numbers), max_size=2).map(tuple)
    keys = draw(st.lists(st.tuples(numbers, numbers, rows), min_size=1, max_size=3))
    labels = st.tuples(st.integers(min_value=0, max_value=len(keys) - 1), multidegrees)
    return keys, draw(st.lists(labels, max_size=4))


# a layout row's lower limit; n and d near 1, where the base d+n-2 vanishes
limits = st.none() | st.integers(min_value=-2, max_value=2)
sizes = st.integers(min_value=-1, max_value=3) | some_int


@st.composite
def grid_layouts(draw):
    """(keys, labels) as a sweep lays a grid out: a few keys (n, d,
    layout, values, bounds, notes) over one or two layouts that keys share,
    each key shared by several cases that carry their own multidegrees."""
    layouts = []
    for size in draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2)):
        column = partial(st.lists, min_size=size, max_size=size)
        rows, indices, least, based = draw(
            st.tuples(*map(column, (subjects, maybe_ints, limits, st.booleans())))
        )
        # each run of rows with one lower limit, as (start, stop, least)
        runs, start = [], 0
        for limit, run in groupby(least):
            stop = start + len(list(run))
            if limit is not None:
                runs.append((start, stop, limit))
            start = stop
        layouts.append((tuple(rows), tuple(indices), tuple(runs), tuple(based)))
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
        n, d, layout, values, bounds, notes = keys[i]
        subjects, indices, _, based = layout
        rows = zip(subjects, indices, row_limits(layout), based, values, bounds, notes)
        for subject, index, least, based, exact, bound, note in rows:
            degenerate = based and d + n - 2 == 0
            satisfied = abs(exact) <= bound and (least is None or exact >= least)
            note = DEGENERATE_NOTE if degenerate else note
            reports.append(
                BoundReport(
                    subject, n, d, multidegree, index, exact, bound, satisfied,
                    bound - abs(exact), degenerate, note,
                )
            )
    return reports


def key_columns(n, d, layout, values, bounds, notes) -> tuple:
    """The derived columns of a batch of one grid key (see bounds._columns)."""
    return _columns((n, (d,), layout, (values,), (bounds,), (notes,).__getitem__))


def layout_cases(keys, labels):
    """The case stream of a grid layout, as a sweep gives it: the columns of
    each run of keys of one n and one layout object, derived at the run's
    first case (see grid_run.label_runs and bounds._columns), each run's
    notes the function of a key's place in it."""
    blocks = [(n, id(layout)) for n, _, layout, *_ in keys]
    sizes = {(n, id(layout)): _chunk_keys(len(layout[0])) for n, _, layout, *_ in keys}
    runs = label_runs(labels, blocks, sizes)

    def columns(i):
        run = runs.get(i)
        if run is None:
            return None
        ns, ds, layouts, values, bounds, notes = zip(*keys[run])
        return _columns((ns[0], ds, layouts[0], values, bounds, notes.__getitem__))

    return label_cases(labels, columns)


def render_layout(keys, labels, head: str = "") -> dict:
    """A grid layout's document in each format, ``head`` before a JSON
    document's reports; only JSON calls the notes."""
    rendered = {}
    for fmt in ("json", "csv", "markdown"):
        buffer = io.StringIO()
        _write(buffer, fmt, layout_cases(keys, labels), head if fmt == "json" else "")
        rendered[fmt] = buffer.getvalue()
    return rendered


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
# a nef-chern row whose margin is 4 but whose exact value -1 fails the lower
# limit 0: no margin is negative, yet the batch is not clean
@example(
    GridSpec(),
    False,
    (
        [(2, 3, (("nef-chern",), ((1, 1),), ((0, 1, 0),), (True,)), (-1,), (5,), ("",))],
        [(0, (3,))],
    ),
)
def test_writers_match_stdlib_serializers(spec, truncated, layout):
    # the reports of a grid layout: keys x labels, one case per label
    keys, labels = layout
    reports = layout_reports(keys, labels)
    violations = [r for r in reports if not r.satisfied and not r.degenerate]
    # each case's unsatisfied or degenerate rows, as a sweep tallies them
    # from its key's derived columns
    exceptions = [
        BoundReport(row[0], keys[i][0], keys[i][1], multidegree, *row[1:])
        for i, multidegree in labels
        for row in _rows(key_columns(*keys[i]), 0)
        if row[6] or not row[4]
    ]
    assert exceptions == [r for r in reports if r.degenerate or not r.satisfied]
    rendered = render_layout(keys, labels, _json_head(spec, len(labels), truncated, len(violations)))
    # a document with the report list alone
    listed = report_list_json(reports)
    with unlimited_int_digits():  # the stdlib oracles print every int with str()
        payload, expected = oracle_json(spec, len(labels), truncated, reports)
        assert json.loads(rendered["json"]) == payload
        documents = oracle_documents(reports)
        assert rendered == {**documents, "json": expected}
        assert listed == documents["json"]
    assert json_reports(rendered["json"]) == reports


# Without the explain phase, as above.
@settings(phases=tuple(phase for phase in Phase if phase is not Phase.explain))
@given(keyed_rows(some_int), keyed_rows(some_int))
def test_writer_core_renders_any_values(layout, listed):
    # any ints, long ones too, None index and multidegree, and flags that no
    # derivation gives, in a grid's keys and in a report list alike
    keys, labels = layout
    reports = row_reports(keys, labels)
    rendered = render_core(keys, labels)
    listed = row_reports(*listed)
    text = report_list_json(listed)
    with unlimited_int_digits():
        assert rendered == oracle_documents(reports)
        assert text == oracle_documents(listed)["json"]


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
        # each number differs from the first key's in one key
        (2, 3, (a[:2] + (-6,) + a[3:], b)),
        (2, 3, (a, b[:5] + (-8,) + b[6:])),
        (7, 3, first),
        (2, 0, first),
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


@given(st.text())
@example('say "hi" \\ to a\\b')
@example("".join(map(chr, range(32))) + "\x7f")
@example("Poincar\u00e9 \u03bb \u20ac \u00ff\u0100")
@example("\U0001d11e \U0001f600 \U0010ffff")
@example("lone \ud800 and \udfff surrogates")
def test_json_strings_are_quoted_as_the_json_package_quotes_them(text):
    # the writer quotes with _json's C function, not through the json package
    report = BoundReport(text, 1, 1, (1,), None, 0, 0, True, 0, False, text)
    rendered = report_list_json([report])
    quoted = encode_basestring_ascii(text)
    assert quoted == py_encode_basestring_ascii(text)
    assert f'"subject": {quoted},\n' in rendered
    assert f'"note": {quoted}\n' in rendered
    assert rendered == json.dumps({"reports": [oracle_dict(report)]}, indent=2) + "\n"


def test_writers_on_an_empty_report_list():
    spec = GridSpec(max_cases=0)
    rendered = {fmt: document(spec, fmt)[1] for fmt in ("json", "csv", "markdown")}
    assert rendered["json"] == oracle_json(spec, 0, True, ())[1]
    assert rendered["json"].endswith('  "violations": 0,\n  "reports": []\n}\n')
    assert rendered["csv"] == oracle_csv(()) == ",".join(COLUMNS) + "\n"
    assert rendered["markdown"] == oracle_markdown(())
    stream = io.StringIO()
    with pytest.raises(ValueError, match="unknown format"):
        verify_grid(spec, stream, "yaml")
    assert stream.getvalue() == ""


def test_long_integers_print_in_full_in_every_format():
    exact = 10**4999 + 7  # 5,000 digits, past str()'s default 4,300-digit limit
    layout = (("betti",), ((exact,),), (), (False,))
    key = 2, exact, layout, (exact,), (3,), ("",)
    rendered = render_layout([key], [(0, (exact, 2))])
    (report,) = json_reports(rendered["json"])
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
    for fmt, text in rendered.items():
        assert text.count(digits) == 4, fmt
        assert margin in text, fmt
    assert report.witness() == (
        f"subject=betti n=2 d={digits} multidegree=({digits}, 2) index=({digits},) "
        f"exact={digits} bound=3 margin={margin}"
    )


def test_a_clean_key_prints_a_long_degree_in_full_in_every_format():
    # d is rendered once per key beside the multidegree, not by the row
    # template, so a clean key's short values still fill the template with %
    d = 10**4999 + 7  # 5,000 digits, past str()'s default 4,300-digit limit
    layout = (("betti", "euler"), (None, (1,)), (), (True, False))
    key = 2, d, layout, (1, -2), (3, 2), ("", "x")
    assert key_columns(*key)[-1]  # every row satisfied, none degenerate
    labels = [(0, (d,)), (0, (d, 1))]
    rendered = render_layout([key], labels)
    with unlimited_int_digits():
        assert rendered == oracle_documents(layout_reports([key], labels))
    digits = "1" + "0" * 4998 + "7"
    for fmt, text in rendered.items():
        assert text.count(digits) == 8, fmt  # d and the multidegree, in 4 rows


def test_schur_notes_print_long_pairings_in_full(monkeypatch):
    # a pairing past str()'s 4,300-digit limit: the Schur note function
    # falls back to exact_decimal. The pairings alternate in sign, so a chunk
    # holds shortfalls beside zeros
    huge = 10**5000
    spec = GridSpec(max_ambient_dim=3, checks=("schur-positivity",))
    runs = {}
    for fmt in ("json", "csv"):
        signs = cycle((huge, -huge))
        monkeypatch.setattr("charbound.bounds.giambelli", lambda plan, hooks: next(signs))
        runs[fmt] = document(spec, fmt)
    reports = json_reports(runs["json"][1])
    with unlimited_int_digits():
        pairings = [int(r.note.removeprefix("pairing=")) for r in reports]
        assert [r.note for r in reports] == [f"pairing={p}" for p in pairings]
    assert sorted({p // r.d for p, r in zip(pairings, reports)}) == [-huge, huge]
    assert [r.exact_value for r in reports] == [min(p, 0) for p in pairings]
    violations = [r for r in reports if r.exact_value < 0]
    assert violations
    for sweep, _ in runs.values():
        assert sweep.violations == violations


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
    sweep, _, reports = json_run(GridSpec())
    assert sweep.truncated  # the full family exceeds the 500-case cap
    assert len(grid_cases(sweep)) == 500
    assert not sweep.violations
    subjects = {r.subject for r in reports}
    assert subjects == set(CHECK_NAMES)


def test_pontryagin_check_runs_on_fourfolds():
    spec = GridSpec(
        max_ambient_dim=5,
        max_degree_per_factor=3,
        checks=("pontryagin",),
        max_cases=500,
    )
    reports = [r for r in json_run(spec).reports if r.subject == "pontryagin"]
    assert reports, "grid contains quadric/cubic fourfolds"
    assert all(r.n % 4 == 0 for r in reports)
    assert all(r.satisfied for r in reports)
    quadric = [r for r in reports if r.d == 2 and r.multidegree == (2,)]
    assert len(quadric) == 1
    assert quadric[0].bound_value == 2**37
