"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines. The grid
is the standard family (ambient dimension <= 8, degree factors <= 5, capped
at 500 cases); everything is exact integer arithmetic, zero tolerance.
"""

import time

import pytest

from charbound.bounds import (
    GridSpec,
    betti_bound,
    blowup_euler,
    curve_betti_bound,
    signature_check,
)
from charbound.chern import betti_numbers, euler_characteristic
from charbound.cli import main
from charbound.schubert import (
    Grassmannian,
    SchubertClass,
    giambelli_expand,
    grassmannian_degree,
)
from charbound.varieties import CompleteIntersection, Partition
from grid_run import document, grid_cases, json_run
from intersection import intersection_number


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def full_grid():
    return json_run(GridSpec())


def all_box_partitions(gr):
    def rec(row, largest):
        if row == gr.q:
            yield ()
            return
        for first in range(largest, -1, -1):
            for rest in rec(row + 1, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(0, gr.cols)]


def box_complement(gr, shape):
    """The rest of the q x (N-q) box around ``shape``, turned half a turn:
    the shape whose Schubert class pairs with the class of ``shape`` to the
    point class."""
    padded = shape.parts + (0,) * (gr.q - len(shape))
    return Partition(tuple(gr.cols - p for p in reversed(padded)))


def test_criterion_01_degree_sequence_chain():
    started = time.perf_counter()
    result = json_run(GridSpec(checks=("degree-sequence",)))
    elapsed = time.perf_counter() - started
    cases = grid_cases(result.sweep)
    reports = [r for r in result.reports if r.subject == "degree-sequence"]
    ok = len(cases) == 500
    ok = ok and all(r.satisfied for r in reports)
    ok = ok and all(
        r.margin == 0 for r in reports if len(r.multidegree) == 1
    )  # hypersurfaces achieve equality at every position
    ok = ok and elapsed < 10.0
    verdict(
        1,
        "degree-sequence chain 1 <= h^(n-i)A^i <= d^(i+1), tight for hypersurfaces",
        ok,
        f"{len(reports)} inequalities over {len(cases)} varieties in {elapsed:.2f}s",
    )


def test_criterion_02_log_concavity(full_grid):
    reports = [r for r in full_grid.reports if r.subject == "log-concavity"]
    ok = bool(reports) and all(r.satisfied for r in reports)
    verdict(2, "degree-sequence log-concavity, exact integers", ok, f"{len(reports)} checks")


def test_criterion_03_chern_number_bounds(full_grid):
    nef = [r for r in full_grid.reports if r.subject == "nef-chern"]
    cot = [r for r in full_grid.reports if r.subject == "cotangent-chern"]
    ok = bool(nef) and bool(cot)
    # the bounds hold exactly everywhere the base factor (d+n-2) is nonzero
    ok = ok and all(r.satisfied for r in nef + cot if not r.degenerate)
    ok = ok and all(r.satisfied for r in nef)  # nef side holds even degenerately
    # flagged cases are exactly the re-embedded lines (n, d) = (1, 1), where the
    # degenerate base puts the formula outside its regime; direct inspection:
    # the cotangent pairing there is -2 against a formula value of 0
    flagged = [r for r in nef + cot if r.degenerate]
    ok = ok and all((r.n, r.d) == (1, 1) for r in flagged)
    ok = ok and all(
        r.exact_value == -2 for r in flagged if r.subject == "cotangent-chern"
    )
    verdict(
        3,
        "twisted and untwisted cotangent Chern numbers within bounds",
        ok,
        f"{len(nef) + len(cot)} checks, {len(flagged)} degenerate-base flags",
    )


def test_criterion_04_betti_bound(full_grid):
    reports = [r for r in full_grid.reports if r.subject == "betti"]
    ok = bool(reports) and all(r.satisfied for r in reports)
    for d in range(1, 21):
        curve = CompleteIntersection(2, (d,))
        total = sum(betti_numbers(curve))
        ok = ok and total == curve_betti_bound(d)
        ok = ok and total <= betti_bound(1, d)
    verdict(
        4,
        "total Betti number <= 2^(n^2+2) d^(n+1); plane-curve base case tight",
        ok,
        f"{len(reports)} grid checks + curves d=1..20",
    )


def test_criterion_05_euler_oracle_agreement(full_grid):
    reports = [r for r in full_grid.reports if r.subject == "euler"]
    ok = bool(reports) and all(r.satisfied and r.exact_value == 0 for r in reports)
    ok = ok and euler_characteristic(CompleteIntersection(3, (2,))) == 4
    ok = ok and euler_characteristic(CompleteIntersection(3, (3,))) == 9
    ok = ok and euler_characteristic(CompleteIntersection(3, (4,))) == 24
    verdict(
        5,
        "Euler characteristic agrees with alternating Betti sum; spot goldens 4/9/24",
        ok,
        f"{len(reports)} varieties",
    )


def test_criterion_06_schubert_consistency():
    started = time.perf_counter()
    ok = True
    expansions = pairings = 0
    for q in range(1, 4):
        for N in range(q + 1, 9):
            gr = Grassmannian(q, N)
            shapes = all_box_partitions(gr)
            for shape in shapes:
                ok = ok and giambelli_expand(shape, gr) == SchubertClass(gr, {shape: 1})
                expansions += 1
            s1 = SchubertClass(gr, {(1,): 1})
            ok = ok and intersection_number(
                [s1] * gr.total_codim
            ) == grassmannian_degree(q, N)
            for lam in shapes:
                comp = box_complement(gr, lam)
                for mu in shapes:
                    if lam.size + mu.size != gr.total_codim:
                        continue
                    expected = 1 if mu == comp else 0
                    ok = ok and intersection_number(
                        [SchubertClass(gr, {lam: 1}), SchubertClass(gr, {mu: 1})]
                    ) == expected
                    pairings += 1
    ok = ok and grassmannian_degree(2, 4) == 2
    ok = ok and grassmannian_degree(2, 5) == 5
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    verdict(
        6,
        "Giambelli = basis, degree formula, duality delta over q<=3, N<=8",
        ok,
        f"{expansions} expansions, {pairings} dual pairings in {elapsed:.2f}s",
    )


def test_criterion_07_blowup_euler_bookkeeping():
    chi_complex, chi_real = 1000, 1000
    ok = True
    for step in range(1, 4):
        chi_complex = blowup_euler(chi_complex, -6, 3)
        chi_real = blowup_euler(chi_real, -6, 3, real_side=True, chi_c_real=0)
        ok = ok and chi_complex == 1000 - 12 * step
        ok = ok and chi_real == 1000
    verdict(
        7,
        "blow-up along a genus-4 curve drops chi by 12 per step, real side unchanged",
        ok,
        f"complex chi 1000 -> {chi_complex}, real chi {chi_real}",
    )


def test_criterion_08_signature_corollary(capsys):
    report = signature_check(CompleteIntersection(5, (2,)), 0)
    c2_squared = report.bound_value
    ok = c2_squared == 98 and report.satisfied and report.margin == 98
    code_ok = main(["verify", "--sigma", "0", "-m", "5", "-D", "2"])
    out_ok = capsys.readouterr().out
    code_bad = main(["verify", "--sigma", "33", "-m", "5", "-D", "2"])
    out_bad = capsys.readouterr().out
    ok = ok and code_ok == 0 and "margin=98" in out_ok
    ok = ok and code_bad == 1 and "VIOLATION" in out_bad and "exact=99" in out_bad
    verdict(
        8,
        "|3 sigma| <= c2^2 = 98 on the quadric fourfold; violation exits 1 with witness",
        ok,
        f"c2^2={c2_squared}",
    )


def test_criterion_09_bound_goldens_in_cli(capsys):
    outputs = []
    for argv in (
        ["bound", "--pontryagin", "-n", "2", "-d", "2"],
        ["bound", "--betti", "-n", "2", "-d", "2"],
        ["bound", "--cin", "-n", "2", "-d", "2", "-I", "2"],
    ):
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    ok = outputs == [(0, "8192\n"), (0, "512\n"), (0, "128\n")]
    verdict(9, "CLI bound goldens 8192 / 512 / 128, byte-exact", ok)


def test_criterion_10_grid_determinism(full_grid):
    ok = full_grid.document == document(GridSpec())[1]
    ok = ok and document(GridSpec(), "csv")[1] == document(GridSpec(), "csv")[1]
    verdict(
        10,
        "two full verification runs produce byte-identical reports",
        ok,
        f"{len(full_grid.reports)} reports",
    )
