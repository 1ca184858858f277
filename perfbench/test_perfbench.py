"""Tests of the benchmark itself: golden digests, oracles, seeding and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import tracing
from workloads import GOLDEN, WORKLOADS


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_default_grid_matches_golden_digest_in_fresh_process(fmt):
    # a fresh interpreter starts with cold lru_caches, unlike a second
    # verify_grid call in the same process
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", "verify", "--format", fmt],
        cwd=run.ROOT,
        env=run.child_env(),
        capture_output=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    golden = GOLDEN[f"default-{fmt}"]
    assert len(proc.stdout) == golden["bytes"]
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"]


def test_hypersurface_oracles_match_known_varieties():
    assert oracles.hypersurface_euler(1, 3) == 0  # plane cubic, an elliptic curve
    assert oracles.hypersurface_euler(2, 3) == 9  # cubic surface
    assert oracles.hypersurface_euler(2, 4) == 24  # quartic K3 surface
    assert oracles.hypersurface_euler(3, 5) == -200  # quintic threefold
    assert [oracles.hypersurface_euler(n, 1) for n in (1, 2, 5)] == [2, 3, 6]
    assert oracles.hypersurface_total_betti(1, 3) == 4
    assert oracles.hypersurface_total_betti(2, 4) == 24
    assert oracles.hypersurface_total_betti(3, 5) == 208


def test_grassmannian_degree_oracle_matches_known_degrees():
    assert oracles.grassmannian_degree(2, 4) == 2
    assert oracles.grassmannian_degree(2, 5) == 5
    assert oracles.grassmannian_degree(3, 6) == 42
    assert oracles.grassmannian_degree(1, 9) == 1
    assert oracles.grassmannian_degree(3, 7) == oracles.grassmannian_degree(4, 7)


def test_schubert_batch_is_drawn_from_the_seed_and_passes_its_checks():
    workload = WORKLOADS["schubert-queries"]
    first = workload.sample(random.Random(7), run.WORK)
    again = workload.sample(random.Random(7), run.WORK)
    other = workload.sample(random.Random(8), run.WORK)
    assert [q.argv for q in first] == [q.argv for q in again]
    assert [q.argv for q in first] != [q.argv for q in other]
    assert workload.items(first) == 12
    _, errors, _ = tracing._run_queries(tracing.lookup("charbound.cli:main"), first)
    assert errors == [None] * len(first)


def test_clear_caches_empties_every_charbound_lru_cache():
    from charbound import CompleteIntersection, euler_characteristic, tangent_chern

    euler_characteristic(CompleteIntersection(3, (4,)))
    assert tangent_chern.cache_info().currsize > 0
    assert tracing.clear_caches() >= 3
    assert tangent_chern.cache_info().currsize == 0
    assert euler_characteristic.cache_info().currsize == 0


def test_self_time_subtracts_children_and_recursion_counts_once():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    def outer(depth):
        leaf()
        return outer(depth - 1) if depth else 0

    leaf = tracer.span("leaf", leaf)
    outer = tracer.span("outer", outer)
    outer(2)
    stats = tracer.layer_stats()
    assert stats["outer"]["calls"] == 3 and stats["leaf"]["calls"] == 3
    top = tracer.spans[0]
    assert stats["outer"]["s"] == pytest.approx(top[2] - top[1])
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["s"] - stats["leaf"]["s"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-json",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
