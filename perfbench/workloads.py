"""What each benchmark workload runs, and how its output is checked.

A workload turns a seeded random source into one *sample*: a list of
``Query`` objects, each one ``charbound`` command line with a checker for its
output. The grids are fixed inputs; the seed only draws the Schubert query mix
and the rows the oracles spot-check.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

ORACLE_SAMPLE = 64  # rows per run checked against the closed forms


@dataclass(frozen=True)
class Query:
    """One ``charbound`` invocation and the check its output must pass.

    ``check(exit_code, stdout, out_path)`` returns an error message or None.
    """

    argv: tuple
    check: object
    out_path: Path | None = None

    def clear_output(self) -> None:
        """Remove a previous run's output, so a run that writes none fails."""
        if self.out_path is not None:
            self.out_path.unlink(missing_ok=True)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_summary(stdout: str) -> dict:
    """The ``key=value`` summary line ``verify --out`` prints on stdout."""
    for line in stdout.splitlines():
        if line.startswith("cases="):
            return dict(item.split("=", 1) for item in line.split())
    return {}


# -- verify workloads --------------------------------------------------------

_FLAGS = {
    "max_ambient_dim": "--max-ambient-dim",
    "max_degree_per_factor": "--max-degree",
    "max_codim": "--max-codim",
    "max_cases": "--max-cases",
}


@dataclass(frozen=True)
class VerifyWorkload:
    """``charbound verify`` on one fixed grid, checked against a golden digest."""

    name: str
    grid: dict  # GridSpec keyword arguments; {} is the default grid
    fmt: str
    kind: str = field(default="verify", init=False)

    @property
    def golden(self) -> dict:
        return GOLDEN[self.name]

    def argv(self, out_path: Path) -> tuple:
        args = ["verify"]
        for key, flag in _FLAGS.items():
            if key in self.grid:
                args += [flag, str(self.grid[key])]
        return tuple(args + ["--format", self.fmt, "--out", str(out_path)])

    def items(self, queries) -> int:
        return self.golden["reports"] * len(queries)

    def sample(self, rng, out_dir: Path) -> list:
        out_path = out_dir / f"{self.name}.{self.fmt}"
        return [Query(self.argv(out_path), self.check, out_path)]

    def check(self, code: int, stdout: str, out_path: Path):
        if code != 0:
            return f"exit code {code}, expected 0"
        golden = self.golden
        summary = parse_summary(stdout)
        expected = {
            key: str(golden[key]).lower()
            for key in ("cases", "truncated", "reports", "flagged", "violations")
        }
        if summary != expected:
            return f"summary {summary} != expected {expected}"
        if not out_path.is_file():
            return f"no output written to {out_path.name}"
        digest = sha256_file(out_path)
        if digest != golden["sha256"]:
            return f"sha256 {digest} != golden {golden['sha256']}"
        return None

    def check_oracles(self, rng, out_path: Path) -> list:
        """Spot-check seeded hypersurface rows against the closed forms."""
        if not out_path.is_file():
            return [f"no output in {out_path.name} to check"]
        text = out_path.read_text(encoding="utf-8")
        rows = _json_rows(text) if self.fmt == "json" else _csv_rows(text)
        picked = rng.sample(rows, min(ORACLE_SAMPLE, len(rows)))
        errors = [err for err in map(_check_hypersurface_row, picked) if err]
        if not rows:
            errors.append("no hypersurface rows to check")
        return errors


def _json_rows(text: str) -> list:
    # euler and betti rows of hypersurfaces, decoded one object at a time
    decoder = json.JSONDecoder()
    rows = []
    for match in re.finditer(r'"subject": "(euler|betti)"', text):
        start = text.rfind("{", 0, match.start())
        row, _ = decoder.raw_decode(text, start)
        if len(row["multidegree"]) == 1:
            rows.append(row)
    return rows


def _csv_rows(text: str) -> list:
    # betti rows of hypersurfaces: subject,n,d,multidegree,index,exact,...
    rows = []
    for line in text.splitlines():
        # a quoted multidegree column ("2,3") has more than one factor
        if line.startswith("betti,") and '"' not in line:
            _, n, d, _, _, exact, *_ = line.split(",")
            rows.append({"subject": "betti", "n": int(n), "d": int(d), "exact": int(exact)})
    return rows


def _check_hypersurface_row(row: dict):
    n, d = row["n"], row["d"]
    if row["subject"] == "euler":
        got = int(re.match(r"chi=(-?\d+) ", row["note"]).group(1))
        want = oracles.hypersurface_euler(n, d)
    else:
        got, want = row["exact"], oracles.hypersurface_total_betti(n, d)
    if got != want:
        return f"{row['subject']} n={n} d={d}: got {got}, oracle {want}"
    return None


# -- the Schubert query mix --------------------------------------------------

# Grassmannians G(q, N) with q(N-q) in [30, 56], in four classes whose
# sigma_1^D products cost alike within a class (about 0.12, 0.15, 0.23 and
# 0.31 s in process). A batch takes one of each, so batches drawn from
# different seeds cost within a few percent of each other.
POWER_CLASSES = (
    ((5, 15), (9, 14), (6, 14)),
    ((10, 15), (8, 14), (7, 14)),
    ((6, 15), (14, 18)),
    ((9, 15), (11, 16), (7, 15)),
)
MIXED_POOL = ((5, 15), (10, 15), (6, 14), (8, 14))
# q >= 6, so that 5- and 6-part shapes fit
GIAMBELLI_POOL = ((6, 12), (6, 13), (7, 13), (7, 14), (8, 14))
MIXED_INDICES = (1, 2, 3, 4)


def _schubert(q: int, N: int, *mode) -> tuple:
    return ("schubert", "-q", str(q), "-N", str(N), *mode)


def expect_text(expected: str):
    def check(code, stdout, out_path):
        if code != 0:
            return f"exit code {code}, expected 0"
        if stdout.strip() != expected:
            return f"output {stdout.strip()[:80]!r} != oracle {expected!r}"
        return None

    return check


def _expect_positive(code, stdout, out_path):
    # a special-class product filling the box is a Kostka number of the
    # rectangle, positive because every special index fits in a row
    if code != 0:
        return f"exit code {code}, expected 0"
    text = stdout.strip()
    if not text.isdigit() or int(text) <= 0:
        return f"output {text[:80]!r} is not a positive integer"
    return None


def _power_spec(indices) -> str:
    # run-length encode: [2, 2, 1] -> sigma2^2*sigma1
    terms = []
    for k, group in groupby(indices):
        run = len(list(group))
        terms.append(f"sigma{k}^{run}" if run > 1 else f"sigma{k}")
    return "*".join(terms)


@dataclass(frozen=True)
class SchubertWorkload:
    """A seeded batch of ``charbound schubert`` queries, checked by oracles."""

    name: str
    kind: str = field(default="schubert", init=False)

    def items(self, queries) -> int:
        return len(queries)

    def sample(self, rng, out_dir: Path) -> list:
        queries = []
        for pool in POWER_CLASSES:
            q, N = rng.choice(pool)
            degree = oracles.grassmannian_degree(q, N)
            argv = _schubert(q, N, "--power", f"sigma1^{q * (N - q)}")
            queries.append(Query(argv, expect_text(str(degree))))
        for _ in range(3):
            q, N = rng.choice(MIXED_POOL)
            left, indices = q * (N - q), []
            while left:
                k = rng.choice([k for k in MIXED_INDICES if k <= min(left, N - q)])
                indices.append(k)
                left -= k
            argv = _schubert(q, N, "--power", _power_spec(indices))
            queries.append(Query(argv, _expect_positive))
        for _ in range(3):
            q, N = rng.choice(GIAMBELLI_POOL)
            parts = sorted(
                (rng.randint(1, N - q) for _ in range(rng.choice((5, 6)))), reverse=True
            )
            shape = ",".join(map(str, parts))
            argv = _schubert(q, N, "--giambelli", shape)
            queries.append(Query(argv, expect_text(f"sigma[{shape}]")))
        for _ in range(2):
            q, N = rng.choice(rng.choice(POWER_CLASSES))
            degree = oracles.grassmannian_degree(q, N)
            queries.append(Query(_schubert(q, N, "--degree"), expect_text(str(degree))))
        rng.shuffle(queries)
        return queries


# A tiny grid and three small Schubert queries, appended to every traced run
# so that each layer is timed on every workload; they take a few milliseconds.
PROBE = VerifyWorkload("probe", {"max_ambient_dim": 4, "max_degree_per_factor": 2}, "json")


def probe_queries(out_dir: Path) -> list:
    return PROBE.sample(None, out_dir) + [
        Query(_schubert(2, 4, "--power", "sigma1^4"), expect_text("2")),
        Query(_schubert(2, 4, "--giambelli", "1,1"), expect_text("sigma[1,1]")),
        Query(_schubert(2, 4, "--degree"), expect_text("2")),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("default-json", {}, "json"),
        VerifyWorkload(
            "deep-json",
            {
                "max_ambient_dim": 9,
                "max_degree_per_factor": 2,
                "max_codim": 8,
                "max_cases": 1000000,
            },
            "json",
        ),
        VerifyWorkload(
            "wide-csv",
            {"max_ambient_dim": 5, "max_degree_per_factor": 14, "max_cases": 1000000},
            "csv",
        ),
        SchubertWorkload("schubert-queries"),
    )
}
