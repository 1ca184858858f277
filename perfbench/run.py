"""Benchmark of the charbound CLI: fresh-process timings on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload default-json --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out layers.json

With ``--trace 0`` every sample runs ``python -m charbound`` in fresh child
processes, one at a time, and the end-to-end metrics are printed. With
``--trace 1`` the workload runs in this process, untraced and then traced,
and the per-layer metrics are printed. Every output is checked against the
golden digests in ``golden.json`` and against the closed forms in
``oracles.py``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from workloads import WORKLOADS, Query, expect_text, probe_queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
# outputs and captures of this process only, removed when it ends
WORK = BUILD / f"run-{os.getpid()}"

# Set-up time: interpreter start, import and argparse, with a checked answer.
SETUP_QUERY = Query(("bound", "--betti", "-n", "2", "-d", "2"), expect_text("512"))
SETUP_RUNS = 11
CPU_LIMIT_S = 60  # per child; a child over it is killed and counts as failed
REFERENCE = HERE / "reference.py"

LIMITS = (
    "Shared machine: no CPU pinning, frequency control or system-wide tracing "
    "is available, so only the benchmark's own processes are measured."
)


def child_env() -> dict:
    """The environment every child gets: no case-cap override, fixed hashing."""
    env = dict(os.environ)
    for key in ("CHARBOUND_MAX_CASES", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, env: dict, stdout_path: Path):
    """Run ``cmd``; returns (wall, cpu, rss_mb, exit code, stdout).

    The child's CPU time is capped at CPU_LIMIT_S by RLIMIT_CPU, so a runaway
    child is killed by the kernel and shows as a negative exit code.
    """

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 5))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            preexec_fn=limit,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, stdout


class Harness:
    """Runs checked child invocations and counts the ones that fail."""

    def __init__(self):
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, errors) -> None:
        """Record the errors of one failed invocation (none: it passed)."""
        if errors:
            self.failed += 1
            self.errors += errors

    def invoke(self, query):
        self.attempted += 1
        query.clear_output()
        stdout_path = WORK / "stdout.txt"
        wall, cpu, rss_mb, code, stdout = run_child(
            [sys.executable, "-m", "charbound", *query.argv], self.env, stdout_path
        )
        if code < 0:
            error = f"killed by signal {-code} (CPU limit {CPU_LIMIT_S} s)"
        else:
            error = query.check(code, stdout, query.out_path)
        if error:
            stderr = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            tail = stderr.strip().splitlines()[-1:] or [""]
            error += f"; stderr: {tail[0][:200]}"
        self.fail([f"charbound {' '.join(query.argv)}: {error}"] if error else [])
        return wall, cpu, rss_mb

    def reference(self):
        """Wall and CPU seconds of one run of the reference script."""
        self.attempted += 1
        wall, cpu, _, code, _ = run_child(
            [sys.executable, str(REFERENCE)], self.env, WORK / "reference.txt"
        )
        self.fail([f"reference.py: exit code {code}"] if code else [])
        return wall, cpu

    def warm_up(self) -> None:
        """One untimed start, which writes the .pyc files the samples then reuse."""
        self.invoke(SETUP_QUERY)

    def setup_times(self) -> list:
        return [self.invoke(SETUP_QUERY)[0] for _ in range(SETUP_RUNS)]


class Sample(NamedTuple):
    """One sample's queries, summed, and the reference runs around it, averaged."""

    wall: float
    cpu: float
    rss_mb: float
    items: int
    ref_wall: float
    ref_cpu: float


def describe(values) -> str:
    """Median, the highest percentile with at least ten samples above it, count.

    That percentile is 100 (n - 10) / n; it is left out while it is not above
    the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g}"
    if n > 20:
        text += f" p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"
    return text + f" n={n}"


def end_to_end(workload, seed: int, seconds: float) -> dict:
    """Fresh-process samples for ``seconds``, each bracketed by reference runs.

    The host's speed drifts by a quarter within seconds, so each sample's wall
    and CPU time is also divided by the mean of the reference runs just before
    and just after it; those ratios are the gated metrics.
    """
    rng = random.Random(seed)
    harness = Harness()
    harness.warm_up()
    setup = harness.setup_times()
    samples = []
    before = harness.reference()
    deadline = perf_counter() + seconds
    while not samples or perf_counter() + statistics.median(
        s.wall + s.ref_wall for s in samples
    ) <= deadline:
        queries = workload.sample(rng, WORK)
        runs = [harness.invoke(query) for query in queries]
        after = harness.reference()
        samples.append(
            Sample(
                wall=sum(r[0] for r in runs),
                cpu=sum(r[1] for r in runs),
                rss_mb=max(r[2] for r in runs),
                items=workload.items(queries),
                ref_wall=(before[0] + after[0]) / 2,
                ref_cpu=(before[1] + after[1]) / 2,
            )
        )
        before = after
        if len(samples) == 1 and workload.kind == "verify":
            # every later output has the same digest, so one oracle pass covers all
            harness.fail(workload.check_oracles(rng, queries[0].out_path))
    series = {
        "setup_s": setup,
        "wall_ref": [s.wall / s.ref_wall for s in samples],
        "cpu_ref": [s.cpu / s.ref_cpu for s in samples],
        "items_per_ref": [s.items * s.ref_wall / s.wall for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "wall_s": [s.wall for s in samples],
        "cpu_s": [s.cpu for s in samples],
        "items_per_s": [s.items / s.wall for s in samples],
        "reference_wall_s": [s.ref_wall for s in samples],
    }
    return {
        "attempted": harness.attempted,
        "failed": harness.failed,
        "errors": harness.errors,
        "values": {name: statistics.median(values) for name, values in series.items()},
        "samples": series,
    }


def per_layer(workload, seed: int) -> dict:
    """One traced in-process pass, with an untraced pass to price the tracing.

    Both passes run the workload's sample followed by the probe queries.
    """
    rng = random.Random(seed)
    harness = Harness()
    harness.warm_up()
    os.environ.pop("CHARBOUND_MAX_CASES", None)
    sys.path.insert(0, str(SRC))
    import tracing

    queries = workload.sample(rng, WORK) + probe_queries(WORK)
    spans_path = BUILD / f"spans-{workload.name}-seed{seed}.jsonl"
    values, errors, missing = tracing.traced_run(workload, queries, spans_path)
    harness.attempted += len(errors)
    for query, error in zip(queries * 2, errors):
        harness.fail([f"in-process charbound {' '.join(query.argv)}: {error}"] if error else [])
    if workload.kind == "verify":
        harness.fail(workload.check_oracles(rng, queries[0].out_path))
    for location in missing:
        print(f"note: {location} not found; its layer reads 0", file=sys.stderr)
    return {
        "attempted": harness.attempted,
        "failed": harness.failed,
        "errors": harness.errors,
        "values": values,
        "spans": str(spans_path.relative_to(ROOT)),
    }


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write full results (samples, machine) here")
    args = parser.parse_args(argv)

    if not (SRC / "charbound" / "__init__.py").is_file():
        print(f"error: no charbound sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK.mkdir(parents=True, exist_ok=True)

    facts = machine_facts()
    results = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                result = per_layer(workload, args.seed)
            else:
                result = end_to_end(workload, args.seed, args.seconds)
            absent = [m["name"] for m in declared if m["name"] not in result["values"]]
            if absent:
                print(f"error: {name} produced no value for {absent}", file=sys.stderr)
                return 3
            results[name] = result
            _print_human(name, result, declared)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    facts["loadavg_end"] = list(os.getloadavg())
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"machine": facts, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "workloads": results},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{m['name']}" if prefix else m["name"]): {
            "value": results[name]["values"][m["name"]],
            "unit": m["unit"],
        }
        for name in names
        for m in declared
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


# printed next to the gated metrics, not gated: raw seconds drift with the host
UNGATED_UNITS = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "reference_wall_s": "s"}


def _print_human(name: str, result: dict, declared) -> None:
    print(f"== {name}")
    samples = result.get("samples", {})
    units = {m["name"]: m["unit"] for m in declared}
    units.update((k, v) for k, v in UNGATED_UNITS.items() if k in result["values"])
    for metric, unit in units.items():
        detail = f"  ({describe(samples[metric])})" if metric in samples else ""
        print(f"{metric}: {result['values'][metric]!r} {unit}{detail}")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate: {rate!r} ({result['failed']} failed of {result['attempted']} invocations)")
    for error in result["errors"]:
        print(f"FAILED {error}")


if __name__ == "__main__":
    sys.exit(main())
