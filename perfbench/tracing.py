"""The traced in-process run that gives the per-layer numbers.

Timing wrappers from this file are installed around charbound's public names
at the places their callers look them up (``charbound.bounds.twist_chern``,
``charbound.chern.tangent_chern``, ...), so the program itself is unchanged.
Each wrapped call records a span (name, start, end, parent, run id) in
memory; the spans are written out when the run ends. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import PROBE, parse_summary

# span name -> the places callers look the wrapped name up, as module:attribute
SPANS = {
    "cli.main": ("charbound.cli:main",),
    "bounds.verify": ("charbound.cli:verify_grid",),
    "bounds.enumerate": ("charbound.bounds:enumerate_varieties",),
    "bounds.render": ("charbound.bounds:GridResult.render",),
    "bounds.betti_recursive": (
        "charbound.bounds:betti_bound_recursive",
        "charbound.cli:betti_bound_recursive",
    ),
    "chern.tangent": ("charbound.chern:tangent_chern", "charbound.cli:tangent_chern"),
    "chern.twist": ("charbound.bounds:twist_chern",),
    "chern.number": ("charbound.bounds:chern_number", "charbound.chern:chern_number"),
    "chern.schur": ("charbound.bounds:schur_class",),
    "betti.numbers": (
        "charbound.bounds:betti_numbers",
        "charbound.betti:betti_numbers",
        "charbound.cli:betti_numbers",
    ),
    "betti.total": ("charbound.bounds:total_betti", "charbound.cli:total_betti"),
    "schubert.pieri": ("charbound.schubert:pieri", "charbound.cli:pieri"),
    "schubert.giambelli": ("charbound.cli:giambelli_expand",),
    "schubert.degree": ("charbound.cli:grassmannian_degree",),
}
# the check functions verify_grid dispatches through; each gets a span
CHECK_TABLE = "charbound.bounds:_CHECKS"
CHECK_NAMES = (
    "degree-sequence",
    "log-concavity",
    "nef-chern",
    "cotangent-chern",
    "betti",
    "betti-recursive",
    "euler",
    "schur-positivity",
    "pontryagin",
)
# counted but not timed: these run millions of times on the deep grid
COUNTS = {
    "graded.mul": (
        "charbound.graded:TruncatedClass.__mul__",
        "charbound.graded:TruncatedClass.__rmul__",
    ),
    "graded.add": ("charbound.graded:TruncatedClass.__add__",),
    "graded.new": ("charbound.graded:TruncatedClass.__post_init__",),
}
HIT_RATIOS = {
    "chern.tangent.hit_ratio": "charbound.chern:tangent_chern",
    "chern.euler.hit_ratio": "charbound.chern:euler_characteristic",
    "betti.numbers.hit_ratio": "charbound.betti:betti_numbers",
}


def _resolve(location: str):
    """(owner, key) for ``module:attr.attr``; raises LookupError if absent."""
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(location) from exc
    *parents, key = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, key):
        raise LookupError(location)
    return owner, key


def lookup(location: str):
    owner, key = _resolve(location)
    return getattr(owner, key)


def clear_caches() -> int:
    """cache_clear() every lru_cache found among charbound's module attributes."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "charbound" and not name.startswith("charbound."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()
    return len(seen)


class Tracer:
    """Spans and counters recorded in memory by wrappers it installs."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, outermost]
        self.counts = defaultdict(int)
        self.run = ""
        self.missing = []
        self._stack = []
        self._open = defaultdict(int)
        self._undo = []

    def span(self, name: str, fn, observe=None):
        spans, stack, open_spans = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, not open_spans[name]]
            stack.append(len(spans))
            spans.append(record)
            open_spans[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                open_spans[name] -= 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, location: str, make):
        try:
            owner, key = _resolve(location)
        except LookupError:
            self.missing.append(location)
            return
        original = getattr(owner, key)
        self._undo.append((owner, key, original))
        setattr(owner, key, make(original))

    def install(self):
        observers = {
            "bounds.render": lambda text: self._add("bounds.render.bytes", len(text.encode())),
            "schubert.pieri": lambda cls: self._peak("schubert.terms_max", len(cls.terms)),
        }
        for name, locations in SPANS.items():
            for location in locations:
                self._patch(location, lambda fn, n=name: self.span(n, fn, observers.get(n)))
        for name, locations in COUNTS.items():
            for location in locations:
                self._patch(location, lambda fn, n=name: self.count(n, fn))
        try:
            table = lookup(CHECK_TABLE)
        except LookupError:
            self.missing.append(CHECK_TABLE)
            return
        for check in list(table):
            self._undo.append((table, check, table[check]))
            table[check] = self.span(f"bounds.check.{check}", table[check])

    def restore(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def _add(self, name, value):
        self.counts[name] += value

    def _peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def layer_stats(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds, max."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {}
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["s"] += duration if outermost else 0.0
            entry["self_s"] += duration - covered[i]
            entry["max_s"] = max(entry["max_s"], duration)
        return stats

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, run]) + "\n")


def _run_queries(main, queries, tracer=None):
    """Call the CLI entry point once per query; returns (seconds, errors, stdouts)."""
    elapsed, errors, stdouts = 0.0, [], []
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.run = str(i)
        query.clear_output()
        buffer = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = main(list(query.argv))
        elapsed += perf_counter() - start
        stdouts.append(buffer.getvalue())
        errors.append(query.check(code, stdouts[-1], query.out_path))
    return elapsed, errors, stdouts


def traced_run(workload, queries, spans_path: Path) -> tuple:
    """Untraced pass, traced pass and cold per-check sweeps, all in process.

    Returns (metrics, one error or None per call of both passes, missing
    wrapper locations).
    """
    main = lookup("charbound.cli:main")
    clear_caches()
    untraced_s, errors, _ = _run_queries(main, queries)

    tracer = Tracer()
    caches = {}
    for metric, location in HIT_RATIOS.items():
        try:
            caches[metric] = lookup(location).cache_info
        except (LookupError, AttributeError):
            tracer.missing.append(location)
    clear_caches()
    tracer.install()
    try:
        traced_s, traced_errors, stdouts = _run_queries(
            lookup("charbound.cli:main"), queries, tracer
        )
    finally:
        tracer.restore()
    errors += traced_errors
    tracer.write_spans(spans_path)

    metrics = {}
    stats = tracer.layer_stats()
    for name in SPANS:
        entry = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.max_ms"] = entry["max_s"] * 1000
    for name in COUNTS:
        metrics[f"{name}.calls"] = tracer.counts[name]
    metrics["bounds.render.bytes"] = tracer.counts["bounds.render.bytes"]
    metrics["schubert.terms_max"] = tracer.counts["schubert.terms_max"]
    metrics["bounds.build.self_s"] = sum(
        stats.get(f"bounds.check.{c}", {}).get("self_s", 0.0) for c in CHECK_NAMES
    )
    for metric in HIT_RATIOS:
        info = caches[metric]() if metric in caches else None
        calls = info.hits + info.misses if info else 0
        metrics[metric] = info.hits / calls if calls else 0.0
    summaries = [parse_summary(text) for text in stdouts]
    metrics["bounds.cases"] = sum(int(s.get("cases", 0)) for s in summaries)
    metrics["bounds.reports"] = sum(int(s.get("reports", 0)) for s in summaries)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    metrics.update(_cold_check_seconds(workload))
    return metrics, errors, tracer.missing


def _cold_check_seconds(workload) -> dict:
    """Each check alone over the workload's grid (the probe's for Schubert), cold."""
    grid = workload.grid if workload.kind == "verify" else PROBE.grid
    out = {}
    grid_spec = lookup("charbound.bounds:GridSpec")
    verify_grid = lookup("charbound.bounds:verify_grid")
    for check in CHECK_NAMES:
        clear_caches()
        start = perf_counter()
        verify_grid(grid_spec(**grid, checks=(check,)))
        out[f"bounds.check.{check}.s"] = perf_counter() - start
    clear_caches()
    return out
