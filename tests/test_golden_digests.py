"""Fresh-process determinism: `charbound verify` reproduces the golden digests.

Each case runs the CLI in a new interpreter, so no lru_cache is warm, and
compares the sha256 of its stdout with the digest recorded in
perfbench/golden.json, or pinned here for outputs that file does not cover.
The test only reads that file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
PINNED = {
    "default-markdown": {
        "argv": "verify --format markdown",
        "sha256": "95478ee49e948707a24c435fce17088af31aac5d77fe987d0c4053f3bdc4e85e",
        "bytes": 678030,
    },
    # the wide-csv grid, 46,921 reports, as markdown
    "wide-markdown": {
        "argv": "verify --max-ambient-dim 5 --max-degree 14 --max-cases 1000000 --format markdown",
        "sha256": "92f4807b6885b731846bc04263009a0431766d11e001f431c5cfdfb4259f9491",
        "bytes": 3253708,
    },
}
DIGESTS = {**GOLDEN, **PINNED}
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize(
    "entry",
    [
        "default-json",
        "default-csv",
        "deep-json",
        "wide-csv",
        "default-markdown",
        "wide-markdown",
        # dimension 9 with degree-4 factors, and 12,645 cases of dimension <= 4
        "deep-d4-json",
        "wide-d20-csv",
    ],
)
def test_fresh_process_output_matches_golden_digest(entry):
    golden = DIGESTS[entry]
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", *golden["argv"].split()],
        capture_output=True,
        env=ENV,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert len(proc.stdout) == golden["bytes"]
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"]


# Runs the CLI and prints the interpreter's own peak RSS (VmHWM, in kB) to
# stderr. A child's ru_maxrss would not do: it counts the pages it inherits
# from this pytest process before exec.
PEAK_RSS_PROBE = """\
import sys
from charbound.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
sys.exit(code)
"""


def peak_rss_mb(argv: str) -> tuple:
    """Run the CLI in a child through the probe: (its stdout, its peak RSS
    in MB)."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, *argv.split()],
        capture_output=True,
        env=ENV,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout.decode(), int(proc.stderr.decode().split()[-1]) / 1024


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_json_report_memory_does_not_grow_with_the_document(tmp_path):
    # 67,168 reports, 23.8 MB of JSON; building the document as one string
    # peaked at about 255 MB, a tuple per distinct row at 27.5 MB, and the
    # keys' value columns peak at about 24 MB
    out = tmp_path / "m12d3.json"
    argv = "verify --max-ambient-dim 12 --max-degree 3 --max-codim 11"
    _, peak_mb = peak_rss_mb(argv + f" --max-cases 1000000 --format json --out {out}")
    digest = sha256_file(out)
    assert digest == "03b10e704677b04b3fd4d18b5e046c8e85c80d9e976242248ae5e227a6e1468b"
    assert peak_mb < 28, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_frontier_csv_memory_grows_with_keys_not_reports(tmp_path):
    # 429,953 reports of 1,520 cases from 120,025 rows of 209 keys, and
    # 47.6 MB of CSV; one report tuple per case and row peaked at 93 MB, a
    # tuple per distinct row at 63 MB, and the keys' value columns at about
    # 43 MB; read case by case, holding the text of keys with cases left,
    # it peaks at about 34 MB
    out = tmp_path / "m20d2.csv"
    argv = "verify --max-ambient-dim 20 --max-degree 2 --max-codim 19"
    _, peak_mb = peak_rss_mb(argv + f" --max-cases 1000000 --format csv --out {out}")
    assert out.stat().st_size == 47_590_163
    digest = sha256_file(out)
    assert digest == "4845be49eab6fa788c2b08dd39997ab98a27e1c410ce9d15baa85320b462715b"
    assert peak_mb < 38, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_frontier_summary_memory_holds_only_keys_with_cases_left():
    # 1,474,549 reports of 2,576 cases from 299 keys; holding every key's
    # value columns peaked at about 52 MB, and holding the counts and
    # unsatisfied or degenerate rows of keys with cases left peaks at about
    # 26 MB, some 15 MB of it the interpreter and its imports
    argv = "verify --max-ambient-dim 24 --max-degree 2 --max-codim 23 --max-cases 1000000"
    out, peak_mb = peak_rss_mb(argv)
    assert out == "cases=2576 truncated=false reports=1474549 flagged=46 violations=0\n"
    assert peak_mb < 32, f"peak RSS {peak_mb:.0f} MB"
