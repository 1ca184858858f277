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

import charbound.bounds
from charbound.cli import main

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


def test_hash_randomization_does_not_change_the_bytes():
    # the tests above pin PYTHONHASHSEED; the writers' caches are keyed by
    # objects, n and multidegrees, and no output order may follow a hash
    env = {**ENV, "PYTHONHASHSEED": "random"}
    for entry in ("default-json", "wide-csv"):
        golden = GOLDEN[entry]
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "charbound", *golden["argv"].split()],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            assert hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"], entry


@pytest.mark.parametrize("keys, rows", [(1, 0), (2, 110), (3, 170)], ids=("1", "2", "3"))
def test_output_does_not_depend_on_how_many_keys_a_chunk_holds(
    monkeypatch, capsysbinary, keys, rows
):
    # the sweep computes a block's keys CHUNK_ROWS rows' worth at a time,
    # never fewer than CHUNK_KEYS of them, and every format renders the
    # chunks it computes: at 2,048 rows and 24 keys, default-json's 275 keys
    # make 18 chunks and wide-csv's 3,059 keys 25. Here a chunk holds one
    # key; or 11 curves (10 rows each), 6 surfaces (18), 3 threefolds (29)
    # and 2 keys from n = 4 on (47 rows); or 17, 9, 5 and 3. That splits
    # wide-csv's blocks of 14, 91, 455 and 1,820 keys and default-json's
    # blocks of 5 to 56 keys at other places
    monkeypatch.setattr(charbound.bounds, "CHUNK_KEYS", keys)
    monkeypatch.setattr(charbound.bounds, "CHUNK_ROWS", rows)
    for entry in ("wide-csv", "default-json"):
        golden = GOLDEN[entry]
        assert main(golden["argv"].split()) == 0, entry
        out = capsysbinary.readouterr().out
        assert len(out) == golden["bytes"], entry
        assert hashlib.sha256(out).hexdigest() == golden["sha256"], entry


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


@pytest.fixture(scope="session")
def probe_env(tmp_path_factory) -> dict:
    """The environment of a probe child: bytecode is written, under this
    session's own PYTHONPYCACHEPREFIX rather than into the tree, and one
    small run of each kind of document compiles every module a probe loads.
    So no probe compiles from source, whether or not PYTHONDONTWRITEBYTECODE
    is set or the tree holds bytecode, and the peaks do not grow with the
    size of the code."""
    env = {**ENV, "PYTHONPYCACHEPREFIX": str(tmp_path_factory.mktemp("pycache"))}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = tmp_path_factory.mktemp("warm-up") / "report"
    for flags in ("", f"--format json --out {out}", f"--format csv --out {out}"):
        peak_rss_mb(f"verify --max-cases 1 {flags}", env)
    return env


def peak_rss_mb(argv: str, env: dict) -> tuple:
    """Run the CLI in a child through the probe: (its stdout, its peak RSS
    in MB)."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, *argv.split()],
        capture_output=True,
        env=env,
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
def test_json_report_memory_does_not_grow_with_the_document(tmp_path, probe_env):
    # 67,168 reports, 23.8 MB of JSON; building the document as one string
    # peaked at about 255 MB, a tuple per distinct row at 27.5 MB, and
    # holding every key's values, bounds and notes at 23.6 MB; holding each
    # chunk's derived columns until the sweep ends peaks at about 24.1 MB
    out = tmp_path / "m12d3.json"
    argv = "verify --max-ambient-dim 12 --max-degree 3 --max-codim 11"
    _, peak_mb = peak_rss_mb(argv + f" --max-cases 1000000 --format json --out {out}", probe_env)
    digest = sha256_file(out)
    assert digest == "03b10e704677b04b3fd4d18b5e046c8e85c80d9e976242248ae5e227a6e1468b"
    assert peak_mb < 28, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_frontier_csv_memory_grows_with_keys_not_reports(tmp_path, probe_env):
    # 429,953 reports of 1,520 cases from 120,025 rows of 209 keys, and
    # 47.6 MB of CSV; one report tuple per case and row peaked at 93 MB, a
    # tuple per distinct row at 63 MB, and the keys' value columns at about
    # 43 MB; read case by case, holding the text of keys with cases left,
    # it peaks at about 34 MB
    out = tmp_path / "m20d2.csv"
    argv = "verify --max-ambient-dim 20 --max-degree 2 --max-codim 19"
    _, peak_mb = peak_rss_mb(argv + f" --max-cases 1000000 --format csv --out {out}", probe_env)
    assert out.stat().st_size == 47_590_163
    digest = sha256_file(out)
    assert digest == "4845be49eab6fa788c2b08dd39997ab98a27e1c410ce9d15baa85320b462715b"
    assert peak_mb < 38, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_frontier_summary_memory_holds_only_keys_with_cases_left(probe_env):
    # 1,474,549 reports of 2,576 cases from 299 keys; holding every key's
    # value columns peaked at about 52 MB, and holding the counts and
    # unsatisfied or degenerate rows of keys with cases left peaks at about
    # 26 MB, some 15 MB of it the interpreter and its imports
    argv = "verify --max-ambient-dim 24 --max-degree 2 --max-codim 23 --max-cases 1000000"
    out, peak_mb = peak_rss_mb(argv, probe_env)
    assert out == "cases=2576 truncated=false reports=1474549 flagged=46 violations=0\n"
    assert peak_mb < 32, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_frontier_d4_summary_memory_holds_no_list_of_cases(probe_env):
    # 20,360,719 reports of 98,256 cases from 17,549 keys; listing every case
    # and its key position up front peaked at about 66 MB, and walking the
    # grid one block at a time, holding only the positions of keys with
    # cases left, peaks at about 43 MB
    argv = "verify --max-ambient-dim 24 --max-degree 4 --max-codim 23 --max-cases 1000000"
    out, peak_mb = peak_rss_mb(argv, probe_env)
    assert out == "cases=98256 truncated=false reports=20360719 flagged=46 violations=0\n"
    assert peak_mb < 52, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets RLIMIT_AS")
def test_a_huge_max_codim_costs_nothing():
    # the blocks of P^m reach codimension m - 1 at most; a walk that sized
    # anything by max_codim itself would not fit in 1 GiB or end in 30 s
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = "verify --max-codim 1000000000000000000 --max-cases 10"
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", *argv.split()],
        capture_output=True,
        env=ENV,
        preexec_fn=limit,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == b"cases=10 truncated=true reports=140 flagged=2 violations=0\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_wide_csv_memory_holds_a_chunk_of_keys_not_a_block(probe_env):
    # 3,059 keys, 1,820 of them one block (the curves cut by four factors in
    # P^5). Run alternately, computing one key at a time peaked at 17.4 MB
    # and chunks of 24 keys at 17.6 MB (17.2-17.5 and 17.4-17.75 MB across
    # batches of runs); one chunk for a whole block peaked at 22.0 MB. The
    # bound is the one-key reading plus 0.5 MB. On a 2-vCPU Linux guest with
    # Python 3.11.7, 12 alternating runs read 16.26 MB (16.24-16.34) at 24
    # keys a chunk and 16.90 MB (16.84-17.09) at 2,048 rows a chunk, 204
    # curves; 1,024 rows read 16.56 MB. Those runs compiled charbound from
    # source; through probe_env the same tree reads 16.79 MB (16.70-16.89),
    # and without argparse at start-up 16.23 MB (16.23-16.31)
    golden = GOLDEN["wide-csv"]
    peaks = []
    for _ in range(3):
        out, peak_mb = peak_rss_mb(golden["argv"], probe_env)
        assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]
        peaks.append(peak_mb)
    # about one run in ten peaks 0.5-1.0 MB above the others
    assert min(peaks) < 17.9, f"peak RSS {min(peaks):.2f} MB, least of {peaks}"
