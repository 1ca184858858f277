"""Fresh-process determinism: `charbound verify` reproduces the golden digests.

Each case runs the CLI in a new interpreter, so no lru_cache is warm, and
compares the sha256 of its stdout with the digest recorded in
perfbench/golden.json. The test only reads that file.
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


@pytest.mark.parametrize(
    "entry", ["default-json", "default-csv", "deep-json", "wide-csv"]
)
def test_fresh_process_output_matches_golden_digest(entry):
    golden = GOLDEN[entry]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "charbound", *golden["argv"].split()],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert len(proc.stdout) == golden["bytes"]
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"]
