"""The benchmark harness under bench/ patches and reads netsumm names from
outside the package (bench/tracing.py wraps `summarize.select`,
`centrality.compute`, `summarize.ngram_similarity` and others, and reads
`g.edges`, `g.weighted` and `red.method`). Its self-check runs every
workload at minimal size, traced and untraced, so a rename or a signature
change that the harness does not follow fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck: PASS", done.stdout
