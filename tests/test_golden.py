"""Byte-for-byte golden snapshot of the CLI outputs on the toy corpus.

The oracle tests compare scores within a tolerance; a 1-ulp change can
still flip a tie in a ranking, in the floor-at-cut of remove_weakest or in
the strict comparisons of AR1/AR2, and so change a summary. These files
were written by the code before the float rewrite of the walk measures
and must never be regenerated to make this test pass.
"""

from pathlib import Path

import pytest

from netsumm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _assert_same_files(golden_dir: Path, out_dir: Path):
    names = sorted(p.name for p in golden_dir.iterdir())
    assert names
    for name in names:
        assert (out_dir / name).read_bytes() == \
            (golden_dir / name).read_bytes(), name


def test_evaluate_matches_golden(toy_path, tmp_path, capsys):
    assert main(["evaluate", "--corpus", str(toy_path),
                 "--out", str(tmp_path), "--jobs", "1"]) == 0
    _assert_same_files(GOLDEN / "evaluate", tmp_path)


@pytest.mark.parametrize("h", [2, 3])
def test_summarize_walk_measures_match_golden(toy_path, tmp_path, capsys, h):
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path),
                 "--measure", "access,sym,sym_low",
                 "--alpha", "0.5,1.0,1.9", "--r", "0.1,0.3",
                 "--ard", "none,AR1,AR2", "--h", str(h)]) == 0
    golden_dir = GOLDEN / f"summarize_h{h}"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in golden_dir.iterdir())
    _assert_same_files(golden_dir, tmp_path)
