"""Byte-for-byte golden snapshot of the CLI outputs on the toy corpus.

The oracle tests compare scores within a tolerance; a 1-ulp change can
still flip the floor-at-cut of remove_weakest or the strict comparisons of
AR1/AR2, or split a tie that straddles a 12-digit rounding boundary, and
so change a summary. Each set of files was written by the code before the
rewrite it guards (the float walk measures; the array-backed graph; the
1/k walk shares) and must never be regenerated to make these tests pass.
The current files are the outputs of the commit "Rank on scores snapped
to 12 significant digits": the next commit rewrote the summaries,
report.csv, best.csv and correlations.csv whose bytes that code changed;
every other file, the score tables, edge lists and similarity matrix
included, already held that code's output.

summarize_pt and evaluate_pt hold the outputs on fixtures/pt, a Portuguese
cluster with accented capitals, "Sr.", "3.5", a period after a newline and
no-break spaces, so they pin fold's non-ASCII path and the pt resources.
They were written by the code before the one-pass segmenter.
"""

from pathlib import Path

import pytest

from conftest import FIXTURES
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


def test_summarize_dumps_match_golden(toy_path, tmp_path, capsys):
    """Every measure's summaries, score tables, edge lists and the
    similarity matrix."""
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path),
                 "--measure", "dg,stg,pr,pr_w,sp,sp_w,access,gAccess,sym,"
                              "sym_low,absT",
                 "--alpha", "0.5,1.9", "--r", "0.1,0.3",
                 "--ard", "none,AR1,AR2",
                 "--dump-sim", "--dump-graph", "--dump-scores"]) == 0
    golden_dir = GOLDEN / "summarize_all"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in golden_dir.iterdir())
    _assert_same_files(golden_dir, tmp_path)


@pytest.mark.parametrize("name, flags", [
    ("dump_graph", ["--alpha", "1.0"]),
    ("dump_graph_r0.3", ["--alpha", "1.0", "--r", "0.3"])])
def test_dump_graph_matches_golden(toy_path, tmp_path, capsys, name, flags):
    """The alpha-level and the thresholded edge lists of --dump-graph."""
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path), "--dump-graph"] + flags) == 0
    _assert_same_files(GOLDEN / name, tmp_path)


def test_pt_summarize_matches_golden(tmp_path, capsys):
    assert main(["summarize", "--corpus", str(FIXTURES / "pt"),
                 "--out", str(tmp_path), "--ard", "none,AR1,AR2",
                 "--dump-scores", "--dump-sim"]) == 0
    golden_dir = GOLDEN / "summarize_pt"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in golden_dir.iterdir())
    _assert_same_files(golden_dir, tmp_path)


def test_pt_evaluate_matches_golden(tmp_path, capsys):
    assert main(["evaluate", "--corpus", str(FIXTURES / "pt"),
                 "--out", str(tmp_path), "--jobs", "1"]) == 0
    golden_dir = GOLDEN / "evaluate_pt"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in golden_dir.iterdir())
    _assert_same_files(golden_dir, tmp_path)


def test_languages_share_no_word_forms_within_a_process(tmp_path, capsys):
    """Each language's word-form table lives as long as the process; runs
    that alternate languages still match their goldens byte for byte."""
    runs = [("pt", ["--ard", "none,AR1,AR2", "--dump-scores", "--dump-sim"],
             "summarize_pt"),
            ("toy", ["--measure", "access,sym,sym_low",
                     "--alpha", "0.5,1.0,1.9", "--r", "0.1,0.3",
                     "--ard", "none,AR1,AR2", "--h", "2"], "summarize_h2")]
    for k, (corpus, flags, golden) in enumerate(runs + runs[:1]):
        out = tmp_path / str(k)
        assert main(["summarize", "--corpus", str(FIXTURES / corpus),
                     "--out", str(out)] + flags) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(p.name for p in (GOLDEN / golden).iterdir())
        _assert_same_files(GOLDEN / golden, out)
