import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netsumm
from netsumm import graph, load_corpus
from netsumm.cli import main
from netsumm.evaluate import rouge1_recall

EVAL_FLAGS = ["--alpha", "1.0", "--r", "0.2", "--measure", "dg,stg",
              "--ard", "none"]


def _mini_corpus(tmp_path, with_refs=True):
    root = tmp_path / "corpus"
    cdir = root / "c1"
    (cdir / "docs").mkdir(parents=True)
    (cdir / "manifest").write_text("budget = words:12\n", encoding="utf-8")
    (cdir / "docs" / "a.txt").write_text(
        "The river flooded the town. Crews rescued stranded families.",
        encoding="utf-8")
    (cdir / "docs" / "b.txt").write_text(
        "Flooding from the river closed roads. Families were rescued.",
        encoding="utf-8")
    if with_refs:
        (cdir / "refs").mkdir()
        (cdir / "refs" / "r1.txt").write_text(
            "The river flooded the town and families were rescued.",
            encoding="utf-8")
    return root


def _no_shared_word(cdir):
    """Rewrite cluster dir cdir so its two documents share no word: every
    similarity is zero and preparing the cluster raises EmptyGraph."""
    for doc in (cdir / "docs").iterdir():
        doc.unlink()
    (cdir / "docs" / "a.txt").write_text(
        "The river flooded the town. Crews rescued stranded families.",
        encoding="utf-8")
    (cdir / "docs" / "b.txt").write_text(
        "Markets rallied sharply today. Investors cheered quarterly earnings.",
        encoding="utf-8")


def test_bad_corpus_path_exits_2(tmp_path, capsys):
    code = main(["summarize", "--corpus", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_evaluate_without_references_exits_3(tmp_path, capsys):
    root = _mini_corpus(tmp_path, with_refs=False)
    code = main(["evaluate", "--corpus", str(root),
                 "--out", str(tmp_path / "out")] + EVAL_FLAGS)
    assert code == 3
    assert "c1" in capsys.readouterr().err


def test_missing_out_exits_1(tmp_path, capsys):
    root = _mini_corpus(tmp_path)
    assert main(["summarize", "--corpus", str(root)]) == 1
    assert "--out" in capsys.readouterr().err


def test_unknown_measure_exits_1(tmp_path, capsys):
    root = _mini_corpus(tmp_path)
    code = main(["evaluate", "--corpus", str(root),
                 "--out", str(tmp_path / "out"), "--measure", "betweenness"])
    assert code == 1
    assert "betweenness" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    root = _mini_corpus(tmp_path)
    code = main(["summarize", "--corpus", str(root),
                 "--out", str(tmp_path / "out"),
                 "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_summarize_writes_named_files(toy_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "dg", "--alpha", "1.0", "--r", "0.2",
                 "--ard", "none"])
    assert code == 0
    for cid in ("c01", "c02"):
        path = out / f"{cid}__dg__a1__r0.2__none.txt"
        assert path.is_file() and path.read_text("utf-8").strip()
    assert capsys.readouterr().out.count("wrote ") == 2


def test_summarize_weighted_measure_skips_r(toy_path, tmp_path):
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "stg", "--alpha", "1.0", "--ard", "none"]) == 0
    assert (out / "c01__stg__a1__r--__none.txt").is_file()


def test_summarize_budget_override_respected(toy_path, tmp_path):
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "dg", "--alpha", "1.0", "--r", "0.2",
                 "--ard", "none", "--budget", "words:20"]) == 0
    text = (out / "c01__dg__a1__r0.2__none.txt").read_text("utf-8")
    assert len(text.split()) <= 20


def test_summarize_unsatisfiable_budget_fails(toy_path, tmp_path, capsys):
    # every c01 sentence runs past 10 words, so selection starves
    code = main(["summarize", "--corpus", str(toy_path), "--out",
                 str(tmp_path / "out"), "--measure", "dg", "--alpha", "1.0",
                 "--r", "0.2", "--ard", "none", "--budget", "words:10"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_summarize_dump_flags(toy_path, tmp_path):
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "dg", "--alpha", "1.0", "--r", "0.2",
                 "--ard", "none", "--dump-sim", "--dump-graph",
                 "--dump-scores"]) == 0
    assert (out / "c01__sim.csv").is_file()
    assert (out / "c01__a1__edges.csv").is_file()
    assert (out / "c01__dg__a1__r0.2__scores.csv").is_file()


def test_evaluate_writes_all_outputs(toy_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["evaluate", "--corpus", str(toy_path),
                 "--out", str(out), "--jobs", "1"] + EVAL_FLAGS)
    assert code == 0
    report = (out / "report.csv").read_text("utf-8").splitlines()
    assert report[0] == "measure,alpha,r,ard,rouge1_mean,c01,c02"
    assert len(report) == 3
    best = (out / "best.csv").read_text("utf-8").splitlines()
    assert best[0] == "Meas.,α,r,ARD,RG-1"
    assert (out / "correlations.csv").is_file()
    assert (out / "curve_dg.csv").is_file()
    assert (out / "curve_stg.csv").is_file()
    assert "evaluated 2 cells" in capsys.readouterr().out


def test_config_file_supplies_defaults(toy_path, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure = dg\nalpha = 1.0\nr = 0.2\nard = none\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert (out / "c01__dg__a1__r0.2__none.txt").is_file()


def test_flags_override_config(toy_path, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("measure = stg\nalpha = 1.0\nr = 0.2\nard = none\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--config", str(cfg), "--measure", "dg"]) == 0
    assert (out / "c01__dg__a1__r0.2__none.txt").is_file()
    assert not (out / "c01__stg__a1__r--__none.txt").exists()


@pytest.mark.parametrize("value, written", [("false", False), ("0", False),
                                            ("true", True), ("1", True),
                                            ("False", False)])
def test_config_booleans(toy_path, tmp_path, value, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dump-sim = {value}\ndump-graph = {value}\n"
                   f"dump-scores = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--config", str(cfg), "--measure", "dg", "--alpha", "1.0",
                 "--r", "0.2", "--ard", "none"]) == 0
    assert (out / "c01__sim.csv").is_file() == written
    assert (out / "c01__a1__edges.csv").is_file() == written
    assert (out / "c01__dg__a1__r0.2__scores.csv").is_file() == written


def test_config_boolean_flag_wins_over_false(toy_path, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dump-sim = false\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--config", str(cfg), "--dump-sim", "--measure", "dg",
                 "--alpha", "1.0", "--r", "0.2", "--ard", "none"]) == 0
    assert (out / "c01__sim.csv").is_file()


@pytest.mark.parametrize("key", ["dump-sim", "dump-graph", "dump-scores"])
def test_config_bad_boolean_exits_1(toy_path, tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = no\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--config", str(cfg), "--measure", "dg"]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_default_jobs_runs_one_cluster_in_process(tmp_path,
                                                           monkeypatch):
    from netsumm import evaluate

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one cluster")

    monkeypatch.setattr(evaluate, "ProcessPoolExecutor", no_pool)
    root = _mini_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["evaluate", "--corpus", str(root), "--out", str(out)]
                + EVAL_FLAGS) == 0
    assert (out / "report.csv").is_file()


def test_summarize_refuses_unbounded_h(toy_path, tmp_path, capsys):
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path / "out"), "--measure", "access",
                 "--alpha", "1.0", "--r", "0.1", "--ard", "none",
                 "--h", "9"]) == 1
    assert "self-avoiding walks" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, cfg_text, key", [
    ("summarize", [], "h = two\n", "h"),
    ("summarize", ["--h", "2.5"], "", "h"),
    ("evaluate", [], "jobs = many\n", "jobs"),
    ("evaluate", ["--jobs", "x"], "", "jobs"),
    ("summarize", ["--alpha", "1.0,big"], "", "alpha"),
    ("evaluate", [], "alpha = big\n", "alpha"),
    ("summarize", ["--r", "abc"], "", "r"),
    ("evaluate", [], "r = 0.1,abc\n", "r"),
    ("evaluate", [], "aggregate = median\n", "aggregate"),
    ("evaluate", ["--jobs", "-3"], "", "jobs"),
])
def test_non_numeric_value_exits_1(tmp_path, capsys, command, flags,
                                   cfg_text, key):
    root = _mini_corpus(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--corpus", str(root), "--out", str(out),
                 "--config", str(cfg)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("summarize", "measures"),
                                          ("evaluate", "budget"),
                                          ("summarize", "jobs")])
def test_unknown_config_key_exits_1(tmp_path, capsys, command, key):
    root = _mini_corpus(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = pr\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--corpus", str(root), "--out", str(out),
                 "--config", str(cfg)]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_evaluate_one_cluster_without_correlations_warns_nothing(tmp_path):
    # every sentence of the mini corpus has degree 1, so the dg-stg
    # correlation is NaN in its one cluster and NaN in the average
    root = _mini_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["evaluate", "--corpus", str(root), "--out", str(out),
                 "--jobs", "1"] + EVAL_FLAGS) == 0
    lines = (out / "correlations.csv").read_text(encoding="utf-8").split("\n")
    assert lines[1:3] == ["dg,1.000000,", "stg,,1.000000"]


def test_dump_sim_diagonal_of_an_empty_sentence_is_zero(tmp_path):
    root = _mini_corpus(tmp_path)
    (root / "c1" / "docs" / "a.txt").write_text(
        "The river flooded the town. It was so. "
        "Crews rescued stranded families.", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(root), "--out", str(out),
                 "--measure", "stg", "--alpha", "1.0", "--dump-sim"]) == 0
    rows = [line.split(",") for line in
            (out / "c1__sim.csv").read_text(encoding="utf-8").splitlines()]
    assert [row[k] for k, row in enumerate(rows)] == \
        ["1.000000", "0.000000", "1.000000", "1.000000", "1.000000"]
    assert set(rows[1]) == {"0.000000"}


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
def test_unsupported_language_exits_1_before_writing(toy_path, tmp_path,
                                                     capsys, command):
    out = tmp_path / "out"
    assert main([command, "--corpus", str(toy_path), "--out", str(out),
                 "--lang", "xx"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'xx'" in err
    assert not out.exists()


def test_summarize_removes_edges_once_per_alpha_and_r(toy_path, tmp_path,
                                                      monkeypatch):
    calls = []
    remove_weakest = graph.remove_weakest

    def counted(g, r):
        calls.append(r)
        return remove_weakest(g, r)

    monkeypatch.setattr(graph, "remove_weakest", counted)
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path / "out"), "--measure",
                 "dg,pr,sp,access", "--alpha", "1.0", "--r", "0.2"]) == 0
    assert calls == [0.2, 0.2]   # one per cluster of the toy corpus


def test_summarize_reports_a_failing_cluster_and_goes_on(toy_path, tmp_path,
                                                         capsys):
    root = tmp_path / "corpus"
    shutil.copytree(toy_path, root)
    _no_shared_word(root / "c01")
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(root), "--out", str(out),
                 "--measure", "dg", "--alpha", "1.0", "--r", "0.2",
                 "--ard", "none"]) == 1
    assert sorted(p.name for p in out.iterdir()) == \
        ["c02__dg__a1__r0.2__none.txt"]
    err = capsys.readouterr().err
    assert err.startswith("error: c01: ") and "similarities" in err


def test_evaluate_with_nothing_scored_exits_1(tmp_path, capsys):
    root = _mini_corpus(tmp_path)
    _no_shared_word(root / "c1")
    out = tmp_path / "out"
    assert main(["evaluate", "--corpus", str(root), "--out", str(out),
                 "--jobs", "1"] + EVAL_FLAGS) == 1
    captured = capsys.readouterr()
    assert "2 cells skipped: EmptyGraph×2" in captured.out
    assert captured.err.startswith("error:")
    report = (out / "report.csv").read_text("utf-8").splitlines()
    assert report[1:] == ["dg,1,0.2,none,,skip:EmptyGraph",
                          "stg,1,--,none,,skip:EmptyGraph"]
    assert (out / "best.csv").read_text("utf-8") == "Meas.,α,r,ARD,RG-1\n"


def test_evaluate_of_weighted_measures_removes_no_edge(toy_path, tmp_path,
                                                       monkeypatch):
    calls = []
    remove_weakest = graph.remove_weakest

    def counted(g, r):
        calls.append(r)
        return remove_weakest(g, r)

    monkeypatch.setattr(graph, "remove_weakest", counted)
    assert main(["evaluate", "--corpus", str(toy_path),
                 "--out", str(tmp_path / "out"), "--jobs", "1",
                 "--measure", "stg,pr_w", "--alpha", "0.5,1.0",
                 "--r", "0.1,0.2"]) == 0
    assert calls == []


def test_summaries_score_what_evaluate_reports(toy_path, tmp_path, capsys):
    grid = ["--measure", "dg,stg,pr,pr_w,sp,sp_w,access,gAccess,sym,"
                         "sym_low,absT",
            "--alpha", "0.5,1.9", "--r", "0.1,0.3", "--ard", "none,AR1,AR2"]
    assert main(["evaluate", "--corpus", str(toy_path),
                 "--out", str(tmp_path / "eval"), "--jobs", "1"] + grid) == 0
    assert main(["summarize", "--corpus", str(toy_path),
                 "--out", str(tmp_path / "sum")] + grid) == 0
    references = {c.id: c.references for c in load_corpus(toy_path)}
    lines = (tmp_path / "eval" / "report.csv").read_text("utf-8").splitlines()
    cluster_ids = lines[0].split(",")[5:]
    compared = 0
    for line in lines[1:]:
        measure, alpha, r, ard, _, *cells = line.split(",")
        for cid, cell in zip(cluster_ids, cells):
            text = (tmp_path / "sum" / f"{cid}__{measure}__a{alpha}__r{r}"
                    f"__{ard}.txt").read_text("utf-8")
            assert f"{rouge1_recall(text, references[cid]):.6f}" == cell
            compared += 1
    assert compared == 2 * (5 * 2 * 3 + 6 * 2 * 2 * 3)  # no cell skipped


def test_evaluate_rejects_repeated_grid_values(toy_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["evaluate", "--corpus", str(toy_path), "--out", str(out),
                 "--alpha", "1.0,1", "--measure", "dg", "--r", "0.2",
                 "--ard", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--alpha" in err
    assert not out.exists()


@pytest.mark.parametrize("command, alpha, flags", [
    ("evaluate", "nan", ["--measure", "dg,pr", "--r", "0.2", "--ard", "none",
                         "--jobs", "1"]),
    ("summarize", "inf", ["--measure", "stg"])])
def test_non_finite_alpha_exits_1_before_writing(toy_path, tmp_path, capsys,
                                                 command, alpha, flags):
    out = tmp_path / "out"
    assert main([command, "--corpus", str(toy_path), "--out", str(out),
                 "--alpha", alpha] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


def test_summarize_rejects_repeated_grid_values(toy_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "dg,dg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--measure" in err
    assert not out.exists()


def test_every_output_file_is_written_atomically(toy_path, tmp_path,
                                                  monkeypatch):
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    out = tmp_path / "out"
    assert main(["summarize", "--corpus", str(toy_path), "--out", str(out),
                 "--measure", "dg,stg", "--dump-sim", "--dump-graph",
                 "--dump-scores"]) == 0
    assert main(["evaluate", "--corpus", str(toy_path), "--out", str(out),
                 "--jobs", "1"] + EVAL_FLAGS) == 0
    written = sorted(out.iterdir())
    assert {p.name for p in written} >= {
        "report.csv", "best.csv", "correlations.csv", "curve_dg.csv",
        "c01__sim.csv", "c01__a1__edges.csv", "c01__dg__a1__r0.2__none.txt"}
    assert sorted(replaced) == written


def test_cold_start_never_imports_scipy_stats(toy_path, tmp_path):
    # a fresh interpreter, so an import made by another test cannot hide one
    script = (
        "import sys\n"
        "from netsumm.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'scipy.stats' in sys.modules)\n")
    out = tmp_path / "out"
    src = str(Path(netsumm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    done = subprocess.run(
        [sys.executable, "-c", script, "evaluate", "--corpus", str(toy_path),
         "--out", str(out), "--alpha", "1.0", "--r", "0.3",
         "--measure", "dg,stg,pr", "--ard", "none", "--jobs", "1"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"
    # the correlations were computed: some off-diagonal rho has a value
    rows = (out / "correlations.csv").read_text(encoding="utf-8").split("\n")
    assert any(cell and cell != "1.000000"
               for row in rows[1:] for cell in row.split(",")[1:])
