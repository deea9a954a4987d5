import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
import util
from netsumm import centrality, evaluate, graph, preprocess, summarize
from netsumm.centrality import ALL_MEASURES, HIGHEST, CentralityResult
from netsumm.corpus import SummaryBudget
from netsumm.errors import (ConvergenceError, InvalidParameter,
                            InvalidReference, SingularMatrix)
from netsumm.evaluate import (DEFAULT_ALPHAS, DEFAULT_RS, CorrelationMatrix,
                              EvaluationReport, SweepGrid, SweepRow,
                              _corr_point, grid_summaries, rouge1_recall,
                              rouge_tokens, run_sweep, spearman_matrix,
                              write_best_csv, write_correlations_csv,
                              write_curves, write_report_csv)
from netsumm.summarize import Summary, prepare_cluster

SMALL = SweepGrid(alphas=(1.0,), rs=(0.2,), measures=("dg", "stg"),
                  ards=("none",))


def test_rouge_tokens():
    assert rouge_tokens("The cat, 2nd time!") == ["the", "cat", "2nd", "time"]


def test_rouge1_recall_identities():
    assert rouge1_recall("the cat sat", ["the cat sat"]) == 1.0
    assert rouge1_recall("dogs bark", ["cats meow"]) == 0.0
    assert rouge1_recall("the cat sat", ["the cat ran fast"]) == 0.5


def test_rouge1_recall_clips_candidate_counts():
    assert rouge1_recall("the the the", ["the cat"]) == 0.5


def test_rouge1_recall_aggregation():
    refs = ["a", "c"]
    assert rouge1_recall("a b", refs) == 0.5
    assert rouge1_recall("a b", refs, aggregate="max") == 1.0
    with pytest.raises(InvalidParameter):
        rouge1_recall("a", refs, aggregate="median")


def test_rouge1_recall_reference_errors():
    with pytest.raises(InvalidReference):
        rouge1_recall("a", [])
    with pytest.raises(InvalidReference):
        rouge1_recall("a", ["..."])


def test_run_sweep_scores_each_distinct_summary_once(toy_corpus,
                                                     monkeypatch):
    summaries, scored = [], []
    recalls, select = evaluate.RougeReferences.recalls, summarize.select

    def recorded_select(*args, **kwargs):
        summaries.append(select(*args, **kwargs))
        return summaries[-1]

    def counted(references, counts, aggregate):
        # the rows are the distinct summaries', in the order first selected
        distinct = list({summ.selected: summ for summ in summaries}.values())
        for row in counts:
            summary = distinct[len(scored)]
            assert np.array_equal(row, references.counts(
                rouge_tokens(summary.text)))
            scored.append(summary.selected)
        return recalls(references, counts, aggregate)

    monkeypatch.setattr(summarize, "select", recorded_select)
    monkeypatch.setattr(evaluate.RougeReferences, "recalls", counted)
    grid = SweepGrid(alphas=(0.5, 1.0), rs=(0.2, 0.3),
                     measures=("dg", "stg", "pr"), ards=("none", "AR1"))
    report = run_sweep(toy_corpus[:1], grid)
    assert scored
    assert len(scored) == len(set(scored)) \
        == len({summ.selected for summ in summaries}) < len(report.rows)


def test_run_sweep_checks_aggregate_and_jobs_first(toy_corpus, monkeypatch):
    def no_preparation(cluster):
        raise AssertionError("a cluster was prepared")

    monkeypatch.setattr(summarize, "prepare_cluster", no_preparation)
    grid = SweepGrid(alphas=(1.0,), rs=(0.2,), measures=("dg",))
    for kwargs in (dict(aggregate="median"), dict(jobs=0), dict(jobs=-3)):
        with pytest.raises(InvalidParameter):
            run_sweep(toy_corpus, grid, **kwargs)


def _result(measure, scores):
    return CentralityResult(measure, scores, HIGHEST)


def test_spearman_matrix_monotone_pairs():
    up = _result("dg", [1.0, 2.0, 3.0])
    up2 = _result("stg", [2.0, 4.0, 9.0])
    down = _result("sp", [5.0, 3.0, 1.0])
    m = spearman_matrix([up, up2, down])
    assert m.labels == ("dg", "stg", "sp")
    assert m.values[0, 1] == pytest.approx(1.0)
    assert m.values[0, 2] == pytest.approx(-1.0)
    assert np.array_equal(np.diag(m.values), np.ones(3))
    assert np.array_equal(m.values, m.values.T)


def test_spearman_matrix_constant_vector_is_nan():
    m = spearman_matrix([_result("dg", [1.0, 1.0]),
                         _result("stg", [1.0, 2.0])])
    assert math.isnan(m.values[0, 1])
    assert m.values[0, 0] == 1.0


def test_spearman_matrix_node_set_mismatch():
    # scores are indexed by node, so a result over another node set has
    # another length
    with pytest.raises(InvalidParameter, match="different numbers of nodes"):
        spearman_matrix([_result("dg", [1.0, 2.0]),
                         _result("stg", [1.0, 2.0, 3.0])])


def test_spearman_matches_hand_rho_with_ties():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        x = [float(v) for v in rng.integers(0, 4, n)]
        y = [float(v) for v in rng.integers(0, 4, n)]
        m = spearman_matrix([
            _result("dg", x),
            _result("stg", y)])
        want = oracles.spearman_rho(x, y)
        if want is None:
            assert math.isnan(m.values[0, 1])
        else:
            assert m.values[0, 1] == pytest.approx(want, abs=1e-12)


def _scipy_spearman_matrix(vectors):
    """The reference: scipy's spearmanr per pair, NaN where a vector is
    constant."""
    from scipy.stats import spearmanr
    k = len(vectors)
    want = np.full((k, k), np.nan)
    np.fill_diagonal(want, 1.0)
    for i in range(k):
        for j in range(i + 1, k):
            x, y = vectors[i], vectors[j]
            if not (np.all(x == x[0]) or np.all(y == y[0])):
                want[i, j] = want[j, i] = spearmanr(x, y).statistic
    return want


def test_spearman_matrix_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    labels = ("dg", "stg", "pr", "absT", "gAccess")
    for trial in range(200):
        n = int(rng.integers(2, 301))
        vectors = []
        for _ in labels:
            levels = int(rng.integers(1, 6)) if trial % 2 else n
            x = rng.integers(0, levels, n).astype(float)
            x[rng.random(n) < 0.1] = np.inf
            x[rng.random(n) < 0.1] = -np.inf
            vectors.append(x)
        if trial % 10 == 9:   # the last trial among them
            vectors[1][int(rng.integers(n))] = np.nan
        got = spearman_matrix([_result(m, x)
                               for m, x in zip(labels, vectors)])
        want = _scipy_spearman_matrix(vectors)
        assert np.array_equal(got.values.view(np.int64),
                              want.view(np.int64)), trial
    # a NaN score propagates to every pair of its vector
    assert np.isnan(got.values[1, [0, 2, 3, 4]]).all()


def test_write_lines_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("old\n", encoding="utf-8")
    # a lone surrogate cannot be encoded: the write fails after the open
    with pytest.raises(UnicodeEncodeError):
        evaluate.write_lines(target, ["new", "\udc80"])
    assert target.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.iterdir()) == [target]
    evaluate.write_lines(target, ["new"])
    assert target.read_text(encoding="utf-8") == "new\n"
    assert list(tmp_path.iterdir()) == [target]


def test_sweep_grid_validation():
    for bad in (dict(alphas=()), dict(alphas=(0.0,)), dict(rs=(1.0,)),
                dict(alphas=(math.nan,)), dict(alphas=(1.0, math.inf)),
                dict(measures=("dg", "nope")), dict(ards=("AR9",)),
                dict(alphas=(1.0, 1.5, 1)), dict(rs=(0.2, 0.2)),
                dict(measures=("dg", "pr", "dg")), dict(ards=("AR1", "AR1"))):
        with pytest.raises(InvalidParameter):
            SweepGrid(**bad)
    with pytest.raises(InvalidParameter, match="h must be >= 1, got 0"):
        SweepGrid(h=0)
    for h in (2.5, True):
        with pytest.raises(InvalidParameter,
                           match=f"h must be an integer, got {h!r}"):
            SweepGrid(h=h)
    with pytest.raises(InvalidParameter, match="--alpha lists 1"):
        SweepGrid(alphas=(1.0, 1))


def test_sweep_grid_cells_shape():
    cells = list(SweepGrid().cells())
    # 5 weighted measures x 8 alphas x 3 ards + 6 unweighted x 8 x 5 x 3
    assert len(cells) == 5 * 8 * 3 + 6 * 8 * 5 * 3 == 840
    assert all(r is None for m, _, r, _ in cells if m == "stg")
    assert {r for m, _, r, _ in cells if m == "dg"} == set(DEFAULT_RS)


def test_corr_point_prefers_grid_midpoints():
    # default alphas lack 1.0, so the alpha midpoint wins; 0.3 is present
    assert _corr_point(SweepGrid()) == (1.3, 0.3)
    assert _corr_point(SweepGrid(alphas=(0.5, 1.0, 1.5))) == (1.0, 0.3)
    grid = SweepGrid(alphas=(0.5, 0.7), rs=(0.1, 0.2))
    assert _corr_point(grid) == (0.7, 0.2)


def test_run_sweep_small_grid(toy_corpus):
    report = run_sweep(toy_corpus, SMALL)
    assert report.cluster_ids == ("c01", "c02")
    assert len(report.rows) == 2
    by_measure = {row.measure: row for row in report.rows}
    assert by_measure["dg"].r == 0.2 and by_measure["stg"].r is None
    for row in report.rows:
        assert 0.0 <= row.rouge1 <= 1.0
        assert [cid for cid, _, _ in row.per_cluster] == ["c01", "c02"]
        scores = [s for _, s, _ in row.per_cluster]
        assert row.rouge1 == pytest.approx(sum(scores) / len(scores))
    assert {row.measure for row in report.best} == {"dg", "stg"}
    assert report.correlations.labels == ("dg", "stg")


def test_run_sweep_rejects_empty_corpus():
    with pytest.raises(InvalidParameter):
        run_sweep([], SMALL)


def test_run_sweep_is_deterministic(toy_corpus):
    a = run_sweep(toy_corpus, SMALL)
    b = run_sweep(toy_corpus, SMALL)
    assert a.rows == b.rows and a.best == b.best
    assert np.array_equal(a.correlations.values, b.correlations.values,
                          equal_nan=True)


def test_run_sweep_parallel_matches_serial(toy_corpus):
    a = run_sweep(toy_corpus, SMALL)
    b = run_sweep(toy_corpus, SMALL, jobs=2)
    assert a.rows == b.rows


def test_run_sweep_skips_impossible_cells(toy_corpus):
    # chars:1 cannot hold any sentence: every cell skips, best is empty
    starved = [replace(toy_corpus[0], budget=SummaryBudget("chars", 1))]
    report = run_sweep(starved, SMALL)
    for row in report.rows:
        assert row.rouge1 is None
        assert row.per_cluster[0][2] == "skip:EmptySummary"
    assert report.best == ()


def _fail_in_cluster(monkeypatch, cluster_id, measure, exc):
    """Make centrality.compute raise exc for one measure of one cluster."""
    current = {}
    build_sentences = preprocess.build_sentences
    compute = centrality.compute

    def tracking(cluster, res):
        current["id"] = cluster.id
        return build_sentences(cluster, res)

    def failing(m, g, h=2):
        if m == measure and current["id"] == cluster_id:
            raise exc
        return compute(m, g, h)

    monkeypatch.setattr(preprocess, "build_sentences", tracking)
    monkeypatch.setattr(centrality, "compute", failing)


def test_run_sweep_isolates_centrality_failures(toy_corpus, monkeypatch):
    _fail_in_cluster(monkeypatch, "c02", "pr",
                     ConvergenceError("no convergence", 7))
    grid = SweepGrid(alphas=(0.5, 1.0), rs=(0.2, 0.3),
                     measures=("dg", "pr", "stg"), ards=("none", "AR1"))
    report = run_sweep(toy_corpus, grid)
    assert len(report.rows) == len(list(grid.cells()))
    for row in report.rows:
        cells = {cid: (score, note) for cid, score, note in row.per_cluster}
        assert cells["c01"][0] is not None
        if row.measure == "pr":
            assert cells["c02"] == (None, "skip:ConvergenceError")
            assert row.rouge1 == cells["c01"][0]
        else:
            assert cells["c02"][0] is not None
    # c02 has no pr ranking: the averaged correlations fall back to c01's
    corr = report.correlations
    assert corr.labels == ("dg", "pr", "stg")
    assert not np.isnan(corr.values).any()


def test_run_sweep_isolates_a_failing_sym(toy_corpus, monkeypatch):
    _fail_in_cluster(monkeypatch, "c01", "sym", SingularMatrix("singular"))
    grid = SweepGrid(alphas=(1.0,), rs=(0.3,),
                     measures=("sym", "sym_low", "dg"), ards=("none",))
    report = run_sweep(toy_corpus, grid)
    notes = {row.measure: row.per_cluster[0] for row in report.rows}
    assert notes["sym"] == ("c01", None, "skip:SingularMatrix")
    assert notes["sym_low"] == ("c01", None, "skip:SingularMatrix")
    assert notes["dg"][1] is not None


def test_run_sweep_caps_jobs_at_cluster_count(toy_path):
    assert util.run_in_fresh_interpreter(
        "import sys\n"
        "from netsumm import load_corpus\n"
        "from netsumm.evaluate import SweepGrid, run_sweep\n"
        "grid = SweepGrid(alphas=(1.0,), rs=(0.2,), measures=('dg', 'stg'),"
        " ards=('none',))\n"
        "report = run_sweep(load_corpus(sys.argv[1])[:1], grid, jobs=8)\n"
        "print(report.cluster_ids,"
        " all(row.rouge1 is not None for row in report.rows),"
        " 'concurrent.futures.process' in sys.modules)\n", [toy_path]) \
        == "('c01',) True False"


def test_run_sweep_single_measure_has_no_correlations(toy_corpus):
    grid = SweepGrid(alphas=(1.0,), rs=(0.2,), measures=("dg",),
                     ards=("none",))
    report = run_sweep(toy_corpus, grid)
    assert report.correlations.labels == ("dg",)
    assert report.correlations.values[0, 0] == 1.0


def _tiny_report():
    rows = (
        SweepRow("dg", 1.0, 0.2, "none", 0.40, (("c01", 0.40, ""),)),
        SweepRow("dg", 1.0, 0.2, "AR1", 0.60, (("c01", 0.60, ""),)),
        SweepRow("dg", 1.0, 0.4, "none", None, (("c01", None, "skip:X"),)),
        SweepRow("stg", 1.0, None, "none", 0.55, (("c01", 0.55, ""),)),
    )
    corr = CorrelationMatrix(("dg", "stg"),
                             np.array([[1.0, np.nan], [np.nan, 1.0]]))
    return EvaluationReport(rows, ("c01",), corr, (rows[1], rows[3]))


def test_write_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(_tiny_report(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "measure,alpha,r,ard,rouge1_mean,c01"
    assert lines[1] == "dg,1,0.2,none,0.400000,0.400000"
    assert lines[3] == "dg,1,0.4,none,,skip:X"
    assert lines[4] == "stg,1,--,none,0.550000,0.550000"


def test_write_best_csv_schema(tmp_path):
    path = tmp_path / "best.csv"
    write_best_csv(_tiny_report(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "Meas.,α,r,ARD,RG-1"
    assert lines[1] == "dg,1,0.2,AR1,0.6000"
    assert lines[2] == "stg,1,--,none,0.5500"


def test_write_correlations_csv(tmp_path):
    path = tmp_path / "correlations.csv"
    write_correlations_csv(_tiny_report(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "measure,dg,stg"
    assert lines[1] == "dg,1.000000,"     # NaN prints as an empty cell
    assert lines[2] == "stg,,1.000000"


def test_write_curves_takes_best_over_ards(tmp_path):
    written = write_curves(_tiny_report(), tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["curve_dg.csv", "curve_stg.csv"]
    lines = (tmp_path / "curve_dg.csv").read_text("utf-8").splitlines()
    assert lines[0] == "alpha,r,rouge1_mean"
    assert lines[1] == "1,0.2,0.600000"   # max of the none/AR1 variants
    assert len(lines) == 2                # the all-skip point is dropped


def test_prepared_records_are_numbered_by_position(toy_corpus):
    # node i, scores[i] and selected id i all name records[i]
    assert len(toy_corpus) == 2
    for cluster in toy_corpus:
        records = prepare_cluster(cluster).records
        assert [rec.global_id for rec in records] == list(range(len(records)))


def test_grid_summaries_yields_each_graph_once(toy_corpus):
    prepared = prepare_cluster(toy_corpus[0])
    grid = SweepGrid(alphas=(0.5, 1.9), rs=(0.1, 0.3),
                     measures=("dg", "stg", "sym", "access"), ards=("none",),
                     h=9)
    groups = list(grid_summaries(prepared, grid, toy_corpus[0].budget))
    assert [(alpha, r, g.weighted, list(cells))
            for alpha, r, g, cells in groups] == [
        (0.5, None, True, ["stg", "sym"]),
        (0.5, 0.1, False, ["dg", "access"]),
        (0.5, 0.3, False, ["dg", "access"]),
        (1.9, None, True, ["stg", "sym"]),
        (1.9, 0.1, False, ["dg", "access"]),
        (1.9, 0.3, False, ["dg", "access"])]
    assert groups[0][3]["sym"][0] is groups[3][3]["sym"][0]  # once per cluster
    # a failing measure yields its error; the others still rank
    assert isinstance(groups[1][3]["access"], InvalidParameter)
    ranking, outcomes = groups[1][3]["dg"]
    assert isinstance(ranking, CentralityResult)
    [(ard, summary)] = outcomes
    assert ard == "none" and isinstance(summary, Summary)


def test_grid_summaries_computes_hops_once_per_graph(toy_corpus, monkeypatch):
    hop_matrix, counted = graph._hop_matrix, []

    def counting(adjacency):
        counted.append(adjacency.shape)
        return hop_matrix(adjacency)

    monkeypatch.setattr(graph, "_hop_matrix", counting)
    prepared = prepare_cluster(toy_corpus[0])
    grid = SweepGrid(alphas=(0.5, 1.9), rs=(0.1, 0.3),
                     measures=("sp", "absT", "sym", "sp_w"), ards=("none",))
    for *_, cells in grid_summaries(prepared, grid, toy_corpus[0].budget):
        assert all(isinstance(cell[0], CentralityResult)
                   for cell in cells.values())
    # sym's on the base graph, then sp and absT share each thresholded one
    assert len(counted) == 1 + 2 * 2
