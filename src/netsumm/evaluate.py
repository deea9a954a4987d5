"""Cluster preparation, ROUGE-1 recall scoring, the (alpha, r) sweep, and
rank correlations.

grid_rankings is the one walk over the (alpha, r, measure) grid: it derives
each alpha-scaled and each thresholded graph once and ranks it with the
grid's measures. `summarize` writes files from its output and the sweep
scores it. The sweep evaluates every admissible (measure, alpha, r,
anti-redundancy) cell over all clusters of a corpus. Weighted-graph
measures do not use the edge-removal fraction r and occupy a single "--"
row per alpha; unweighted measures run once per r. Per-cluster failures
become skip notes on the cell, never an abort.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import centrality, graph, preprocess, summarize, tfidf
from .centrality import ALL_MEASURES, WEIGHTED_MEASURES
from .corpus import Cluster
from .errors import InvalidParameter, InvalidReference, NetsummError

_ROUGE_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_ALPHAS = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9)
DEFAULT_RS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_ARDS = ("none", "AR1", "AR2")
AGGREGATES = ("mean", "max")


@dataclass(frozen=True)
class PreparedCluster:
    """What every (alpha, r, measure, ard) cell of one cluster starts from.

    records[i] is node i of `base`; the base graph's W holds every pairwise
    tf-idf cosine, which `state` reads for AR1.
    """

    records: list
    base: graph.MultilayerGraph
    state: summarize.SelectionState


def prepare_cluster(cluster: Cluster) -> PreparedCluster:
    """Segment and normalize the cluster's sentences, vectorize them and
    build the base graph (alpha 1, no edge removed)."""
    res = preprocess.load_resources(cluster.language)
    records = preprocess.build_sentences(cluster, res)
    model = tfidf.fit(records, len(cluster.documents))
    vectors = [tfidf.vectorize(rec, model) for rec in records]
    base = graph.build(vectors, [rec.layer_index for rec in records])
    return PreparedCluster(records, base,
                           summarize.SelectionState(records, base.W))


def rouge_tokens(text: str) -> list:
    """Evaluation-side tokenization: lowercase alphanumeric runs, nothing
    else (no stemming, no stopword removal)."""
    return _ROUGE_TOKEN_RE.findall(text.lower())


class RougeReferences:
    """The reference summaries of one cluster as unigram count rows over
    their vocabulary, counted once for many candidates. Raises
    InvalidReference when there is no reference or one has no words."""

    def __init__(self, references: list):
        if not references:
            raise InvalidReference("need at least one reference summary")
        tokens = [rouge_tokens(ref) for ref in references]
        self.columns = {tok: k for k, tok in enumerate(
            dict.fromkeys(chain.from_iterable(tokens)))}
        self.rows = np.array([self.counts(toks) for toks in tokens])
        self.totals = [len(toks) for toks in tokens]
        if 0 in self.totals:
            raise InvalidReference("a reference summary has no words")

    def counts(self, tokens) -> np.ndarray:
        """The count row of a token sequence; tokens no reference holds are
        left out."""
        columns = [self.columns[tok] for tok in tokens if tok in self.columns]
        return np.bincount(columns, minlength=len(self.columns))

    def recall(self, counts: np.ndarray, aggregate: str) -> float:
        """ROUGE-1 recall of the candidate with count row `counts`: per
        reference, clipped hits over the reference length, combined in
        reference order by the mean or, for aggregate="max", the max."""
        hits = np.minimum(counts, self.rows).sum(axis=1).tolist()
        scores = [hit / total for hit, total in zip(hits, self.totals)]
        return max(scores) if aggregate == "max" else sum(scores) / len(scores)


def rouge1_recall(candidate: str, references: list,
                  aggregate: str = "mean") -> float:
    """Unigram recall of the candidate text against each reference text.

    Per reference: sum of clipped unigram counts over the reference length.
    Scores are combined with the arithmetic mean (or max when
    aggregate="max").
    """
    if aggregate not in AGGREGATES:
        raise InvalidParameter(f"unknown aggregate {aggregate!r}")
    refs = RougeReferences(references)
    return refs.recall(refs.counts(rouge_tokens(candidate)), aggregate)


# ---------------------------------------------------------------------------
# correlations

@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple
    values: np.ndarray  # square, NaN where undefined


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks
    (scipy's rankdata "average" rule, so the ranks are equal bit for bit)."""
    order = np.argsort(x, kind="mergesort")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    ordered = x[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = first.cumsum()[inverse]
    count = np.r_[np.nonzero(first)[0], first.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def spearman_matrix(results: list) -> CorrelationMatrix:
    """Tie-corrected Spearman rho between the measures' snapped score
    vectors (CentralityResult.snapped).

    All results must cover the same node set. A constant vector has no
    ranking, so its pairs are NaN (missing), never 0; so are the pairs of a
    vector holding a NaN. Diagonal is 1. Each vector is ranked once, and
    each rho is the Pearson correlation of two rank vectors, computed as
    scipy's spearmanr computes it.
    """
    labels = tuple(res.measure for res in results)
    nodes = sorted(results[0].scores) if results else []
    for res in results:
        if sorted(res.scores) != nodes:
            raise InvalidParameter(
                f"result {res.measure} covers a different node set")
    k = len(results)
    values = np.full((k, k), np.nan)
    vectors = [np.array([res.snapped[v] for v in nodes]) for res in results]
    ranks = [None if np.all(x == x[0]) or np.isnan(x).any()
             else _average_ranks(x) for x in vectors]
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            if ranks[i] is None or ranks[j] is None:
                continue
            rho = np.corrcoef(np.column_stack((ranks[i], ranks[j])),
                              rowvar=False)[1, 0]
            values[i, j] = values[j, i] = rho
    return CorrelationMatrix(labels, values)


# ---------------------------------------------------------------------------
# sweep plumbing

@dataclass(frozen=True)
class SweepGrid:
    alphas: tuple = DEFAULT_ALPHAS
    rs: tuple = DEFAULT_RS
    measures: tuple = ALL_MEASURES
    ards: tuple = DEFAULT_ARDS
    h: int = 2  # the walk length or level depth of access, sym, sym_low

    def __post_init__(self):
        if not (self.alphas and self.rs and self.measures and self.ards):
            raise InvalidParameter("grid lists must be non-empty")
        if self.h < 1:
            raise InvalidParameter(f"h must be >= 1, got {self.h}")
        if not all(math.isfinite(a) and a > 0 for a in self.alphas):
            raise InvalidParameter("alphas must be positive and finite")
        if any(not 0 <= r < 1 for r in self.rs):
            raise InvalidParameter("r values must be in [0, 1)")
        unknown = set(self.measures) - set(ALL_MEASURES)
        if unknown:
            raise InvalidParameter(f"unknown measures {sorted(unknown)}")
        unknown = set(self.ards) - set(summarize.AR_METHODS)
        if unknown:
            raise InvalidParameter(f"unknown anti-redundancy {sorted(unknown)}")
        for option, values in (("alpha", self.alphas), ("r", self.rs),
                               ("measure", self.measures), ("ard", self.ards)):
            # `in` compares numbers by value, so 1.0 repeats 1
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise InvalidParameter(
                    f"--{option} lists {repeated[0]} more than once")

    def cells(self):
        """Admissible (measure, alpha, r-or-None, ard) tuples in emit order."""
        for measure in self.measures:
            for alpha in self.alphas:
                rs = (None,) if measure in WEIGHTED_MEASURES else self.rs
                for r in rs:
                    for ard in self.ards:
                        yield measure, alpha, r, ard


@dataclass(frozen=True)
class SweepRow:
    measure: str
    alpha: float
    r: float | None
    ard: str
    rouge1: float | None
    per_cluster: tuple  # of (cluster_id, score-or-None, note)


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple
    cluster_ids: tuple
    correlations: CorrelationMatrix
    best: tuple = field(default=())


def _corr_point(grid: SweepGrid) -> tuple:
    """(alpha, r) the per-cluster correlation snapshot is taken at:
    1.0 and 0.3 when the grid holds them, its midpoints otherwise."""
    alpha = 1.0 if 1.0 in grid.alphas else grid.alphas[len(grid.alphas) // 2]
    r = 0.3 if 0.3 in grid.rs else grid.rs[len(grid.rs) // 2]
    return alpha, r


def _corr_snapshot(labels: tuple, results: dict) -> CorrelationMatrix | None:
    """Spearman matrix over `labels`; a measure missing from results (its
    ranking failed) gets NaN correlations."""
    present = [results[m] for m in labels if m in results]
    if len(present) < 2:
        return None
    corr = spearman_matrix(present)
    if len(present) == len(labels):
        return corr
    values = np.full((len(labels), len(labels)), np.nan)
    np.fill_diagonal(values, 1.0)
    idx = [labels.index(res.measure) for res in present]
    values[np.ix_(idx, idx)] = corr.values
    return CorrelationMatrix(labels, values)


def grid_rankings(prepared: PreparedCluster, grid: SweepGrid):
    """Every ranking of one cluster over the grid, one graph at a time.

    Per alpha, yields (alpha, None, g_alpha, {weighted measure: result});
    then, if the grid has an unweighted measure, (alpha, r, g_r,
    {unweighted measure: result}) for each r. A result is the measure's
    CentralityResult or the NetsummError it raised. An alpha that
    apply_alpha refuses on this cluster yields its error as every result
    of that alpha, with None for the graph. sym reads edge presence only,
    which alpha leaves as it is, so it is computed once, from the base
    graph.
    """
    def rank(measure, g):
        try:
            return centrality.compute(measure, g, grid.h)
        except NetsummError as exc:
            return exc

    weighted = [m for m in grid.measures if m in WEIGHTED_MEASURES]
    unweighted = [m for m in grid.measures if m not in WEIGHTED_MEASURES]
    alpha_free = {}
    if {"sym", "sym_low"} & set(grid.measures):
        sym = rank("sym", prepared.base)
        alpha_free = {"sym": sym, "sym_low": sym if isinstance(
            sym, NetsummError) else centrality.sym_low_from(sym)}
    for alpha in grid.alphas:
        try:
            g_alpha = graph.apply_alpha(prepared.base, alpha)
        except NetsummError as exc:
            yield alpha, None, None, dict.fromkeys(weighted, exc)
            for r in grid.rs if unweighted else ():
                yield alpha, r, None, dict.fromkeys(unweighted, exc)
            continue
        yield alpha, None, g_alpha, {
            m: alpha_free[m] if m in alpha_free else rank(m, g_alpha)
            for m in weighted}
        for r in grid.rs if unweighted else ():
            g_r = graph.remove_weakest(g_alpha, r)
            yield alpha, r, g_r, {m: rank(m, g_r) for m in unweighted}


def _skip(exc: NetsummError) -> str:
    return f"skip:{type(exc).__name__}"


def _evaluate_cluster(cluster: Cluster, grid: SweepGrid, aggregate: str
                      ) -> tuple:
    """All cell scores for one cluster: ({(measure, alpha, r, ard):
    (score|None, note)}, CorrelationMatrix|None)."""
    try:
        prepared = prepare_cluster(cluster)
    except NetsummError as exc:
        return {key: (None, _skip(exc)) for key in grid.cells()}, None

    try:
        references = RougeReferences(cluster.references)
    except NetsummError as exc:
        references, unscorable = None, (None, _skip(exc))
    else:
        # each sentence's count row; a summary's text joins its sentences
        # with spaces, so its row is the sum of theirs
        row_of = {rec.global_id: k for k, rec in enumerate(prepared.records)}
        sentence_rows = np.array([references.counts(rouge_tokens(
            rec.raw_text)) for rec in prepared.records])
    scored = {}  # Summary.selected -> (its ROUGE-1 recall, note)
    cells = {}
    corr_alpha, corr_r = _corr_point(grid)
    corr_results = {}
    for alpha, r, _, results in grid_rankings(prepared, grid):
        for measure, ranking in results.items():
            if isinstance(ranking, NetsummError):
                for ard in grid.ards:
                    cells[(measure, alpha, r, ard)] = (None, _skip(ranking))
                continue
            if alpha == corr_alpha and r in (None, corr_r) \
                    and measure != "sym_low":
                corr_results[measure] = ranking
            for ard in grid.ards:
                try:
                    selected = summarize.select(
                        prepared.records, ranking, cluster.budget,
                        summarize.RedundancyConfig(method=ard),
                        prepared.state).selected
                except NetsummError as exc:
                    cells[(measure, alpha, r, ard)] = (None, _skip(exc))
                    continue
                if references is None:
                    scored[selected] = unscorable
                elif selected not in scored:
                    rows = [row_of[gid] for gid in selected]
                    scored[selected] = (references.recall(
                        sentence_rows[rows].sum(axis=0), aggregate), "")
                cells[(measure, alpha, r, ard)] = scored[selected]

    labels = tuple(m for m in grid.measures if m != "sym_low")
    return cells, _corr_snapshot(labels, corr_results)


def check_sweep_options(aggregate: str, jobs: int) -> None:
    """Raise InvalidParameter unless aggregate is one of AGGREGATES and
    jobs is at least 1."""
    if aggregate not in AGGREGATES:
        raise InvalidParameter(
            f"aggregate must be {' or '.join(AGGREGATES)}, got {aggregate!r}")
    if jobs < 1:
        raise InvalidParameter(f"jobs must be at least 1, got {jobs}")


def run_sweep(clusters: list, grid: SweepGrid = SweepGrid(),
              aggregate: str = "mean", jobs: int = 1) -> EvaluationReport:
    """Evaluate the full grid over a corpus.

    Clusters run in `jobs` worker processes, at most one per cluster; with
    one, in this process. Emits one row per admissible cell with the
    per-cluster scores and their arithmetic mean, a per-measure best table,
    and the Spearman correlation matrix averaged entrywise over clusters
    (see _corr_point for the snapshot the correlations are taken at).
    """
    if not clusters:
        raise InvalidParameter("no clusters to evaluate")
    check_sweep_options(aggregate, jobs)
    jobs = min(jobs, len(clusters))
    if jobs > 1:
        # imported here: loading multiprocessing costs every run start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            evaluated = list(pool.map(
                _evaluate_cluster, clusters,
                [grid] * len(clusters), [aggregate] * len(clusters)))
    else:
        evaluated = [_evaluate_cluster(c, grid, aggregate)
                     for c in clusters]

    cluster_ids = tuple(c.id for c in clusters)
    rows = []
    for key in grid.cells():
        per_cluster = tuple((cid, *cells[key])
                            for cid, (cells, _) in zip(cluster_ids, evaluated))
        scores = [score for _, score, _ in per_cluster if score is not None]
        mean = sum(scores) / len(scores) if scores else None
        rows.append(SweepRow(*key, mean, per_cluster))

    best = []
    for measure in grid.measures:
        candidates = [row for row in rows
                      if row.measure == measure and row.rouge1 is not None]
        if candidates:
            best.append(max(candidates, key=lambda row: row.rouge1))

    matrices = [corr for _, corr in evaluated if corr is not None]
    correlations = _average_correlations(matrices, grid)
    return EvaluationReport(tuple(rows), cluster_ids, correlations,
                            tuple(best))


def _average_correlations(matrices: list, grid: SweepGrid
                          ) -> CorrelationMatrix:
    labels = tuple(m for m in grid.measures if m != "sym_low")
    k = len(labels)
    if not matrices:
        values = np.full((k, k), np.nan)
        np.fill_diagonal(values, 1.0)
        return CorrelationMatrix(labels, values)
    for m in matrices:
        if m.labels != labels:
            raise InvalidParameter("correlation labels differ across clusters")
    stack = np.stack([m.values for m in matrices])
    # np.nanmean's arithmetic, but a pair NaN in every cluster stays NaN
    # without a "Mean of empty slice" warning
    missing = np.isnan(stack)
    counts = (~missing).sum(axis=0)
    totals = np.where(missing, 0.0, stack).sum(axis=0)
    values = np.divide(totals, counts, out=np.full(totals.shape, np.nan),
                       where=counts > 0)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(labels, values)


# ---------------------------------------------------------------------------
# CSV emission

def write_lines(path, lines: list) -> None:
    """Write lines, each ended by a newline, to path as UTF-8 by way of a
    temp file in the same directory that replaces path when complete: a
    failed write leaves the old file, if any, and no temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def fmt_r(r) -> str:
    return "--" if r is None else f"{r:g}"


def _fmt_score(x, digits=6) -> str:
    return "" if x is None else f"{x:.{digits}f}"


def write_report_csv(report: EvaluationReport, path) -> None:
    lines = ["measure,alpha,r,ard,rouge1_mean,"
             + ",".join(report.cluster_ids)]
    for row in report.rows:
        cells = []
        for _, score, note in row.per_cluster:
            cells.append(_fmt_score(score) if score is not None else note)
        lines.append(f"{row.measure},{row.alpha:g},{fmt_r(row.r)},{row.ard},"
                     f"{_fmt_score(row.rouge1)}," + ",".join(cells))
    write_lines(path, lines)


def write_best_csv(report: EvaluationReport, path) -> None:
    lines = ["Meas.,α,r,ARD,RG-1"]
    for row in report.best:
        lines.append(f"{row.measure},{row.alpha:g},{fmt_r(row.r)},{row.ard},"
                     f"{_fmt_score(row.rouge1, 4)}")
    write_lines(path, lines)


def write_correlations_csv(report: EvaluationReport, path) -> None:
    corr = report.correlations
    lines = ["measure," + ",".join(corr.labels)]
    for label, rowvals in zip(corr.labels, corr.values):
        cells = ["" if math.isnan(v) else f"{v:.6f}" for v in rowvals]
        lines.append(label + "," + ",".join(cells))
    write_lines(path, lines)


def write_curves(report: EvaluationReport, out_dir) -> list:
    """One CSV per measure: alpha, r, mean rouge; returns written paths.

    Each (alpha, r) point reports the best mean over the anti-redundancy
    variants, so the curve matches the settings the best table would pick.
    """
    out = Path(out_dir)
    written = []
    for measure in dict.fromkeys(row.measure for row in report.rows):
        points: dict = {}
        for row in report.rows:
            if row.measure != measure or row.rouge1 is None:
                continue
            key = (row.alpha, row.r)
            if key not in points or row.rouge1 > points[key]:
                points[key] = row.rouge1
        lines = ["alpha,r,rouge1_mean"]
        for (alpha, r), mean in points.items():
            lines.append(f"{alpha:g},{fmt_r(r)},{_fmt_score(mean)}")
        path = out / f"curve_{measure}.csv"
        write_lines(path, lines)
        written.append(path)
    return written
