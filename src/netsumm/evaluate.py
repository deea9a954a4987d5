"""Cluster preparation, ROUGE-1 recall scoring, the (alpha, r) sweep, and
rank correlations.

The sweep evaluates every admissible (measure, alpha, r, anti-redundancy)
cell over all clusters of a corpus. Weighted-graph measures do not use the
edge-removal fraction r and occupy a single "--" row per alpha; unweighted
measures run once per r. Per-cluster failures become skip notes on the cell,
never an abort.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from . import centrality, graph, preprocess, summarize, tfidf
from .centrality import ALL_MEASURES, WEIGHTED_MEASURES, WalkParams
from .corpus import Cluster
from .errors import InvalidParameter, InvalidReference, NetsummError

_ROUGE_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_ALPHAS = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9)
DEFAULT_RS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_ARDS = ("none", "AR1", "AR2")


@dataclass(frozen=True)
class PreparedCluster:
    """What every (alpha, r, measure, ard) cell of one cluster starts from.

    vectors[i] is the tf-idf vector of records[i], node i of `base`; the
    base graph's W holds every pairwise cosine, which `state` reads for AR1.
    """

    records: list
    vectors: list
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
    return PreparedCluster(records, vectors, base,
                           summarize.SelectionState(records, base.W))


def rouge_tokens(text: str) -> list:
    """Evaluation-side tokenization: lowercase alphanumeric runs, nothing
    else (no stemming, no stopword removal)."""
    return _ROUGE_TOKEN_RE.findall(text.lower())


def rouge1_recall(candidate: str, references: list,
                  aggregate: str = "mean") -> float:
    """Unigram recall of the candidate against each reference.

    Per reference: sum of clipped unigram counts over the reference length.
    Scores are combined with the arithmetic mean (or max when
    aggregate="max").
    """
    if aggregate not in ("mean", "max"):
        raise InvalidParameter(f"unknown aggregate {aggregate!r}")
    if not references:
        raise InvalidReference("need at least one reference summary")
    cand = Counter(rouge_tokens(candidate))
    scores = []
    for ref in references:
        ref_counts = Counter(rouge_tokens(ref))
        total = sum(ref_counts.values())
        if total == 0:
            raise InvalidReference("a reference summary has no words")
        hit = sum(min(count, cand[tok]) for tok, count in ref_counts.items())
        scores.append(hit / total)
    return max(scores) if aggregate == "max" else sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# correlations

@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple
    values: np.ndarray  # square, NaN where undefined


def spearman_matrix(results: list) -> CorrelationMatrix:
    """Tie-corrected Spearman rho between measure score vectors.

    All results must cover the same node set. A constant vector has no
    ranking, so its pairs are NaN (missing), never 0. Diagonal is 1.
    """
    labels = tuple(res.measure for res in results)
    nodes = sorted(results[0].scores) if results else []
    for res in results:
        if sorted(res.scores) != nodes:
            raise InvalidParameter(
                f"result {res.measure} covers a different node set")
    k = len(results)
    values = np.full((k, k), np.nan)
    vectors = [np.array([res.scores[v] for v in nodes]) for res in results]
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            xi, xj = vectors[i], vectors[j]
            if np.all(xi == xi[0]) or np.all(xj == xj[0]):
                continue
            rho = spearmanr(xi, xj).statistic
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

    def __post_init__(self):
        if not (self.alphas and self.rs and self.measures and self.ards):
            raise InvalidParameter("grid lists must be non-empty")
        if any(a <= 0 for a in self.alphas):
            raise InvalidParameter("alphas must be positive")
        if any(not 0 <= r < 1 for r in self.rs):
            raise InvalidParameter("r values must be in [0, 1)")
        unknown = set(self.measures) - set(ALL_MEASURES)
        if unknown:
            raise InvalidParameter(f"unknown measures {sorted(unknown)}")
        unknown = set(self.ards) - set(summarize.AR_METHODS)
        if unknown:
            raise InvalidParameter(f"unknown anti-redundancy {sorted(unknown)}")

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


def _evaluate_cluster(cluster: Cluster, grid: SweepGrid, params: WalkParams,
                      aggregate: str) -> dict:
    """All cell scores for one cluster.

    Returns {"cells": {(measure, alpha, r, ard): (score|None, note)},
             "corr": CorrelationMatrix|None, "note": str}.
    """
    cells = {}
    try:
        prepared = prepare_cluster(cluster)
    except NetsummError as exc:
        note = f"skip:{type(exc).__name__}"
        for key in grid.cells():
            cells[key] = (None, note)
        return {"cells": cells, "corr": None, "note": note}

    def rank(measure, g):
        """The measure's ranking, or the skip note of its failure."""
        try:
            return centrality.compute(measure, g, params)
        except NetsummError as exc:
            return f"skip:{type(exc).__name__}"

    corr_alpha, corr_r = _corr_point(grid)
    corr_results = {}
    # sym reads edge presence only, which alpha leaves as it is
    alpha_free = {}
    if {"sym", "sym_low"} & set(grid.measures):
        sym = rank("sym", prepared.base)
        alpha_free = {"sym": sym, "sym_low": sym if isinstance(sym, str)
                      else centrality.sym_low_from(sym)}

    for alpha in grid.alphas:
        g_alpha = graph.apply_alpha(prepared.base, alpha)
        rankings = {}
        for measure in grid.measures:
            if measure in alpha_free:
                rankings[(measure, None)] = alpha_free[measure]
            elif measure in WEIGHTED_MEASURES:
                rankings[(measure, None)] = rank(measure, g_alpha)
        for r in grid.rs:
            g_r = graph.remove_weakest(g_alpha, r)
            for measure in grid.measures:
                if measure not in WEIGHTED_MEASURES:
                    rankings[(measure, r)] = rank(measure, g_r)
        if alpha == corr_alpha:
            for measure in grid.measures:
                key = (measure, None if measure in WEIGHTED_MEASURES
                       else corr_r)
                if measure != "sym_low" and \
                        not isinstance(rankings[key], str):
                    corr_results[measure] = rankings[key]
        for (measure, r), ranking in rankings.items():
            for ard in grid.ards:
                if isinstance(ranking, str):
                    cells[(measure, alpha, r, ard)] = (None, ranking)
                    continue
                try:
                    summ = summarize.select(
                        prepared.records, ranking, cluster.budget,
                        summarize.RedundancyConfig(method=ard),
                        vectors=prepared.state, cluster_id=cluster.id)
                    score = rouge1_recall(summ.text, list(cluster.references),
                                          aggregate)
                    cells[(measure, alpha, r, ard)] = (score, "")
                except NetsummError as exc:
                    cells[(measure, alpha, r, ard)] = (
                        None, f"skip:{type(exc).__name__}")

    labels = tuple(m for m in grid.measures if m != "sym_low")
    corr = _corr_snapshot(labels, corr_results)
    return {"cells": cells, "corr": corr, "note": ""}


def run_sweep(clusters: list, grid: SweepGrid = SweepGrid(),
              params: WalkParams = WalkParams(), aggregate: str = "mean",
              jobs: int = 1) -> EvaluationReport:
    """Evaluate the full grid over a corpus.

    Clusters run in `jobs` worker processes, at most one per cluster; with
    one, in this process. Emits one row per admissible cell with the
    per-cluster scores and their arithmetic mean, a per-measure best table,
    and the Spearman correlation matrix averaged entrywise over clusters
    (see _corr_point for the snapshot the correlations are taken at).
    """
    if not clusters:
        raise InvalidParameter("no clusters to evaluate")
    jobs = min(jobs, len(clusters))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            evaluated = list(pool.map(
                _evaluate_cluster, clusters,
                [grid] * len(clusters), [params] * len(clusters),
                [aggregate] * len(clusters)))
    else:
        evaluated = [_evaluate_cluster(c, grid, params, aggregate)
                     for c in clusters]

    cluster_ids = tuple(c.id for c in clusters)
    rows = []
    for key in grid.cells():
        measure, alpha, r, ard = key
        per_cluster = []
        scores = []
        for cid, ev in zip(cluster_ids, evaluated):
            score, note = ev["cells"][key]
            per_cluster.append((cid, score, note))
            if score is not None:
                scores.append(score)
        mean = sum(scores) / len(scores) if scores else None
        rows.append(SweepRow(measure, alpha, r, ard, mean,
                             tuple(per_cluster)))

    best = []
    for measure in grid.measures:
        candidates = [row for row in rows
                      if row.measure == measure and row.rouge1 is not None]
        if candidates:
            best.append(max(candidates, key=lambda row: row.rouge1))

    matrices = [ev["corr"] for ev in evaluated if ev["corr"] is not None]
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_best_csv(report: EvaluationReport, path) -> None:
    lines = ["Meas.,α,r,ARD,RG-1"]
    for row in report.best:
        lines.append(f"{row.measure},{row.alpha:g},{fmt_r(row.r)},{row.ard},"
                     f"{_fmt_score(row.rouge1, 4)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_correlations_csv(report: EvaluationReport, path) -> None:
    corr = report.correlations
    lines = ["measure," + ",".join(corr.labels)]
    for label, rowvals in zip(corr.labels, corr.values):
        cells = ["" if math.isnan(v) else f"{v:.6f}" for v in rowvals]
        lines.append(label + "," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
