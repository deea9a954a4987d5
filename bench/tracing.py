"""Per-layer tracing of netsumm from outside the package.

A Tracer replaces netsumm's public functions, in the module namespaces the
pipeline looks them up in, with wrappers that record a span per call (name,
start, end, parent span) or only count calls. Spans stay in memory; at the
end the tracer reports each layer's self time: its spans' durations minus
the time covered by their child spans. The root span of each `cli.main`
call is named "cli", so its self time is the traced wall time no layer span
covers. The self times of all spans add up to the root spans' total.

Bookkeeping that the tracer itself does after a call (counting edges,
hashing rankings to detect repeats) runs inside a "trace.bookkeeping" span,
so it is not charged to a netsumm layer.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from netsumm import (ALL_MEASURES, centrality, cli, evaluate, graph,
                     preprocess, summarize, tfidf)

ROOT = "cli"
BOOKKEEPING = "trace.bookkeeping"
# measures whose score depends on edge weights, not only on which edges exist
_WEIGHT_READERS = ("stg", "pr_w", "sp_w")


def _select_label(sentences, ranking, budget, red, *args, **kwargs) -> str:
    return f"summarize.select_{red.method}"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self._seen = defaultdict(set)   # repeat keys, reset per cluster

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - covered[k]
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0)

    def repeat(self, kind: str, key) -> None:
        """Count a call, and a repeat if this cluster has seen its key."""
        self.counts[f"{kind}.calls"] += 1
        seen = self._seen[kind]
        if key in seen:
            self.counts[f"{kind}.repeats"] += 1
        else:
            seen.add(key)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, label, after=None):
        def traced(*args, **kwargs):
            self._open(label(*args, **kwargs) if callable(label) else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                self._open(BOOKKEEPING)
                try:
                    after(result, *args, **kwargs)
                finally:
                    self._close()
            return result
        return traced

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _after_build(self, g, *args, **kwargs):
        self._seen.clear()   # a new cluster starts
        self.counts["graph.edges"] += len(g.edges)

    def _after_compute(self, result, measure, g, *args, **kwargs):
        if measure in _WEIGHT_READERS and g.weighted:
            edges = tuple((e.u, e.v, e.weight) for e in g.edges)
        else:
            edges = tuple((e.u, e.v) for e in g.edges)
        self.counts[f"centrality.{measure}.calls"] += 1
        self.repeat("centrality", hash((measure, edges)))

    def _after_select(self, result, sentences, ranking, budget, red,
                      *args, **kwargs):
        self.repeat("summarize.select",
                    hash((tuple(ranking.ranked()), red.method)))

    def _after_rouge(self, result, candidate, *args, **kwargs):
        self.repeat("evaluate.rouge1", hash(candidate))

    def _patches(self) -> list:
        """(module, attribute, replacement) for every traced function."""
        def count(key):
            return lambda result, *a, **k: self.counts.update({key: 1})

        patches = [
            (cli, "load_corpus", self._timed(cli.load_corpus, "corpus.load")),
            (preprocess, "load_resources", self._timed(
                preprocess.load_resources, "preprocess.load_resources")),
            (preprocess, "build_sentences", self._timed(
                preprocess.build_sentences, "preprocess.build_sentences",
                lambda recs, *a, **k: self.counts.update(
                    {"preprocess.sentences": len(recs)}))),
            (tfidf, "fit", self._timed(
                tfidf.fit, "tfidf.fit",
                lambda model, *a, **k: self.counts.update(
                    {"tfidf.vocab": len(model.vocabulary)}))),
            (tfidf, "vectorize", self._timed(tfidf.vectorize,
                                             "tfidf.vectorize")),
            (graph, "build", self._timed(graph.build, "graph.build",
                                         self._after_build)),
            (graph, "apply_alpha", self._timed(
                graph.apply_alpha, "graph.apply_alpha",
                count("graph.apply_alpha.calls"))),
            (graph, "remove_weakest", self._timed(
                graph.remove_weakest, "graph.remove_weakest",
                count("graph.remove_weakest.calls"))),
            (centrality, "compute", self._timed(
                centrality.compute, lambda m, *a, **k: f"centrality.{m}",
                self._after_compute)),
            (summarize, "select", self._timed(
                summarize.select,
                _select_label,
                self._after_select)),
            (summarize, "cosine", self._counted(summarize.cosine,
                                                "summarize.ar1_cosines")),
            (summarize, "ngram_similarity", self._counted(
                summarize.ngram_similarity, "summarize.ar2_comparisons")),
            (evaluate, "rouge1_recall", self._timed(
                evaluate.rouge1_recall, "evaluate.rouge1",
                self._after_rouge)),
            (evaluate, "spearman_matrix", self._timed(
                evaluate.spearman_matrix, "evaluate.spearman")),
        ]
        for name in ("write_report_csv", "write_best_csv",
                     "write_correlations_csv", "write_curves"):
            patches.append((evaluate, name, self._timed(
                getattr(evaluate, name), "evaluate.write_csv")))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patches = self._patches()
        originals = [(mod, attr, getattr(mod, attr))
                     for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in originals:
                setattr(mod, attr, original)


def layer_metrics(tracers: list) -> dict:
    """Per-pass means of the per-layer metrics over traced passes."""
    n = len(tracers)
    times = Counter()
    counts = Counter()
    total = 0.0
    for tracer in tracers:
        times.update(tracer.self_times())
        counts.update(tracer.counts)
        total += tracer.root_time()

    def ratio(kind):
        calls = counts[f"{kind}.calls"]
        return counts[f"{kind}.repeats"] / calls if calls else 0.0

    def t(name):
        return (times[name] / n, "s")

    def c(name):
        return (counts[name] / n, "count")

    out = {
        "corpus.load_s": t("corpus.load"),
        "preprocess.load_resources_s": t("preprocess.load_resources"),
        "preprocess.build_sentences_s": t("preprocess.build_sentences"),
        "preprocess.sentences": c("preprocess.sentences"),
        "tfidf.fit_s": t("tfidf.fit"),
        "tfidf.vectorize_s": t("tfidf.vectorize"),
        "tfidf.vocab": c("tfidf.vocab"),
        "graph.build_s": t("graph.build"),
        "graph.edges": c("graph.edges"),
        "graph.apply_alpha_s": t("graph.apply_alpha"),
        "graph.apply_alpha_calls": c("graph.apply_alpha.calls"),
        "graph.remove_weakest_s": t("graph.remove_weakest"),
        "graph.remove_weakest_calls": c("graph.remove_weakest.calls"),
    }
    for m in ALL_MEASURES:
        out[f"centrality.{m}_s"] = t(f"centrality.{m}")
        out[f"centrality.{m}_calls"] = c(f"centrality.{m}.calls")
    out["centrality.repeat_ratio"] = (ratio("centrality"), "ratio")
    for ard in ("none", "AR1", "AR2"):
        out[f"summarize.select_{ard}_s"] = t(f"summarize.select_{ard}")
    out.update({
        "summarize.select_calls": c("summarize.select.calls"),
        "summarize.ar1_cosines": c("summarize.ar1_cosines"),
        "summarize.ar2_comparisons": c("summarize.ar2_comparisons"),
        "summarize.select_repeat_ratio": (ratio("summarize.select"), "ratio"),
        "evaluate.rouge1_s": t("evaluate.rouge1"),
        "evaluate.rouge1_calls": c("evaluate.rouge1.calls"),
        "evaluate.rouge1_repeat_ratio": (ratio("evaluate.rouge1"), "ratio"),
        "evaluate.spearman_s": t("evaluate.spearman"),
        "evaluate.write_csv_s": t("evaluate.write_csv"),
        "cli.other_s": t(ROOT),
        "trace.bookkeeping_s": t(BOOKKEEPING),
        "trace.pass_s": (total / n, "s"),
    })
    return out
