"""Extract construction: pick ranked sentences under a budget with optional
anti-redundancy filtering.

AR1 skips a candidate whose tf-idf cosine to any already selected sentence
exceeds L1 = (max - min)/2 of all pairwise similarities in the cluster.
AR2 skips on a gamma-weighted Jaccard of 1..n-gram sets above the l2
threshold. Both comparisons are strict.

What select needs beyond the ranking (the AR1 threshold, pairwise cosines,
n-gram sets, AR2 similarities) does not change across the cells of a sweep;
a SelectionState holds it for one cluster and computes each piece once. The
pairwise cosines are the weights of the cluster's base graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .centrality import HIGHEST, CentralityResult
from .corpus import SummaryBudget
from .errors import EmptySummary, InvalidInput, InvalidParameter
from .preprocess import SentenceRecord
from .tfidf import cosine  # noqa: F401  (a public name of this module)

AR_METHODS = ("none", "AR1", "AR2")


@dataclass(frozen=True)
class Summary:
    cluster_id: str
    selected: tuple
    text: str
    budget_used: int


@dataclass(frozen=True)
class RedundancyConfig:
    method: str = "none"
    l2: float = 0.1
    n: int = 4
    gamma: tuple = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        if self.method not in AR_METHODS:
            raise InvalidParameter(f"unknown anti-redundancy {self.method!r}")
        if not 0 < self.l2 < 1:
            raise InvalidParameter(f"l2 must be in (0, 1), got {self.l2}")
        if self.n < 1 or len(self.gamma) != self.n:
            raise InvalidParameter("need one gamma weight per n-gram order")
        if any(gk < 0 for gk in self.gamma):
            raise InvalidParameter("gamma weights must be >= 0")


def ar1_threshold(sims) -> float:
    """(max - min) / 2 over the pairwise similarity pool (a sequence or an
    array)."""
    if len(sims) == 0:
        raise InvalidInput("need similarities from at least 2 sentences")
    return (float(np.max(sims)) - float(np.min(sims))) / 2.0


def _ngrams(tokens, k: int) -> set:
    return {tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def ngram_sets(tokens, n: int) -> tuple:
    """The k-gram sets of tokens for k = 1..n."""
    return tuple(_ngrams(tokens, k) for k in range(1, n + 1))


def ngram_similarity(a: SentenceRecord, b: SentenceRecord,
                     cfg: RedundancyConfig, grams: tuple | None = None
                     ) -> float:
    """Weighted Jaccard agreement of k-gram sets, k = 1..cfg.n.

    grams: the pair's ngram_sets(tokens, cfg.n), when already built.
    """
    if grams is None:
        grams = (ngram_sets(a.tokens, cfg.n), ngram_sets(b.tokens, cfg.n))
    total = 0.0
    for k, (ga, gb) in enumerate(zip(*grams)):
        common = len(ga & gb)
        union = len(ga) + len(gb) - common
        if union:
            total += cfg.gamma[k] * common / union
    return total


class SelectionState:
    """Per-cluster inputs of select, filled lazily on first use.

    Holds the pairwise cosines and the AR1 threshold computed from them,
    each sentence's n-gram sets, and the AR2 similarities of the pairs
    compared so far, per RedundancyConfig. Build one per cluster and pass
    it to select in place of the vectors; it must not outlive the cluster.

    similarity: the sentences' pairwise cosines as an n x n array in
    sentence order (the W of the cluster's base graph), or their
    {global_id: SentenceVector}, from which graph.cosine_matrix computes the
    array when AR1 first needs it.
    """

    def __init__(self, sentences: list,
                 similarity: np.ndarray | dict | None = None):
        self.sentences = sentences
        self._pos = {rec.global_id: k for k, rec in enumerate(sentences)}
        self._cosines = similarity
        self._l1 = None
        self._grams = {}
        self._ar2 = {}

    def _ar1_limit(self) -> float:
        """The AR1 threshold over every sentence pair's cosine."""
        if self._l1 is None:
            if self._cosines is None:
                raise InvalidInput("AR1 needs the cluster's sentence vectors")
            if isinstance(self._cosines, dict):
                self._cosines = graph.cosine_matrix(
                    [self._cosines[rec.global_id] for rec in self.sentences])
            n = len(self.sentences)
            self._l1 = ar1_threshold(self._cosines[np.triu_indices(n, 1)])
        return self._l1

    def redundancy_test(self, red: RedundancyConfig):
        """test(candidate, selected) -> True when `red` skips the
        candidate; None for method "none"."""
        if red.method == "AR1":
            l1 = self._ar1_limit()
            cosines, pos = self._cosines, self._pos
            return lambda a, b: \
                cosines[pos[a.global_id], pos[b.global_id]] > l1
        if red.method == "AR2":
            memo = self._ar2.setdefault(red, {})

            def test(a: SentenceRecord, b: SentenceRecord) -> bool:
                pair = (a.global_id, b.global_id) \
                    if a.global_id < b.global_id \
                    else (b.global_id, a.global_id)
                sim = memo.get(pair)
                if sim is None:
                    sim = memo[pair] = ngram_similarity(
                        a, b, red, (self._ngram_sets(a, red.n),
                                    self._ngram_sets(b, red.n)))
                return sim > red.l2
            return test
        return None

    def _ngram_sets(self, rec: SentenceRecord, n: int) -> tuple:
        key = (rec.global_id, n)
        if key not in self._grams:
            self._grams[key] = ngram_sets(rec.tokens, n)
        return self._grams[key]


def word_count(text: str) -> int:
    return len(text.split())


def resolve_budget(budget: SummaryBudget, sentences: list) -> tuple:
    """Reduce a budget to ("words"|"chars", integer limit).

    A compression rate keeps ceil((1 - rate) * total cluster words).
    """
    if budget.kind == "compression":
        total = sum(word_count(rec.raw_text) for rec in sentences)
        return "words", max(1, math.ceil((1.0 - budget.value) * total))
    return budget.kind, int(budget.value)


def _rank_order(sentences: list, ranking: CentralityResult) -> list:
    """Sentence ids by snapped score; ties by (layer, position, id)."""
    by_id = {rec.global_id: rec for rec in sentences}
    sign = -1.0 if ranking.direction == HIGHEST else 1.0
    scores = ranking.snapped

    def key(gid):
        rec = by_id[gid]
        return (sign * scores[gid], rec.layer_index, rec.position_in_doc, gid)

    return sorted(by_id, key=key)


def select(sentences: list, ranking: CentralityResult, budget: SummaryBudget,
           red: RedundancyConfig,
           vectors: dict | SelectionState | None = None,
           cluster_id: str = "") -> Summary:
    """Greedy selection in rank order under the budget.

    A candidate that overflows the budget is skipped, not terminal: later,
    shorter candidates may still fit. Redundant candidates (per `red`) are
    skipped permanently. Empty-token sentences are never selected. Raises
    EmptySummary when nothing fits.

    vectors: the sentences' {global_id: SentenceVector} (AR1 needs them),
    or a SelectionState built for these sentences, which keeps what one
    call computes for the next.
    """
    if budget.value <= 0:
        raise InvalidParameter("budget must be positive")
    state = vectors if isinstance(vectors, SelectionState) \
        else SelectionState(sentences, vectors)
    if state.sentences is not sentences:
        raise InvalidParameter("the selection state holds other sentences")
    redundant = state.redundancy_test(red)

    kind, limit = resolve_budget(budget, sentences)
    by_id = {rec.global_id: rec for rec in sentences}
    chosen = []
    used = 0
    for gid in _rank_order(sentences, ranking):
        rec = by_id[gid]
        if not rec.tokens:
            continue
        if redundant and any(redundant(rec, s) for s in chosen):
            continue
        cost = word_count(rec.raw_text) if kind == "words" \
            else len(rec.raw_text) + (1 if chosen else 0)
        if used + cost > limit:
            continue
        chosen.append(rec)
        used += cost
    if not chosen:
        raise EmptySummary(
            f"no sentence fits the {kind} budget of {limit}")
    return Summary(cluster_id,
                   tuple(rec.global_id for rec in chosen),
                   " ".join(rec.raw_text for rec in chosen),
                   used)
