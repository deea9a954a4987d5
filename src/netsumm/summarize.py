"""Cluster preparation and extract construction: pick ranked sentences
under a budget with optional anti-redundancy filtering.

AR1 skips a candidate whose tf-idf cosine to any already selected sentence
exceeds L1 = (max - min)/2 of all pairwise similarities in the cluster.
AR2 skips on a weighted Jaccard agreement of 1- to 4-gram sets, weights
AR2_WEIGHTS, above AR2_THRESHOLD. Both comparisons are strict.

Candidates are taken in ranked() order: by snapped score, ties by node id,
which is the sentences' (layer, position) order. What select needs beyond
the ranking does not change across the cells of a sweep: each sentence's
word and character counts, each resolved budget, and per anti-redundancy
method a boolean matrix of which sentence a chosen one blocks. A
PreparedCluster holds these with the cluster's sentences and base graph
and computes each piece once. AR1's matrix is the pairwise cosines (the
weights of the base graph) above L1; AR2's fills a row the first time its
sentence is chosen. Both tests are symmetric, so a candidate is skipped
exactly when some chosen sentence's row blocks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph, preprocess, tfidf
from .centrality import CentralityResult
from .corpus import Cluster, SummaryBudget
from .errors import EmptySummary, InvalidInput, InvalidParameter
from .preprocess import SentenceRecord
from .tfidf import cosine  # noqa: F401  (a public name of this module)

AR_METHODS = ("none", "AR1", "AR2")
# AR2 skips a candidate whose n-gram agreement with a chosen sentence
# exceeds the threshold; the weights are those of n = 1, 2, 3, 4.
AR2_THRESHOLD = 0.1
AR2_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True)
class Summary:
    selected: tuple
    text: str
    budget_used: int


@dataclass(frozen=True)
class RedundancyConfig:
    method: str = "none"

    def __post_init__(self):
        if self.method not in AR_METHODS:
            raise InvalidParameter(f"unknown anti-redundancy {self.method!r}")


def ar1_threshold(sims) -> float:
    """(max - min) / 2 over the pairwise similarity pool (a sequence or an
    array)."""
    if len(sims) == 0:
        raise InvalidInput("need similarities from at least 2 sentences")
    return (float(np.max(sims)) - float(np.min(sims))) / 2.0


def _ngrams(tokens, k: int) -> set:
    return {tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def ngram_sets(tokens) -> tuple:
    """The k-gram sets of tokens for each order k that AR2_WEIGHTS weighs."""
    return tuple(_ngrams(tokens, k) for k in range(1, len(AR2_WEIGHTS) + 1))


def ngram_similarity(a: SentenceRecord, b: SentenceRecord,
                     grams: tuple | None = None) -> float:
    """Jaccard agreement of the k-gram sets, weighted by AR2_WEIGHTS.

    grams: the pair's ngram_sets, when already built.
    """
    if grams is None:
        grams = (ngram_sets(a.tokens), ngram_sets(b.tokens))
    total = 0.0
    for weight, ga, gb in zip(AR2_WEIGHTS, *grams):
        common = len(ga & gb)
        union = len(ga) + len(gb) - common
        if union:
            total += weight * common / union
    return total


class PreparedCluster:
    """One cluster's sentences, its base graph (alpha 1, nothing removed)
    and what select reads beyond the ranking, each computed once.

    records[i] is node i of `base` and has global_id i, and (layer,
    position) strictly increases along the records, so ranked()'s node-id
    order among tied scores is the sentences' order in the cluster; raises
    InvalidInput otherwise. base.W holds every pairwise tf-idf cosine,
    which AR1 reads. Row k of a redundancy matrix marks the sentences that
    sentence k blocks.
    """

    def __init__(self, records: list, base: graph.MultilayerGraph):
        if base.n_nodes != len(records):
            raise InvalidInput(f"the base graph has {base.n_nodes} nodes "
                               f"for {len(records)} sentences")
        keys = [(rec.layer_index, rec.position_in_doc) for rec in records]
        if any(rec.global_id != k for k, rec in enumerate(records)) \
                or any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvalidInput(
                "sentences must have global ids 0..n-1 in increasing "
                "(layer, position) order")
        self.records = records
        self.base = base
        self.words = [word_count(rec.raw_text) for rec in records]
        self.chars = [len(rec.raw_text) for rec in records]
        # per budget kind, the least any candidate costs once a sentence is
        # chosen (a chars budget adds the space before it)
        usable = [k for k, rec in enumerate(records) if rec.tokens]
        self.least_cost = {
            "words": min((self.words[k] for k in usable), default=0),
            "chars": min((self.chars[k] for k in usable), default=0) + 1}
        self._budgets = {}
        self._ar1 = None
        self._ar2 = None

    def budget_limit(self, budget: SummaryBudget) -> tuple:
        """resolve_budget over these sentences."""
        if budget not in self._budgets:
            self._budgets[budget] = resolve_budget(budget, self.records)
        return self._budgets[budget]

    def redundancy_rows(self, red: RedundancyConfig):
        """rows(k) -> the boolean row of sentences that `red` skips once
        sentence k is chosen; None for method "none"."""
        if red.method == "none":
            return None
        n = len(self.records)
        if red.method == "AR1":
            if self._ar1 is None:
                cosines = self.base.W
                self._ar1 = cosines > ar1_threshold(
                    cosines[np.triu_indices(n, 1)])
            return self._ar1.__getitem__
        if self._ar2 is None:
            self._ar2 = (np.zeros((n, n), dtype=bool), np.zeros(n, dtype=bool),
                         [ngram_sets(rec.tokens) for rec in self.records])
        blocks, filled, grams = self._ar2

        def rows(k: int) -> np.ndarray:
            if not filled[k]:
                # the similarity is symmetric: copy the filled rows' entries
                # and compare with the rest; sentences without tokens are
                # never candidates and stay unblocked
                a = self.records[k]
                for j, b in enumerate(self.records):
                    if filled[j]:
                        blocks[k, j] = blocks[j, k]
                    elif j != k and b.tokens:
                        blocks[k, j] = ngram_similarity(
                            a, b, (grams[k], grams[j])) > AR2_THRESHOLD
                filled[k] = True
            return blocks[k]
        return rows


def prepare_cluster(cluster: Cluster) -> PreparedCluster:
    """Segment and normalize the cluster's sentences, vectorize them and
    build the base graph (alpha 1, no edge removed)."""
    res = preprocess.load_resources(cluster.language)
    records = preprocess.build_sentences(cluster, res)
    model = tfidf.fit(records, len(cluster.documents))
    base = graph.build(tfidf.vectorize_all(records, model),
                       [rec.layer_index for rec in records])
    return PreparedCluster(records, base)


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


def select(prepared: PreparedCluster, ranking: CentralityResult,
           budget: SummaryBudget, red: RedundancyConfig) -> Summary:
    """Greedy selection in ranked() order under the budget.

    A candidate that overflows the budget is skipped, not terminal: later,
    shorter candidates may still fit; the scan stops once what is left of
    the budget is below the cheapest candidate's cost. Redundant
    candidates (per `red`) are skipped permanently. Empty-token sentences
    are never selected. Raises EmptySummary when nothing fits, and
    InvalidParameter when the ranking does not score one node per sentence
    of `prepared`.
    """
    records = prepared.records
    n = len(ranking.scores)
    if n != len(records):
        raise InvalidParameter(
            f"{ranking.measure} scores {n} nodes, not {len(records)}")
    rows = prepared.redundancy_rows(red)
    kind, limit = prepared.budget_limit(budget)
    costs = prepared.words if kind == "words" else prepared.chars
    least = prepared.least_cost[kind]
    blocked = np.zeros(n, dtype=bool)
    chosen = []
    used = 0
    for k in ranking.ranked():
        if blocked[k] or not records[k].tokens:
            continue
        # a chars budget also counts the space before each later sentence
        cost = costs[k] + (1 if chosen and kind == "chars" else 0)
        if used + cost > limit:
            continue
        chosen.append(records[k])
        used += cost
        if limit - used < least:
            break  # no later candidate fits
        if rows is not None:
            blocked |= rows(k)
    if not chosen:
        raise EmptySummary(
            f"no sentence fits the {kind} budget of {limit}")
    return Summary(tuple(rec.global_id for rec in chosen),
                   " ".join(rec.raw_text for rec in chosen),
                   used)
