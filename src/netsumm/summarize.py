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
PreparedCluster holds these with the cluster's sentences and base graph,
computes each piece once, and builds a method's matrix the first time
select asks for it: AR1's from the base graph's cosines, AR2's from the
k-grams that each two sentences share. Both tests are symmetric, so a
candidate is skipped exactly when some chosen sentence's row blocks it.
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


def ngram_similarity(a: SentenceRecord, b: SentenceRecord) -> float:
    """Jaccard agreement of the k-gram sets, weighted by AR2_WEIGHTS."""
    total = 0.0
    for k, weight in enumerate(AR2_WEIGHTS, 1):
        ga, gb = _ngrams(a.tokens, k), _ngrams(b.tokens, k)
        common = len(ga & gb)
        union = len(ga) + len(gb) - common
        if union:
            total += weight * common / union
    return total


def ar1_blocks(cosines: np.ndarray) -> np.ndarray:
    """AR1's matrix: the cosines above ar1_threshold of the pairs i < j.

    The cosines are symmetric, non-negative and zero on the diagonal, so
    the pairs' greatest cosine is the matrix's, and their least is 0
    unless every pair shares a term; no pool of pairs is gathered."""
    n = len(cosines)
    if n < 2:
        raise InvalidInput("need similarities from at least 2 sentences")
    least = 0.0
    if np.count_nonzero(cosines) == n * (n - 1):
        least = cosines.min(where=cosines > 0, initial=np.inf)
    return cosines > ar1_threshold([cosines.max(), least])


def ar2_blocks(records: list) -> np.ndarray:
    """AR2's matrix: entry (i, j) is i != j and ngram_similarity(records[i],
    records[j]) > AR2_THRESHOLD, bit for bit: the orders add into one total
    in AR2_WEIGHTS order, and a pair sharing no k-gram adds nothing. A
    k-gram's id is that of the (k-1)-gram and the token after it,
    renumbered densely, so no key outgrows the token count squared."""
    n = len(records)
    vocab = {}
    grams = tokens = np.array([vocab.setdefault(t, len(vocab)) for rec in
                               records for t in rec.tokens], dtype=np.int64)
    lengths = np.array([len(rec.tokens) for rec in records], dtype=np.int64)
    sentence = np.repeat(np.arange(n), lengths)
    # tokens from each position to the end of its sentence
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    total = np.zeros(n * n)  # entry i * n + j, i < j
    for k, weight in enumerate(AR2_WEIGHTS, 1):
        if k > 1:
            grams = np.unique(grams[:-1] * len(vocab) + tokens[k - 1:],
                              return_inverse=True)[1]
        held = left[:len(grams)] >= k
        entries = np.unique(grams[held] * n + sentence[:len(grams)][held])
        gram, owner = np.divmod(entries, n)
        first, second = graph.shared_key_pairs(gram)
        pairs, common = np.unique(owner[first] * n + owner[second],
                                  return_counts=True)
        size = np.bincount(owner, minlength=n)
        u, v = np.divmod(pairs, n)
        total[pairs] += weight * common / (size[u] + size[v] - common)
    blocks = (total > AR2_THRESHOLD).reshape(n, n)
    return blocks | blocks.T


class PreparedCluster:
    """One cluster's sentences, its base graph (alpha 1, nothing removed)
    and what select reads beyond the ranking, each computed once.

    records[i] is node i of `base` and has global_id i, and (layer,
    position) strictly increases along the records, so ranked()'s node-id
    order among tied scores is the sentences' order in the cluster; raises
    InvalidInput otherwise. base.W holds every pairwise tf-idf cosine,
    which AR1 reads.
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
        self._blocks = {}

    def budget_limit(self, budget: SummaryBudget) -> tuple:
        """resolve_budget over these sentences."""
        if budget not in self._budgets:
            self._budgets[budget] = resolve_budget(budget, self.records)
        return self._budgets[budget]

    def blocks(self, red: RedundancyConfig):
        """The boolean matrix whose row k marks the sentences that `red`
        skips once sentence k is chosen, built on first use; None for
        method "none"."""
        if red.method == "none":
            return None
        if red.method not in self._blocks:
            self._blocks[red.method] = ar1_blocks(self.base.W) \
                if red.method == "AR1" else ar2_blocks(self.records)
        return self._blocks[red.method]


def prepare_cluster(cluster: Cluster) -> PreparedCluster:
    """Segment and normalize the cluster's sentences, vectorize them and
    build the base graph (alpha 1, no edge removed)."""
    res = preprocess.load_resources(cluster.language)
    records = preprocess.build_sentences(cluster, res)
    base = graph.build(tfidf.cluster_vectors(records, len(cluster.documents)),
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
    blocks = prepared.blocks(red)
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
        if blocks is not None:
            blocked |= blocks[k]
    if not chosen:
        raise EmptySummary(
            f"no sentence fits the {kind} budget of {limit}")
    return Summary(tuple(rec.global_id for rec in chosen),
                   " ".join(rec.raw_text for rec in chosen),
                   used)
