"""Extract construction: pick ranked sentences under a budget with optional
anti-redundancy filtering.

AR1 skips a candidate whose tf-idf cosine to any already selected sentence
exceeds L1 = (max - min)/2 of all pairwise similarities in the cluster.
AR2 skips on a gamma-weighted Jaccard of 1..n-gram sets above the l2
threshold. Both comparisons are strict.

What select needs beyond the ranking does not change across the cells of a
sweep: each sentence's word and character counts, each resolved budget, the
(layer, position, id) tie keys, and per anti-redundancy config a boolean
matrix of which sentence a chosen one blocks. A SelectionState holds these
for one cluster and computes each piece once. AR1's matrix is the pairwise
cosines (the weights of the cluster's base graph) above L1; AR2's fills a
row the first time its sentence is chosen. Both tests are symmetric, so a
candidate is skipped exactly when some chosen sentence's row blocks it.
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
    selected: tuple
    text: str
    budget_used: int


@dataclass(frozen=True)
class RedundancyConfig:
    method: str = "none"
    l2: float = 0.1
    gamma: tuple = (0.25, 0.25, 0.25, 0.25)  # one weight per n-gram order

    @property
    def n(self) -> int:
        """The highest n-gram order AR2 compares."""
        return len(self.gamma)

    def __post_init__(self):
        if self.method not in AR_METHODS:
            raise InvalidParameter(f"unknown anti-redundancy {self.method!r}")
        if not 0 < self.l2 < 1:
            raise InvalidParameter(f"l2 must be in (0, 1), got {self.l2}")
        if not self.gamma:
            raise InvalidParameter("need at least one gamma weight")
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
    """Per-cluster inputs of select, each computed once.

    Holds, in sentence order: each sentence's word and character counts and
    its (layer, position, id) tie keys; the least cost of a sentence with
    tokens per budget kind; each resolved budget; the AR1 matrix, cosines >
    L1, built on first use; and per AR2 config the sentences' n-gram sets
    and a matrix whose row k is filled when sentence k is first chosen. Row
    k of a matrix marks the sentences that sentence k blocks. Build one per
    cluster and pass it to select in place of the vectors; it must not
    outlive the cluster.

    similarity: the sentences' pairwise cosines as an n x n array in
    sentence order (the W of the cluster's base graph), or their
    {global_id: SentenceVector}, from which graph.cosine_matrix computes the
    array when AR1 first needs it.
    """

    def __init__(self, sentences: list,
                 similarity: np.ndarray | dict | None = None):
        self.sentences = sentences
        self._id_list = [rec.global_id for rec in sentences]
        self._tie_keys = (np.array(self._id_list),
                          np.array([rec.position_in_doc for rec in sentences]),
                          np.array([rec.layer_index for rec in sentences]))
        self.words = [word_count(rec.raw_text) for rec in sentences]
        self.chars = [len(rec.raw_text) for rec in sentences]
        # per budget kind, the least any candidate costs once a sentence is
        # chosen (a chars budget adds the space before it)
        usable = [k for k, rec in enumerate(sentences) if rec.tokens]
        self.least_cost = {
            "words": min((self.words[k] for k in usable), default=0),
            "chars": min((self.chars[k] for k in usable), default=0) + 1}
        self._cosines = similarity
        self._budgets = {}
        self._ar1 = None
        self._ar2 = {}

    def budget_limit(self, budget: SummaryBudget) -> tuple:
        """resolve_budget over these sentences."""
        if budget not in self._budgets:
            self._budgets[budget] = resolve_budget(budget, self.sentences)
        return self._budgets[budget]

    def rank_order(self, ranking: CentralityResult) -> list:
        """Sentence positions by snapped score; ties by (layer, position,
        id)."""
        sign = -1.0 if ranking.direction == HIGHEST else 1.0
        scores = np.fromiter(map(ranking.snapped.__getitem__, self._id_list),
                             float, len(self._id_list))
        return np.lexsort(self._tie_keys + (sign * scores,)).tolist()

    def redundancy_rows(self, red: RedundancyConfig):
        """rows(k) -> the boolean row of sentences that `red` skips once
        sentence k is chosen; None for method "none"."""
        if red.method == "none":
            return None
        n = len(self.sentences)
        if red.method == "AR1":
            if self._ar1 is None:
                if self._cosines is None:
                    raise InvalidInput(
                        "AR1 needs the cluster's sentence vectors")
                if isinstance(self._cosines, dict):
                    self._cosines = graph.cosine_matrix(
                        [self._cosines[gid] for gid in self._id_list])
                self._ar1 = self._cosines > ar1_threshold(
                    self._cosines[np.triu_indices(n, 1)])
            return self._ar1.__getitem__
        if red not in self._ar2:
            self._ar2[red] = (np.zeros((n, n), dtype=bool),
                              np.zeros(n, dtype=bool),
                              [ngram_sets(rec.tokens, red.n)
                               for rec in self.sentences])
        blocks, filled, grams = self._ar2[red]

        def rows(k: int) -> np.ndarray:
            if not filled[k]:
                # the similarity is symmetric: copy the filled rows' entries
                # and compare with the rest; sentences without tokens are
                # never candidates and stay unblocked
                a = self.sentences[k]
                for j, b in enumerate(self.sentences):
                    if filled[j]:
                        blocks[k, j] = blocks[j, k]
                    elif j != k and b.tokens:
                        blocks[k, j] = ngram_similarity(
                            a, b, red, (grams[k], grams[j])) > red.l2
                filled[k] = True
            return blocks[k]
        return rows


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


def select(sentences: list, ranking: CentralityResult, budget: SummaryBudget,
           red: RedundancyConfig,
           vectors: dict | SelectionState | None = None) -> Summary:
    """Greedy selection in rank order under the budget.

    A candidate that overflows the budget is skipped, not terminal: later,
    shorter candidates may still fit; the scan stops once what is left of
    the budget is below the cheapest candidate's cost. Redundant
    candidates (per `red`) are skipped permanently. Empty-token sentences
    are never selected. Raises EmptySummary when nothing fits.

    vectors: the sentences' {global_id: SentenceVector} (AR1 needs them),
    or a SelectionState built for these sentences, which keeps what one
    call computes for the next.
    """
    state = vectors if isinstance(vectors, SelectionState) \
        else SelectionState(sentences, vectors)
    if state.sentences is not sentences:
        raise InvalidParameter("the selection state holds other sentences")
    rows = state.redundancy_rows(red)
    kind, limit = state.budget_limit(budget)
    costs = state.words if kind == "words" else state.chars
    least = state.least_cost[kind]
    blocked = np.zeros(len(sentences), dtype=bool)
    chosen = []
    used = 0
    for k in state.rank_order(ranking):
        if blocked[k] or not sentences[k].tokens:
            continue
        # a chars budget also counts the space before each later sentence
        cost = costs[k] + (1 if chosen and kind == "chars" else 0)
        if used + cost > limit:
            continue
        chosen.append(sentences[k])
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
