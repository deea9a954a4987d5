"""Extract construction: pick ranked sentences under a budget with optional
anti-redundancy filtering.

AR1 skips a candidate whose tf-idf cosine to any already selected sentence
exceeds L1 = (max - min)/2 of all pairwise similarities in the cluster.
AR2 skips on a weighted Jaccard agreement of 1- to 4-gram sets, weights
AR2_WEIGHTS, above AR2_THRESHOLD. Both comparisons are strict.

What select needs beyond the ranking does not change across the cells of a
sweep: each sentence's word and character counts, each resolved budget, the
(layer, position, id) tie keys, and per anti-redundancy method a boolean
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

from .centrality import HIGHEST, CentralityResult
from .corpus import SummaryBudget
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


class SelectionState:
    """Per-cluster inputs of select, each computed once.

    Holds, in sentence order: each sentence's word and character counts and
    its (layer, position, id) tie keys; the least cost of a sentence with
    tokens per budget kind; each resolved budget; the AR1 matrix, cosines >
    L1, built on first use; and, once AR2 is first used, the sentences'
    n-gram sets and a matrix whose row k is filled when sentence k is first
    chosen. Row k of a matrix marks the sentences that sentence k blocks.
    Build one per cluster and pass it to select; it must not outlive the
    cluster.

    cosines: the sentences' pairwise cosines as an n x n array in sentence
    order (the W of the cluster's base graph); AR1 needs them.
    """

    def __init__(self, sentences: list, cosines: np.ndarray | None = None):
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
        self._cosines = cosines
        self._budgets = {}
        self._ar1 = None
        self._ar2 = None

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
                        "AR1 needs the cluster's sentence cosines")
                self._ar1 = self._cosines > ar1_threshold(
                    self._cosines[np.triu_indices(n, 1)])
            return self._ar1.__getitem__
        if self._ar2 is None:
            self._ar2 = (np.zeros((n, n), dtype=bool), np.zeros(n, dtype=bool),
                         [ngram_sets(rec.tokens) for rec in self.sentences])
        blocks, filled, grams = self._ar2

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
                            a, b, (grams[k], grams[j])) > AR2_THRESHOLD
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
           red: RedundancyConfig, state: SelectionState | None = None
           ) -> Summary:
    """Greedy selection in rank order under the budget.

    A candidate that overflows the budget is skipped, not terminal: later,
    shorter candidates may still fit; the scan stops once what is left of
    the budget is below the cheapest candidate's cost. Redundant
    candidates (per `red`) are skipped permanently. Empty-token sentences
    are never selected. Raises EmptySummary when nothing fits.

    state: a SelectionState built for these sentences, which keeps what one
    call computes for the next; AR1 needs one that holds the cosines.
    """
    if state is None:
        state = SelectionState(sentences)
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
