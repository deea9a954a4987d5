import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import util
from netsumm.centrality import CentralityResult, HIGHEST, LOWEST
from netsumm.corpus import SummaryBudget
from netsumm.errors import EmptySummary, InvalidInput, InvalidParameter
from netsumm.preprocess import SentenceRecord
from netsumm import summarize
from netsumm.summarize import (AR2_THRESHOLD, RedundancyConfig,
                               SelectionState, Summary, ar1_threshold,
                               ngram_sets, ngram_similarity, resolve_budget,
                               select, word_count)


def rec(gid, layer, pos, text):
    return SentenceRecord(gid, f"d{layer}", layer, pos, text,
                          tuple(text.lower().rstrip(".").split()))


def test_ar1_threshold():
    assert ar1_threshold([0.2, 0.9, 0.4]) == pytest.approx(0.35)
    with pytest.raises(InvalidInput):
        ar1_threshold([])


def test_redundancy_config_validation():
    assert RedundancyConfig("AR2").method == "AR2"
    with pytest.raises(InvalidParameter):
        RedundancyConfig("AR3")


def test_ngram_similarity_identical_and_disjoint():
    a = rec(0, 0, 0, "river flood town rescue crews")
    assert ngram_similarity(a, a) == pytest.approx(1.0)
    b = rec(1, 1, 0, "storm wind damage power lines")
    assert ngram_similarity(a, b) == 0.0


def test_ngram_similarity_short_sentences():
    # 2 tokens: only 1- and 2-gram terms can contribute
    a = rec(0, 0, 0, "river flood")
    b = rec(1, 1, 0, "river flood")
    assert ngram_similarity(a, b) == pytest.approx(0.5)


def test_resolve_budget():
    sentences = [rec(0, 0, 0, "one two three four"),
                 rec(1, 1, 0, "five six")]
    assert resolve_budget(SummaryBudget("words", 40), sentences) == \
        ("words", 40)
    assert resolve_budget(SummaryBudget("chars", 300), sentences) == \
        ("chars", 300)
    # 70% compression of 6 words keeps ceil(1.8) = 2
    assert resolve_budget(SummaryBudget("compression", 0.7), sentences) == \
        ("words", 2)


def test_select_greedy_rank_order():
    sentences = [rec(0, 0, 0, "low priority filler sentence."),
                 rec(1, 0, 1, "top ranked sentence here."),
                 rec(2, 1, 0, "second best sentence overall.")]
    ranking = CentralityResult("dg", {0: 0.1, 1: 0.9, 2: 0.5}, HIGHEST)
    out = select(sentences, ranking, SummaryBudget("words", 8),
                 RedundancyConfig())
    assert out.selected == (1, 2)
    assert out.text == "top ranked sentence here. second best sentence overall."
    assert out.budget_used == 8


def test_select_lowest_direction_flips_order():
    sentences = [rec(0, 0, 0, "alpha beta."), rec(1, 1, 0, "gamma delta.")]
    ranking = CentralityResult("sp", {0: 3.0, 1: 1.0}, LOWEST)
    out = select(sentences, ranking, SummaryBudget("words", 2),
                 RedundancyConfig())
    assert out.selected == (1,)


def test_select_tie_break_layer_then_position():
    sentences = [rec(0, 1, 0, "from second layer."),
                 rec(1, 0, 1, "later in first."),
                 rec(2, 0, 0, "first layer first.")]
    ranking = CentralityResult("dg", {0: 1.0, 1: 1.0, 2: 1.0}, HIGHEST)
    out = select(sentences, ranking, SummaryBudget("words", 20),
                 RedundancyConfig())
    assert out.selected == (2, 1, 0)


def test_select_skip_and_continue_on_budget():
    sentences = [rec(0, 0, 0, "this very long sentence would never fit."),
                 rec(1, 1, 0, "short one.")]
    ranking = CentralityResult("dg", {0: 0.9, 1: 0.1}, HIGHEST)
    out = select(sentences, ranking, SummaryBudget("words", 3),
                 RedundancyConfig())
    assert out.selected == (1,)


def test_select_chars_budget_counts_separators():
    sentences = [rec(0, 0, 0, "abcd."), rec(1, 1, 0, "efg."),
                 rec(2, 1, 1, "hi.")]
    ranking = CentralityResult("dg", {0: 3.0, 1: 2.0, 2: 1.0}, HIGHEST)
    # "abcd." (5) + " efg." (5) = 10; adding " hi." would need 4 more
    out = select(sentences, ranking, SummaryBudget("chars", 12),
                 RedundancyConfig())
    assert out.selected == (0, 1)
    assert out.budget_used == len(out.text) == 10


def test_select_never_picks_empty_token_sentences():
    sentences = [SentenceRecord(0, "d0", 0, 0, "Of the and.", ()),
                 rec(1, 1, 0, "real content here.")]
    ranking = CentralityResult("dg", {0: 9.0, 1: 1.0}, HIGHEST)
    out = select(sentences, ranking, SummaryBudget("words", 10),
                 RedundancyConfig())
    assert out.selected == (1,)


def test_select_empty_summary_when_nothing_fits():
    sentences = [rec(0, 0, 0, "six words never fit this budget."),
                 rec(1, 1, 0, "neither does this second sentence here.")]
    ranking = CentralityResult("dg", {0: 1.0, 1: 0.5}, HIGHEST)
    with pytest.raises(EmptySummary):
        select(sentences, ranking, SummaryBudget("words", 3),
               RedundancyConfig())


def test_select_ar1_requires_vectors():
    sentences = [rec(0, 0, 0, "a b."), rec(1, 1, 0, "c d.")]
    ranking = CentralityResult("dg", {0: 1.0, 1: 0.5}, HIGHEST)
    for state in (None, SelectionState(sentences)):
        with pytest.raises(InvalidInput):
            select(sentences, ranking, SummaryBudget("words", 10),
                   RedundancyConfig("AR1"), state)


def test_select_ar1_skips_near_duplicates():
    rng = np.random.default_rng(43)
    records, pairs = util.random_records(rng, dup_pairs=1)
    a, b = pairs[0]
    ranking = util.ranking_preferring(records, [a, b])
    budget = SummaryBudget("words", 10_000)
    plain = select(records, ranking, budget, RedundancyConfig())
    assert a in plain.selected and b in plain.selected
    out = select(records, ranking, budget, RedundancyConfig("AR1"),
                 util.state_for(records))
    assert not (a in out.selected and b in out.selected)


def test_select_ar2_skips_near_duplicates():
    rng = np.random.default_rng(47)
    records, pairs = util.random_records(rng, dup_pairs=1)
    a, b = pairs[0]
    ranking = util.ranking_preferring(records, [a, b])
    out = select(records, ranking, SummaryBudget("words", 10_000),
                 RedundancyConfig("AR2"))
    assert not (a in out.selected and b in out.selected)


def _random_rankings(rng, records, count):
    return [CentralityResult("dg", {r.global_id: float(rng.integers(0, 4))
                                    for r in records}, HIGHEST)
            for _ in range(count)]


def test_ngram_similarity_with_prebuilt_sets():
    a = rec(0, 0, 0, "river flood town rescue crews")
    b = rec(1, 1, 0, "river flood town storm")
    grams = (ngram_sets(a.tokens), ngram_sets(b.tokens))
    assert ngram_similarity(a, b, grams) == ngram_similarity(a, b)


def test_selection_state_gives_the_same_summaries():
    rng = np.random.default_rng(53)
    records, _ = util.random_records(rng, n_sentences=14, dup_pairs=3)
    state = util.state_for(records)
    budget = SummaryBudget("words", 25)
    for ranking in _random_rankings(rng, records, 12):
        for red in (RedundancyConfig(), RedundancyConfig("AR1"),
                    RedundancyConfig("AR2")):
            assert select(records, ranking, budget, red, state) == \
                select(records, ranking, budget, red, util.state_for(records))


def test_selection_state_computes_each_piece_once(monkeypatch):
    rng = np.random.default_rng(59)
    records, _ = util.random_records(rng, n_sentences=12, dup_pairs=2)
    calls = []
    similarity = summarize.ngram_similarity

    def counted_similarity(a, b, grams=None):
        calls.append(frozenset((a.global_id, b.global_id)))
        return similarity(a, b, grams)

    monkeypatch.setattr(summarize, "ngram_similarity", counted_similarity)
    state = util.state_for(records)
    budget = SummaryBudget("words", 10_000)
    for ranking in _random_rankings(rng, records, 20):
        select(records, ranking, budget, RedundancyConfig("AR1"), state)
        select(records, ranking, budget, RedundancyConfig("AR2"), state)
    assert calls
    assert len(calls) == len(set(calls))


def test_select_rejects_a_state_of_other_sentences():
    rng = np.random.default_rng(61)
    records, _ = util.random_records(rng)
    state = SelectionState(list(records))
    ranking = util.ranking_preferring(records, [])
    with pytest.raises(InvalidParameter):
        select(records, ranking, SummaryBudget("words", 50),
               RedundancyConfig(), state)


def test_word_count():
    assert word_count("two  words") == 2
    assert word_count("") == 0


def _greedy_by_any(sentences, ranking, budget, red, cosines):
    """select's rule as oracles.greedy_full_scan: sort by (snapped score,
    layer, position, id), resolve the budget and count each candidate's
    words afresh, and test each candidate against every chosen sentence."""
    by_id = {r.global_id: r for r in sentences}
    pos = {r.global_id: k for k, r in enumerate(sentences)}
    if red.method == "AR1":
        l1 = ar1_threshold(cosines[np.triu_indices(len(sentences), 1)])

        def redundant(a, b):
            return cosines[pos[a.global_id], pos[b.global_id]] > l1
    elif red.method == "AR2":
        def redundant(a, b):
            return ngram_similarity(a, b) > AR2_THRESHOLD
    else:
        def redundant(a, b):
            return False
    sign = -1.0 if ranking.direction == HIGHEST else 1.0

    def key(gid):
        r = by_id[gid]
        return (sign * ranking.snapped[gid], r.layer_index,
                r.position_in_doc, gid)

    kind, limit = resolve_budget(budget, sentences)
    chosen, used = oracles.greedy_full_scan(
        [by_id[gid] for gid in sorted(by_id, key=key)],
        cost=lambda r: (word_count(r.raw_text) if kind == "words"
                        else len(r.raw_text)),
        usable=lambda r: bool(r.tokens), redundant=redundant, limit=limit,
        separator=1 if kind == "chars" else 0)
    if not chosen:
        raise EmptySummary(f"no sentence fits the {kind} budget of {limit}")
    return Summary(tuple(r.global_id for r in chosen),
                   " ".join(r.raw_text for r in chosen), used)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptySummary, InvalidInput) as exc:
        return type(exc)


# 0.5 and 0.5 + 1e-14 snap to the same 12 digits, so they tie
SCORES = st.sampled_from([0.0, 0.5, 0.5 + 1e-14, 1.0, 2.0, -math.inf])
TOKENS = st.lists(st.sampled_from(["river", "flood", "town", "storm", "crew"]),
                  max_size=6)


@st.composite
def selection_cases(draw):
    n = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(10, 10 + n)))
    records, positions = [], {}
    for gid in ids:
        layer = draw(st.integers(0, 2))
        tokens = tuple(draw(TOKENS))
        # raw text may carry words the tokens dropped, or none at all
        raw = " ".join(draw(st.sampled_from([(), ("the",), ("of", "a")]))
                       + tokens)
        records.append(SentenceRecord(gid, f"d{layer}", layer,
                                      positions.setdefault(layer, 0), raw,
                                      tokens))
        positions[layer] += 1
    upper = np.triu(np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.1, 0.4, 0.9]), min_size=n,
                 max_size=n), min_size=n, max_size=n))), 1)
    cosines = upper + upper.T
    calls = draw(st.lists(st.tuples(
        st.lists(SCORES, min_size=n, max_size=n),
        st.sampled_from([HIGHEST, LOWEST]),
        st.one_of(st.builds(SummaryBudget, st.just("words"),
                            st.integers(1, 20)),
                  st.builds(SummaryBudget, st.just("chars"),
                            st.integers(1, 80)),
                  st.builds(SummaryBudget, st.just("compression"),
                            st.sampled_from([0.1, 0.5, 0.9]))),
        st.sampled_from([RedundancyConfig(), RedundancyConfig("AR1"),
                         RedundancyConfig("AR2")])),
        min_size=1, max_size=6))
    return records, cosines, calls


@settings(max_examples=300, deadline=None)
@given(selection_cases())
def test_select_matches_the_greedy_rule(case):
    records, cosines, calls = case
    state = SelectionState(records, cosines)
    for scores, direction, budget, red in calls:
        ranking = CentralityResult(
            "dg", dict(zip((r.global_id for r in records), scores)),
            direction)
        assert _outcome(select, records, ranking, budget, red, state) \
            == _outcome(_greedy_by_any, records, ranking, budget, red,
                        cosines)
