"""Randomized invariants. Each property states a contract the implementation
must hold for arbitrary inputs, with an independent oracle where one exists."""

import math
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netsumm.centrality import StochasticMatrix, saw_probabilities
from netsumm.corpus import SummaryBudget
from netsumm.errors import EmptySummary
from netsumm.evaluate import (AGGREGATES, RougeReferences,
                              rouge1_recall, rouge_tokens)
from netsumm.graph import INTER, INTRA, apply_alpha, from_edges, remove_weakest
from netsumm.preprocess import (SentenceRecord, fold, load_resources,
                                normalize, segment, stem)
from netsumm.summarize import RedundancyConfig, select, word_count
from netsumm.tfidf import cosine, fit, vectorize
from util import ranking_preferring

EN = load_resources("en")

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=12)
texts = st.text(
    alphabet="abcdefghij .!?,;\n\t'0123456789ÁéãçÍ-", max_size=200)


@given(words)
def test_stem_is_idempotent(word):
    assert stem(stem(word)) == stem(word)


@given(texts)
def test_fold_is_idempotent(text):
    assert fold(fold(text)) == fold(text)


@given(texts)
def test_normalize_is_idempotent(text):
    once = normalize(text, EN)
    assert normalize(" ".join(once), EN) == once


@given(texts)
def test_segment_preserves_tokens(text):
    whole = rouge_tokens(fold(text))
    pieces = [tok for s in segment(text) for tok in rouge_tokens(fold(s))]
    assert pieces == whole


@given(texts)
def test_segment_pieces_always_carry_a_token(text):
    for s in segment(text):
        assert rouge_tokens(fold(s))
        assert s == " ".join(s.split())  # whitespace collapsed


token_pool = st.sampled_from(
    ["river", "flood", "crew", "boat", "rain", "town", "road", "water"])
token_lists = st.lists(st.lists(token_pool, max_size=6), min_size=2,
                       max_size=7)


@given(token_lists, st.data())
def test_cosine_bounds_symmetry_and_oracle(lists, data):
    doc_of = [data.draw(st.integers(0, 2)) for _ in lists]
    if not any(lists):
        return
    records = [SentenceRecord(i, f"d{d}", d, 0, " ".join(t), tuple(t))
               for i, (t, d) in enumerate(zip(lists, doc_of))]
    model = fit(records, len(set(doc_of)))
    vs = [vectorize(r, model) for r in records]
    want = oracles.dense_cosine_matrix(lists, doc_of)
    for i in range(len(vs)):
        for j in range(len(vs)):
            c = cosine(vs[i], vs[j])
            assert 0.0 <= c <= 1.0
            assert c == cosine(vs[j], vs[i])
            assert c == pytest.approx(min(1.0, want[i, j]), abs=1e-9)


@st.composite
def graphs(draw, n_max=7):
    n = draw(st.integers(2, n_max))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    triples = [(i, j, draw(st.floats(0.05, 1.0))) for i, j in chosen]
    layers = [draw(st.integers(0, 1)) for _ in range(n)]
    return from_edges(n, layers, triples)


@given(graphs(), st.floats(0.1, 3.0))
def test_apply_alpha_contract(g, alpha):
    out = apply_alpha(g, alpha)
    assert out.n_nodes == g.n_nodes and len(out.edges) == len(g.edges)
    for before, after in zip(g.edges, out.edges):
        if before.kind == INTRA:
            assert after == before
        else:
            assert after.kind == INTER
            assert after.weight == before.weight * alpha


@given(graphs(), st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]))
def test_remove_weakest_contract(g, r):
    out = remove_weakest(g, r)
    keep = oracles.sort_and_cut([((e.u, e.v), e.weight) for e in g.edges], r)
    assert {(e.u, e.v) for e in out.edges} == keep
    k = int(Fraction(str(r)) * len(g.edges))
    assert len(out.edges) == len(g.edges) - k
    assert not out.weighted
    original = {(e.u, e.v): e.weight for e in g.edges}
    assert all(e.weight == original[(e.u, e.v)] for e in out.edges)


@given(graphs())
def test_transition_rows_are_stochastic(g):
    p = StochasticMatrix.from_graph(g).p
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


@settings(deadline=None)
@given(graphs(n_max=6), st.integers(1, 3), st.data())
def test_saw_distribution_matches_enumeration(g, h, data):
    start = data.draw(st.integers(0, g.n_nodes - 1))
    adj = {i: set() for i in range(g.n_nodes)}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    got = saw_probabilities(g, start, h)
    want = {v: float(p) for v, p in
            oracles.saw_distribution_exact(adj, start, h).items()}
    assert got.keys() == want.keys()
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    if got:
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


word_bags = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=20)


@given(word_bags, word_bags)
def test_rouge_bounds_and_monotonicity(cand, ref):
    ref_text = " ".join(ref)
    score = rouge1_recall(" ".join(cand), [ref_text])
    assert 0.0 <= score <= 1.0
    grown = rouge1_recall(" ".join(cand + ref), [ref_text])
    assert grown >= score
    assert rouge1_recall(ref_text, [ref_text]) == 1.0


def _clipped_recall(candidate: str, references: list, aggregate: str):
    """ROUGE-1 recall by Counters, one reference at a time."""
    cand = Counter(rouge_tokens(candidate))
    scores = []
    for ref in references:
        counts = Counter(rouge_tokens(ref))
        hits = sum(min(k, counts[tok]) for tok, k in cand.items())
        scores.append(hits / sum(counts.values()))
    return max(scores) if aggregate == "max" else sum(scores) / len(scores)


# few distinct words, so tokens repeat and clip; "Z" and "y" are in no
# reference
sentence_texts = st.lists(st.sampled_from(["a", "b", "c", "Z", "y", "a,"]),
                          max_size=8).map(" ".join)
reference_texts = st.lists(st.sampled_from("abcdx"), min_size=1,
                           max_size=12).map(" ".join)


@given(st.lists(sentence_texts, min_size=1, max_size=8),
       st.lists(reference_texts, min_size=1, max_size=4), st.data())
def test_rouge_count_rows_score_as_rouge1_recall(sentences, references,
                                                 data):
    refs = RougeReferences(references)
    rows = np.array([refs.counts(rouge_tokens(s)) for s in sentences])
    selected = data.draw(st.lists(st.integers(0, len(sentences) - 1),
                                  unique=True))
    text = " ".join(sentences[k] for k in selected)
    for aggregate in AGGREGATES:
        score = refs.recall(rows[selected].sum(axis=0), aggregate)
        assert score == rouge1_recall(text, references, aggregate) \
            == _clipped_recall(text, references, aggregate)


sentence_records = st.lists(
    st.lists(token_pool, min_size=1, max_size=8), min_size=2, max_size=8)


@settings(deadline=None)
@given(sentence_records, st.integers(1, 50))
def test_select_respects_word_budget(lists, limit):
    records = [SentenceRecord(i, f"d{i % 2}", i % 2, i // 2,
                              " ".join(t) + ".", tuple(t))
               for i, t in enumerate(lists)]
    ranking = ranking_preferring(records, [])
    try:
        out = select(records, ranking, SummaryBudget("words", limit),
                     RedundancyConfig())
    except EmptySummary:
        assert all(word_count(r.raw_text) > limit for r in records)
        return
    assert word_count(out.text) <= limit
    assert out.budget_used == word_count(out.text)
    assert len(set(out.selected)) == len(out.selected)


@settings(deadline=None)
@given(sentence_records, st.integers(5, 120))
def test_select_respects_char_budget(lists, limit):
    records = [SentenceRecord(i, f"d{i % 2}", i % 2, i // 2,
                              " ".join(t) + ".", tuple(t))
               for i, t in enumerate(lists)]
    ranking = ranking_preferring(records, [])
    try:
        out = select(records, ranking, SummaryBudget("chars", limit),
                     RedundancyConfig())
    except EmptySummary:
        assert all(len(r.raw_text) > limit for r in records)
        return
    assert len(out.text) <= limit
    assert out.budget_used == len(out.text)


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    """Under the repository's warning filters, Hypothesis's failure report
    (which imports libcst) fails its own test and the next test runs."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """), encoding="utf-8")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
