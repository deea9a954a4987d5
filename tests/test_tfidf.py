import math

import numpy as np
import pytest

import oracles
from netsumm.corpus import load_cluster
from netsumm.errors import DegenerateCluster
from netsumm.preprocess import SentenceRecord, build_sentences, load_resources
from netsumm.tfidf import (cluster_vectors, cosine, fit, vectorize,
                           vectorize_all)


def rec(gid, doc, tokens):
    # document "d<k>" is layer k
    return SentenceRecord(gid, doc, int(doc[1:]), gid, " ".join(tokens),
                          tuple(tokens))


def test_fit_vocabulary_and_doc_freq():
    records = [rec(0, "d0", ["river", "flood"]),
               rec(1, "d0", ["river", "rain"]),
               rec(2, "d1", ["flood", "rain"])]
    model = fit(records, 2)
    assert sorted(model.vocabulary) == ["flood", "rain", "river"]
    assert list(model.vocabulary.values()) == [0, 1, 2]
    # df counts distinct documents, not sentences
    assert model.doc_freq == {"river": 1, "flood": 2, "rain": 2}


def test_doc_freq_counts_documents_that_share_a_stem(tmp_path):
    # a.txt and a.md have the same stem, so the same doc_id, yet they are
    # two documents (two layers) of the cluster
    cdir = tmp_path / "c1"
    (cdir / "docs").mkdir(parents=True)
    (cdir / "manifest").write_text("budget = words:20\n", encoding="utf-8")
    for name, text in (("a.txt", "The cat sat."), ("a.md", "A cat ran."),
                       ("b.txt", "The cat slept.")):
        (cdir / "docs" / name).write_text(text, encoding="utf-8")
    cluster = load_cluster(cdir)
    records = build_sentences(cluster, load_resources("en"))
    assert len({r.doc_id for r in records}) == 2
    model = fit(records, len(cluster.documents))
    assert model.n_docs == 3
    assert model.doc_freq["cat"] == 3
    assert model.idf("cat") == 1.0


def test_idf_formula():
    model = fit([rec(0, "d0", ["a"]), rec(1, "d1", ["b"]),
                 rec(2, "d2", ["a"])], 3)
    assert model.idf("a") == pytest.approx(math.log(3 / 2) + 1)
    assert model.idf("b") == pytest.approx(math.log(3) + 1)


def test_fit_degenerate():
    with pytest.raises(DegenerateCluster):
        fit([rec(0, "d0", []), rec(1, "d1", [])], 2)


def test_vectorize_term_frequency_share():
    records = [rec(0, "d0", ["a", "a", "b"]), rec(1, "d1", ["b"])]
    model = fit(records, 2)
    v = vectorize(records[0], model)
    ia, ib = model.vocabulary["a"], model.vocabulary["b"]
    assert v.weights[ia] == pytest.approx((2 / 3) * (math.log(2) + 1))
    assert v.weights[ib] == pytest.approx((1 / 3) * 1.0)
    assert v.norm == pytest.approx(
        math.hypot(v.weights[ia], v.weights[ib]))


def test_vectorize_empty_tokens_zero_vector():
    records = [rec(0, "d0", ["a"]), rec(1, "d1", ["b"])]
    model = fit(records, 2)
    empty = vectorize(rec(2, "d0", []), model)
    assert empty.weights == {} and empty.norm == 0.0
    assert cosine(empty, vectorize(records[0], model)) == 0.0


def test_vectorize_skips_unknown_terms():
    records = [rec(0, "d0", ["a"]), rec(1, "d1", ["a"])]
    model = fit(records, 2)
    v = vectorize(rec(2, "d0", ["a", "zz"]), model)
    assert len(v.weights) == 1


def test_cosine_identity_and_symmetry():
    records = [rec(0, "d0", ["a", "b"]), rec(1, "d1", ["a", "b"]),
               rec(2, "d1", ["c"])]
    model = fit(records, 2)
    vs = [vectorize(r, model) for r in records]
    # identical token bags; 1.0 within rounding, never above
    assert cosine(vs[0], vs[1]) == pytest.approx(1.0, abs=1e-12)
    assert cosine(vs[0], vs[1]) <= 1.0
    assert cosine(vs[0], vs[2]) == 0.0  # disjoint vocabularies
    assert cosine(vs[0], vs[1]) == cosine(vs[1], vs[0])


def test_cosine_matches_dense_oracle():
    rng = np.random.default_rng(7)
    pool = ["w%d" % k for k in range(12)]
    for _ in range(25):
        n_docs = int(rng.integers(2, 4))
        token_lists, doc_of = [], []
        for i in range(int(rng.integers(3, 9))):
            k = int(rng.integers(1, 6))
            token_lists.append([pool[int(j)]
                                for j in rng.integers(0, len(pool), k)])
            doc_of.append(int(rng.integers(0, n_docs)))
        if len(set(doc_of)) < 2:
            continue
        records = [SentenceRecord(i, f"d{d}", d, 0, " ".join(toks),
                                  tuple(toks))
                   for i, (toks, d) in enumerate(zip(token_lists, doc_of))]
        model = fit(records, len(set(doc_of)))
        vs = [vectorize(r, model) for r in records]
        want = oracles.dense_cosine_matrix(token_lists, doc_of)
        for i in range(len(records)):
            for j in range(len(records)):
                assert cosine(vs[i], vs[j]) == pytest.approx(
                    min(1.0, want[i, j]), abs=1e-9)


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_vectorize_all_is_bitwise_the_per_sentence_referee():
    rng = np.random.default_rng(23)
    pool = ["w%d" % k for k in range(40)]
    for _ in range(30):
        records = []
        for gid in range(int(rng.integers(1, 30))):
            # repeated terms, and some sentences without tokens
            toks = [pool[int(j)] for j in
                    rng.integers(0, len(pool), int(rng.integers(0, 25)))]
            doc = int(rng.integers(0, 4))
            records.append(rec(gid, f"d{doc}", toks))
        if not any(r.tokens for r in records):
            continue
        model = fit(records, 4)
        # terms the model never saw count in a sentence's size only
        records.append(rec(len(records), "d0", ["zz", pool[0], "zz"]))
        got = vectorize_all(records, model)
        for i, r in enumerate(records):
            weights, norm = oracles.tfidf_vector(
                r.tokens, model.vocabulary, model.doc_freq, model.n_docs)
            mine = got.sentence == i
            assert got.term[mine].tolist() == list(weights)
            assert _bits(got.weight[mine]) == _bits(list(weights.values()))
            assert _bits([got.norms[i]]) == _bits([norm])
            one = vectorize(r, model)
            assert list(one.weights) == list(weights)
            assert _bits(list(one.weights.values())) == _bits(
                list(weights.values()))
            assert _bits([one.norm]) == _bits([norm])


def test_cluster_vectors_is_vectorize_all_of_fit_bit_for_bit():
    rng = np.random.default_rng(29)
    pool = ["w%d" % k for k in range(40)]
    for _ in range(30):
        records = []
        for gid in range(int(rng.integers(1, 30))):
            toks = [pool[int(j)] for j in
                    rng.integers(0, len(pool), int(rng.integers(0, 25)))]
            records.append(rec(gid, f"d{int(rng.integers(0, 4))}", toks))
        if not any(r.tokens for r in records):
            continue
        n_docs = int(rng.integers(4, 7))
        model = fit(records, n_docs)
        want = vectorize_all(records, model)
        got = cluster_vectors(records, n_docs)
        # got's term ids rank the terms by first occurrence
        seen = list(dict.fromkeys(t for r in records for t in r.tokens))
        vocab = sorted(model.vocabulary)
        assert [seen[t] for t in got.term.tolist()] == \
            [vocab[t] for t in want.term.tolist()]
        assert got.sentence.tolist() == want.sentence.tolist()
        assert _bits(got.weight) == _bits(want.weight)
        assert _bits(got.norms) == _bits(want.norms)


def test_cluster_vectors_degenerate():
    with pytest.raises(DegenerateCluster):
        cluster_vectors([rec(0, "d0", []), rec(1, "d1", [])], 2)
