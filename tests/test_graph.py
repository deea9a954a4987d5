import math

import numpy as np
import pytest

import oracles
import util
from netsumm.errors import EmptyGraph, InvalidInput, InvalidParameter
from netsumm.graph import (INTER, INTRA, apply_alpha, build,
                           connected_components, cosine_matrix, from_edges,
                           remove_weakest)
from netsumm.preprocess import SentenceRecord
from netsumm.tfidf import SentenceVector, cosine, fit, vectorize


def _vectors(token_lists, doc_of):
    records = [SentenceRecord(i, f"d{d}", d, 0, " ".join(t), tuple(t))
               for i, (t, d) in enumerate(zip(token_lists, doc_of))]
    model = fit(records, len(set(doc_of)))
    return [vectorize(r, model) for r in records]


def test_build_edge_kinds_and_weights():
    vs = _vectors([["a", "b"], ["b", "c"], ["c", "a"]], [0, 0, 1])
    g = build(vs, [0, 0, 1])
    kinds = {(e.u, e.v): e.kind for e in g.edges}
    assert kinds == {(0, 1): INTRA, (0, 2): INTER, (1, 2): INTER}
    assert g.weighted and g.n_nodes == 3
    want = oracles.dense_cosine_matrix([["a", "b"], ["b", "c"], ["c", "a"]],
                                       [0, 0, 1])
    for e in g.edges:
        assert e.weight == pytest.approx(want[e.u, e.v], abs=1e-12)


def test_build_skips_zero_similarity_pairs():
    vs = _vectors([["a"], ["a"], ["b"]], [0, 1, 1])
    g = build(vs, [0, 1, 1])
    assert {(e.u, e.v) for e in g.edges} == {(0, 1)}


def test_build_needs_two_layers():
    vs = _vectors([["a"], ["a"]], [0, 0])
    with pytest.raises(InvalidInput):
        build(vs, [0, 0])


def test_build_empty_graph():
    vs = _vectors([["a"], ["b"]], [0, 1])
    with pytest.raises(EmptyGraph):
        build(vs, [0, 1])


def _random_vectors(rng, n, n_terms):
    vectors = []
    for gid in range(n):
        size = int(rng.integers(0, 7))
        terms = rng.choice(n_terms, size, replace=False).tolist()
        weights = {t: float(rng.random() ** 3 * 5 + 1e-3) for t in terms}
        norm = float(np.sqrt(sum(w * w for w in weights.values())))
        vectors.append(SentenceVector(gid, weights, norm))
    vectors += [SentenceVector(n + k, dict(v.weights), v.norm)
                for k, v in enumerate(vectors[:3])]   # cosine capped at 1
    return vectors


def test_cosine_matrix_is_bitwise_tfidf_cosine():
    rng = np.random.default_rng(73)
    for n_terms in (6, 12, 30):
        vectors = _random_vectors(rng, 60, n_terms)
        n = len(vectors)
        want = np.zeros((n, n))
        shared = []
        for i in range(n):
            for j in range(i + 1, n):
                want[i, j] = want[j, i] = cosine(vectors[i], vectors[j])
                shared.append(len(vectors[i].weights.keys()
                                  & vectors[j].weights.keys()))
        got = cosine_matrix(vectors)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert {0, 1, 2, 3} <= set(shared)
        assert any(not v.weights for v in vectors)


def test_cosine_matrix_rejects_non_positive_weights():
    vectors = [SentenceVector(0, {0: 1.0}, 1.0),
               SentenceVector(1, {0: -1.0}, 1.0)]
    with pytest.raises(InvalidInput):
        cosine_matrix(vectors)


def test_from_edges_kind_derivation_and_ordering():
    g = from_edges(3, [0, 0, 1], [(2, 0, 0.5), (0, 1, 0.25)])
    by_pair = {(e.u, e.v): e for e in g.edges}
    assert by_pair[(0, 2)].kind == INTER   # endpoints reordered u < v
    assert by_pair[(0, 1)].kind == INTRA


@pytest.mark.parametrize("bad", [
    [(0, 0, 0.5)],                  # self-loop
    [(0, 1, 0.0)],                  # non-positive weight
    [(0, 1, 0.5), (1, 0, 0.4)],     # duplicate after reordering
])
def test_from_edges_rejects(bad):
    with pytest.raises(InvalidInput):
        from_edges(2, [0, 1], bad)


def test_apply_alpha_scales_only_inter():
    g = from_edges(3, [0, 0, 1], [(0, 1, 0.4), (1, 2, 0.6)])
    out = apply_alpha(g, 1.5)
    intra = [e for e in out.edges if e.kind == INTRA]
    inter = [e for e in out.edges if e.kind == INTER]
    assert intra[0] == g.edges[0]          # same (u, v, weight, kind)
    assert inter[0].weight == 0.6 * 1.5
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            apply_alpha(g, bad)


def test_apply_alpha_identity_keeps_values():
    rng = np.random.default_rng(3)
    g = util.random_multilayer(rng)
    out = apply_alpha(g, 1.0)
    assert [e.weight for e in out.edges] == [e.weight for e in g.edges]


def test_remove_weakest_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = util.random_graph(rng, weighted=True)
        r = float(rng.choice([0.0, 0.1, 0.2, 0.3, 0.4, 0.5]))
        keep = oracles.sort_and_cut([((e.u, e.v), e.weight)
                                     for e in g.edges], r)
        out = remove_weakest(g, r)
        assert {(e.u, e.v) for e in out.edges} == keep
        assert not out.weighted
        # surviving weights are retained untouched
        orig = {(e.u, e.v): e.weight for e in g.edges}
        assert all(e.weight == orig[(e.u, e.v)] for e in out.edges)


def test_remove_weakest_exact_float_fractions():
    # 0.3 * 10 sits just below 3 in binary floats; the cut must still be 3
    triples = [(i, i + 1, 0.1 * (i + 1)) for i in range(10)]
    g = from_edges(11, [0, 1] * 5 + [0], triples)
    out = remove_weakest(g, 0.3)
    assert len(out.edges) == 7


def test_remove_weakest_tie_break_is_deterministic():
    triples = [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.5)]
    g = from_edges(4, [0, 1, 0, 1], triples)
    out = remove_weakest(g, 0.5)   # drops 2 of 4, lowest (u, v) first
    assert {(e.u, e.v) for e in out.edges} == {(1, 2), (2, 3)}


def test_remove_weakest_r_zero_flags_unweighted():
    g = from_edges(2, [0, 1], [(0, 1, 0.9)])
    out = remove_weakest(g, 0.0)
    assert len(out.edges) == 1 and not out.weighted


def test_remove_weakest_validation():
    g = from_edges(2, [0, 1], [(0, 1, 0.9)])
    with pytest.raises(InvalidParameter):
        remove_weakest(g, 1.0)
    with pytest.raises(InvalidInput):
        remove_weakest(remove_weakest(g, 0.0), 0.0)


def test_adjacency_and_components():
    g = from_edges(5, [0, 0, 1, 1, 0], [(0, 1, 0.5), (1, 2, 0.25)])
    assert g.W.tolist() == [[0, 0.5, 0, 0, 0], [0.5, 0, 0.25, 0, 0],
                            [0, 0.25, 0, 0, 0], [0] * 5, [0] * 5]
    assert connected_components(g) == [[0, 1, 2], [3], [4]]


def test_components_match_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = util.random_graph(rng)
        pairs = [(e.u, e.v) for e in g.edges]
        assert connected_components(g) == \
            oracles.components(g.n_nodes, pairs)
