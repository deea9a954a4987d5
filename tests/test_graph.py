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
from netsumm.summarize import prepare_cluster
from netsumm.tfidf import SentenceVector, cosine, fit, stack, vectorize


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


def test_build_needs_one_layer_index_per_vector():
    vs = _vectors([["a", "b"], ["b", "c"], ["c", "a"]], [0, 0, 1])
    for layers in ([0, 0, 1, 1], [0, 1]):   # extra, then missing entries
        with pytest.raises(InvalidInput, match="layer indices for 3"):
            build(vs, layers)


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
        got = cosine_matrix(stack(vectors))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert {0, 1, 2, 3} <= set(shared)
        assert any(not v.weights for v in vectors)


def test_cosine_matrix_rejects_non_positive_weights():
    vectors = [SentenceVector(0, {0: 1.0}, 1.0),
               SentenceVector(1, {0: -1.0}, 1.0)]
    with pytest.raises(InvalidInput):
        cosine_matrix(stack(vectors))


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


def test_apply_alpha_refuses_an_alpha_that_drops_an_edge(toy_corpus):
    base = prepare_cluster(toy_corpus[0]).base
    assert len(base.edges) == 23
    # the scaled inter weights below 0.5 round to 0, leaving 3 edges
    with pytest.raises(InvalidParameter, match="to 0"):
        apply_alpha(base, 5e-324)
    assert len(apply_alpha(base, 1e-320).edges) == 23


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


def test_remove_weakest_cuts_many_ties_in_pair_order():
    # three weight values over ~50 edges: long runs of ties at every cut
    rng = np.random.default_rng(37)
    triples = [(i, j, float(rng.choice([0.25, 0.5, 0.75])))
               for i, j, _ in util.random_edge_triples(rng, 14, p=0.55)]
    g = from_edges(14, [k % 2 for k in range(14)], triples)
    assert len(triples) > 40
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9):
        keep = oracles.sort_and_cut([((i, j), w) for i, j, w in triples], r)
        assert {(e.u, e.v) for e in remove_weakest(g, r).edges} == keep


def test_remove_weakest_matches_a_stable_sort_on_exact_ties():
    # weights from a few values, so every cut falls inside a run of ties
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(4, 16))
        values = rng.random(int(rng.integers(1, 4)))
        triples = [(i, j, float(rng.choice(values)))
                   for i, j, _ in util.random_edge_triples(rng, n, p=0.6)]
        if not triples:
            continue
        g = from_edges(n, [k % 2 for k in range(n)], triples)
        for r in [k / 20 for k in range(20)]:
            out = remove_weakest(g, r)
            kept = {(e.u, e.v): e.weight for e in out.edges}
            assert kept.keys() == oracles.stable_sort_cut(triples, r)
            assert all(kept[i, j] == w for i, j, w in triples
                       if (i, j) in kept)


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


def test_components_read_no_hop_matrix():
    rng = np.random.default_rng(37)
    n = 400   # one long path: a search walks hundreds of frontiers
    order = rng.permutation(n).tolist()
    path = from_edges(n, [k % 2 for k in range(n)],
                      [(order[k], order[k + 1], 1.0) for k in range(n - 1)])
    graphs = [path] + [_blocks_graph(rng) for _ in range(10)]
    for g in graphs:
        pairs = [(e.u, e.v) for e in g.edges]
        assert connected_components(g) == \
            oracles.components(g.n_nodes, pairs)
        assert "hops" not in vars(g)   # the cached hop matrix was not built


def _blocks_graph(rng):
    """Two isolated nodes and three sparse connected blocks of 2-11 nodes,
    the nodes shuffled so that components interleave in node order."""
    sizes = [1, 1] + [int(k) for k in rng.integers(2, 12, size=3)]
    nodes = rng.permutation(sum(sizes)).tolist()
    triples, start = [], 0
    for size in sizes:
        block = nodes[start:start + size]
        start += size
        pairs = {(k - 1, k) for k in range(1, size)}  # keeps the block whole
        pairs |= {(i, j) for i, j, _ in
                  util.random_edge_triples(rng, size, p=0.15)}
        triples += [(block[i], block[j], float(rng.uniform(0.05, 1.0)))
                    for i, j in sorted(pairs)]
    layers = [int(x) for x in rng.integers(0, 2, len(nodes))]
    return from_edges(len(nodes), layers, triples)


def test_hops_match_floyd_warshall_and_components():
    rng = np.random.default_rng(29)
    graphs = [util.random_graph(rng, n_max=12) for _ in range(30)]
    for _ in range(20):   # sparse, so hop counts run well past 2
        n = int(rng.integers(10, 31))
        graphs.append(from_edges(n, [0] * n, util.random_edge_triples(
            rng, n, p=float(rng.uniform(0.03, 0.2)))))
    graphs += [_blocks_graph(rng) for _ in range(20)]
    n = 48
    graphs.append(from_edges(n, [0] * n, [(k, k + 1, 1.0)
                                          for k in range(n - 1)]))
    for g in graphs:
        pairs = [(e.u, e.v) for e in g.edges]
        assert np.array_equal(g.hops, oracles.floyd_warshall(
            g.n_nodes, pairs, weighted=False))
        assert connected_components(g) == \
            oracles.components(g.n_nodes, pairs)
    assert any(len(connected_components(g)) > 2 for g in graphs)


def test_hops_of_a_300_node_path():
    n = 300
    order = np.random.default_rng(31).permutation(n).tolist()
    g = from_edges(n, [k % 2 for k in range(n)],
                   [(order[k], order[k + 1], 1.0) for k in range(n - 1)])
    along = np.argsort(order)   # each node's place along the path
    assert np.array_equal(g.hops, np.abs(along[:, None] - along[None, :]))
    assert g.hops.max() == n - 1


def test_hops_is_computed_once_and_read_only():
    g = from_edges(3, [0, 1, 1], [(0, 1, 0.5)])
    assert g.hops is g.hops
    assert g.hops.tolist() == [[0, 1, math.inf], [1, 0, math.inf],
                               [math.inf, math.inf, 0]]
    with pytest.raises(ValueError):
        g.hops[0, 1] = 2.0
    assert remove_weakest(g, 0.0).hops is not g.hops
