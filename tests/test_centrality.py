import math
import time

import numpy as np
import pytest

import oracles
import util
from netsumm.centrality import (ALL_MEASURES, HIGHEST, LOWEST,
                                UNWEIGHTED_MEASURES, WEIGHTED_MEASURES,
                                CentralityResult, StochasticMatrix,
                                WalkParams, absorption_time, accessibility,
                                all_lengths_matrix, avg_shortest_path,
                                compute, degree, generalized_accessibility,
                                _true_diversity, pagerank,
                                saw_probabilities, strength, symmetry)
from netsumm.errors import ConvergenceError, InvalidParameter
from netsumm.evaluate import prepare_cluster
from netsumm.graph import (MultilayerGraph, apply_alpha, build, from_edges,
                           remove_weakest)

PATH3 = from_edges(3, [0, 1, 0], [(0, 1, 0.5), (1, 2, 0.5)])
STAR = from_edges(4, [0, 1, 1, 1], [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
CYCLE4 = from_edges(4, [0, 1, 0, 1],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


def test_measure_registry_partition():
    assert set(WEIGHTED_MEASURES) & set(UNWEIGHTED_MEASURES) == set()
    assert set(ALL_MEASURES) == set(WEIGHTED_MEASURES) | set(
        UNWEIGHTED_MEASURES)
    assert len(ALL_MEASURES) == 11


def test_ranked_directions_and_ties():
    res = CentralityResult("dg", {0: 1.0, 1: 3.0, 2: 1.0}, HIGHEST)
    assert res.ranked() == [1, 0, 2]
    res = CentralityResult("sp", {0: 1.0, 1: 3.0, 2: 1.0}, LOWEST)
    assert res.ranked() == [0, 2, 1]
    # scores equal to 12 significant digits tie; the raw scores stay
    res = CentralityResult("sym", {0: 0.9999999999999999, 1: 1.0, 2: 0.5},
                           HIGHEST)
    assert res.ranked() == [0, 1, 2]
    assert res.snapped == {0: 1.0, 1: 1.0, 2: 0.5}
    assert res.scores[0] < 1.0
    assert res.snapped is res.snapped  # computed once per result
    res = CentralityResult("absT", {0: 28.181818181818155,
                                    1: 28.181818181818127}, LOWEST)
    assert res.ranked() == [0, 1]


def test_walk_params_validation():
    WalkParams(h=3, pagerank_gamma=0.9)
    for bad in (dict(h=0), dict(pagerank_gamma=1.0), dict(pagerank_beta=0.0),
                dict(series_tolerance=0.0), dict(power_iter_tolerance=-1.0)):
        with pytest.raises(InvalidParameter):
            WalkParams(**bad)


def test_stochastic_matrix_validation():
    with pytest.raises(InvalidParameter):
        StochasticMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidParameter):
        StochasticMatrix(np.array([[-0.5, 1.5], [0.5, 0.5]]))
    with pytest.raises(InvalidParameter):
        StochasticMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))


def test_from_graph_matches_oracle_and_isolated_rows():
    g = from_edges(3, [0, 1, 0], [(0, 1, 0.5)])
    p = StochasticMatrix.from_graph(g).p
    want = oracles.transition_matrix(3, util.effective_triples(g), True)
    assert np.array_equal(p, want)
    assert np.allclose(p[2], 1 / 3)  # isolated node walks uniformly


def test_degree_and_strength_small():
    res = degree(PATH3)
    assert res.scores == {0: 1.0, 1: 2.0, 2: 1.0}
    assert res.direction == HIGHEST
    res = strength(PATH3)
    assert res.scores == {0: 0.5, 1: 1.0, 2: 0.5}
    # unweighted graphs count edges instead
    res = strength(from_edges(2, [0, 1], [(0, 1, 0.3)], weighted=False))
    assert res.scores == {0: 1.0, 1: 1.0}


def test_avg_shortest_path_penalty_for_unreachable():
    # component {0,1,2} plus isolated 3: D_max = 2 hops, penalty 3
    g = from_edges(4, [0, 1, 0, 1], [(0, 1, 0.5), (1, 2, 0.5)])
    res = avg_shortest_path(g, weighted=False)
    assert res.direction == LOWEST
    assert res.scores[0] == pytest.approx((1 + 2 + 3) / 3)
    assert res.scores[1] == pytest.approx((1 + 1 + 3) / 3)
    assert res.scores[3] == pytest.approx(3.0)


def test_avg_shortest_path_weighted_uses_inverse_weight():
    g = from_edges(2, [0, 1], [(0, 1, 0.25)])
    res = avg_shortest_path(g, weighted=True)
    assert res.scores[0] == pytest.approx(4.0)


def test_pagerank_matches_linear_solve():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = util.random_graph(rng, weighted=True)
        for weighted in (False, True):
            got = pagerank(g, weighted)
            want = oracles.pagerank_linear_solve(
                g.n_nodes, util.effective_triples(g), weighted,
                0.85, 0.15 / g.n_nodes)
            for i in range(g.n_nodes):
                assert got.scores[i] == pytest.approx(want[i], abs=1e-8)


def test_pagerank_beta_override():
    got = pagerank(CYCLE4, False, WalkParams(pagerank_beta=0.05))
    want = oracles.pagerank_linear_solve(
        4, util.effective_triples(CYCLE4), False, 0.85, 0.05)
    for i in range(4):
        assert got.scores[i] == pytest.approx(want[i], abs=1e-8)


def test_pagerank_convergence_error_carries_iterations():
    # a regular graph converges instantly; the path does not
    with pytest.raises(ConvergenceError) as exc:
        pagerank(PATH3, False,
                 WalkParams(power_iter_tolerance=1e-10, max_iterations=2))
    assert exc.value.iterations == 2


def test_saw_probabilities_hand_values():
    # cycle: both length-2 walks from 0 end at node 2
    assert saw_probabilities(CYCLE4, 0, 2) == {2: 1.0}
    # star centre: every 2-walk dead-ends at a leaf
    assert saw_probabilities(STAR, 0, 2) == {}
    # star leaf: forced to centre, then uniform over the other leaves
    assert saw_probabilities(STAR, 1, 2) == {2: 0.5, 3: 0.5}


def test_saw_probabilities_rejects_h_below_one():
    with pytest.raises(InvalidParameter):
        saw_probabilities(CYCLE4, 0, 0)


def test_saw_matches_exact_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = util.random_graph(rng, n_max=7)
        adj = util.adjacency_dict(g)
        h = int(rng.integers(1, 4))
        start = int(rng.integers(0, g.n_nodes))
        got = saw_probabilities(g, start, h)
        want = {v: float(p) for v, p in
                oracles.saw_distribution_exact(adj, start, h).items()}
        # float 1/k shares land within a few ulp of the exact rationals
        assert got.keys() == want.keys()
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_accessibility_closed_form_matches_exact_enumeration():
    # h <= 2 uses the matrix closed form; its float probabilities land
    # within a few ulp of the exact ones, and so do the scores
    rng = np.random.default_rng(19)
    for _ in range(40):
        g = util.random_graph(rng, n_max=9)
        adj = util.adjacency_dict(g)
        for h in (1, 2):
            got = accessibility(g, h).scores
            want = {}
            for i in range(g.n_nodes):
                exact = oracles.saw_distribution_exact(adj, i, h)
                want[i] = _true_diversity(
                    [float(exact[v]) for v in sorted(exact)])
            assert got.keys() == want.keys()
            assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_accessibility_refuses_unbounded_h():
    n = 30
    k30 = from_edges(n, [i % 2 for i in range(n)],
                     [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)],
                     weighted=False)
    start = time.perf_counter()
    with pytest.raises(InvalidParameter, match="self-avoiding walks"):
        accessibility(k30, 12)
    with pytest.raises(InvalidParameter, match="self-avoiding walks"):
        saw_probabilities(k30, 0, 12)
    assert time.perf_counter() - start < 1.0


def test_walks_longer_than_the_graph_score_zero():
    # a walk of h steps needs h + 1 distinct nodes
    assert saw_probabilities(CYCLE4, 0, 4) == {}
    assert accessibility(CYCLE4, 4).scores == {i: 0.0 for i in range(4)}
    assert symmetry(CYCLE4, 4).scores == {i: 0.0 for i in range(4)}


def test_accessibility_values():
    res = accessibility(STAR, 2)
    assert res.scores[0] == 0.0           # all walks dead-end
    assert res.scores[1] == pytest.approx(2.0)
    assert res.direction == HIGHEST


def test_all_lengths_matrix_matches_series():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = util.random_stochastic(rng, n_max=8)
        got = all_lengths_matrix(StochasticMatrix(p), 1e-12).p
        want = oracles.series_30_terms(p)
        assert np.abs(got - want).max() < 1e-9
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(InvalidParameter):
        all_lengths_matrix(StochasticMatrix(np.eye(2)), 0.0)


def test_generalized_accessibility_isolated_ranks_last():
    g = from_edges(3, [0, 1, 0], [(0, 1, 0.5)])
    res = generalized_accessibility(g)
    assert res.scores[2] == -math.inf
    assert res.ranked()[-1] == 2
    p_inf = oracles.series_30_terms(
        oracles.transition_matrix(3, util.effective_triples(g), True))
    assert res.scores[0] == pytest.approx(
        oracles.true_diversity({j: p_inf[0, j] for j in range(3)}), abs=1e-9)


def test_symmetry_path_hand_values():
    res = symmetry(PATH3, 2)
    assert res.scores == {0: 1.0, 1: 0.0, 2: 1.0}
    assert res.direction == HIGHEST


def test_symmetry_matches_forward_walk_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = util.random_graph(rng, n_max=7)
        adj = util.adjacency_dict(g)
        h = int(rng.integers(1, 4))
        res = symmetry(g, h)
        for i in range(g.n_nodes):
            xi = oracles.level_set(adj, i, h)
            if not xi:
                assert res.scores[i] == 0.0
                continue
            dist = oracles.forward_walk_distribution(adj, i, h)
            want = oracles.true_diversity(dist) / len(xi) if dist else 0.0
            assert res.scores[i] == pytest.approx(want, abs=1e-12)


def test_symmetry_is_alpha_invariant():
    rng = np.random.default_rng(37)
    g = util.random_multilayer(rng)
    base = symmetry(g, 2).scores
    assert symmetry(apply_alpha(g, 1.7), 2).scores == base


def test_symmetry_rejects_h_below_one():
    with pytest.raises(InvalidParameter):
        symmetry(PATH3, 0)


def test_absorption_time_star_hand_values():
    res = absorption_time(STAR)
    assert res.direction == LOWEST
    assert res.scores[0] == pytest.approx(1.0)          # leaves hit centre in 1
    assert res.scores[1] == pytest.approx(17 / 3)       # (5 + 6 + 6) / 3


def test_absorption_time_singleton_is_infinite():
    g = from_edges(3, [0, 1, 0], [(0, 1, 0.5)])
    assert absorption_time(g).scores[2] == math.inf


def test_absorption_time_matches_fundamental_matrix():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = util.random_graph(rng)
        got = absorption_time(g)
        want = oracles.absorption_tau_fundamental(
            g.n_nodes, util.effective_triples(g), True)
        for i in range(g.n_nodes):
            if math.isinf(want[i]):
                assert math.isinf(got.scores[i])
            else:
                assert got.scores[i] == pytest.approx(want[i], abs=1e-8)


def test_compute_registry_dispatch():
    for measure in ALL_MEASURES:
        res = compute(measure, CYCLE4)
        assert res.measure == measure
        assert set(res.scores) == {0, 1, 2, 3}
    assert compute("sp", CYCLE4).direction == LOWEST
    assert compute("dg", CYCLE4).direction == HIGHEST


def test_compute_sym_low_mirrors_sym():
    low = compute("sym_low", CYCLE4)
    assert low.scores == compute("sym", CYCLE4).scores
    assert low.direction == LOWEST


def test_compute_unknown_measure():
    with pytest.raises(InvalidParameter):
        compute("betweenness", CYCLE4)


def _tie_groups(res: CentralityResult) -> list:
    """The snapped ranking as an ordered list of sets of tied nodes."""
    groups = []
    for v in res.ranked():
        if groups and res.snapped[v] == res.snapped[groups[-1][0]]:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [set(group) for group in groups]


def _synthetic_graph():
    rng = np.random.default_rng(43)
    records, _ = util.random_records(rng, n_docs=4, n_sentences=40,
                                     dup_pairs=4)
    vectors = util.vectors_for(records)
    return build([vectors[rec.global_id] for rec in records],
                 [rec.layer_index for rec in records])


@pytest.mark.parametrize("source", ["c01", "c02", "synthetic"])
def test_snapped_ranking_survives_relabelled_nodes(toy_corpus, source):
    """Relabelling the nodes of the graph a measure reads changes every
    summation order; the ordered tie groups of every ranking stay put."""
    if source == "synthetic":
        base, hs = _synthetic_graph(), (2,)
        graphs = [base, remove_weakest(base, 0.3)]
    else:
        cluster = next(c for c in toy_corpus if c.id == source)
        base, hs = prepare_cluster(cluster).base, (2, 3)
        graphs = []
        for alpha in (0.5, 1.0, 1.9):
            g_alpha = apply_alpha(base, alpha)
            graphs += [g_alpha] + [remove_weakest(g_alpha, r)
                                   for r in (0.1, 0.3)]
    perm = np.random.default_rng(47).permutation(base.n_nodes)
    for g in graphs:
        # node k of `moved` is node perm[k] of g
        moved = MultilayerGraph(g.W[np.ix_(perm, perm)], g.layers[perm],
                                g.weighted)
        for h in hs:
            params = WalkParams(h=h)
            for measure in ALL_MEASURES:
                want = compute(measure, g, params)
                got = compute(measure, moved, params)
                back = CentralityResult(measure, {
                    int(perm[k]): x for k, x in got.scores.items()},
                    got.direction)
                assert _tie_groups(back) == _tie_groups(want), \
                    (measure, h, g.weighted)
