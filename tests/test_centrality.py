import math
import time

import numpy as np
import pytest

import oracles
import util
from netsumm import centrality
from netsumm.centrality import (ALL_MEASURES, HIGHEST, LOWEST,
                                UNWEIGHTED_MEASURES, WEIGHTED_MEASURES,
                                CentralityResult, StochasticMatrix,
                                absorption_time, accessibility,
                                all_lengths_matrix, avg_shortest_path,
                                compute, degree, generalized_accessibility,
                                _row_diversity, pagerank, saw_probabilities,
                                strength, symmetry)
from netsumm.errors import ConvergenceError, InvalidParameter
from netsumm.graph import (MultilayerGraph, apply_alpha, build, from_edges,
                           remove_weakest)
from netsumm.summarize import prepare_cluster

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
    res = CentralityResult("dg", [1.0, 3.0, 1.0], HIGHEST)
    assert res.ranked() == [1, 0, 2]
    res = CentralityResult("sp", [1.0, 3.0, 1.0], LOWEST)
    assert res.ranked() == [0, 2, 1]
    # scores equal to 12 significant digits tie; the raw scores stay
    res = CentralityResult("sym", [0.9999999999999999, 1.0, 0.5], HIGHEST)
    assert res.ranked() == [0, 1, 2]
    assert res.snapped.tolist() == [1.0, 1.0, 0.5]
    assert res.scores[0] < 1.0
    assert res.snapped is res.snapped  # computed once per result
    res = CentralityResult("absT", [28.181818181818155, 28.181818181818127],
                           LOWEST)
    assert res.ranked() == [0, 1]
    # an infinite score is last in its direction: absT's singleton is +inf
    # and gAccess's isolated node -inf
    res = CentralityResult("absT", [math.inf, 2.0, 1.0, math.inf], LOWEST)
    assert res.ranked() == [2, 1, 0, 3]
    res = CentralityResult("gAccess", [-math.inf, 2.0, 1.0], HIGHEST)
    assert res.ranked() == [1, 2, 0]
    assert all(type(v) is int for v in res.ranked())


def test_scores_and_snapped_are_read_only_copies():
    source = np.array([1.0, 2.0, 3.0])
    res = CentralityResult("dg", source, HIGHEST)
    source[0] = 9.0
    assert res.scores.tolist() == [1.0, 2.0, 3.0]
    assert res.scores.dtype == np.float64
    with pytest.raises(ValueError):
        res.scores[0] = 5.0
    with pytest.raises(ValueError):
        res.snapped[0] = 5.0
    # sym_low shares sym's scores, which neither result can write
    low = centrality.sym_low_from(symmetry(PATH3, 2))
    with pytest.raises(ValueError):
        low.scores[1] = 5.0


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
    assert res.scores.tolist() == [1.0, 2.0, 1.0]
    assert res.direction == HIGHEST
    res = strength(PATH3)
    assert res.scores.tolist() == [0.5, 1.0, 0.5]
    # unweighted graphs count edges instead
    res = strength(from_edges(2, [0, 1], [(0, 1, 0.3)], weighted=False))
    assert res.scores.tolist() == [1.0, 1.0]


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


def _assert_sp_w_matches_oracle(g):
    got = avg_shortest_path(g, weighted=True)
    assert got.measure == "sp_w" and got.direction == LOWEST
    want = oracles.avg_distance_with_penalty(oracles.floyd_warshall(
        g.n_nodes, util.effective_triples(g), weighted=True))
    for i in range(g.n_nodes):
        assert got.scores[i] == pytest.approx(want[i], rel=1e-15)
    return got.scores


def test_sp_w_takes_a_two_hop_path_shorter_than_the_direct_edge():
    # 0-2 directly has length 1/0.1 = 10; through 1 it is 2 + 2 = 4
    g = from_edges(3, [0, 1, 0], [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.1)])
    scores = _assert_sp_w_matches_oracle(g)
    assert scores.tolist() == [(2 + 4) / 2, (2 + 2) / 2, (4 + 2) / 2]


def test_sp_w_penalizes_a_disconnected_pair_with_d_max_plus_one():
    # components {0, 1} (length 2) and {2, 3} (length 4): D_max 4, penalty 5
    g = from_edges(4, [0, 1, 0, 1], [(0, 1, 0.5), (2, 3, 0.25)])
    scores = _assert_sp_w_matches_oracle(g)
    assert scores.tolist() == [(2 + 5 + 5) / 3, (2 + 5 + 5) / 3,
                               (5 + 5 + 4) / 3, (5 + 5 + 4) / 3]


def test_sp_w_isolated_node_pays_the_penalty_to_every_node():
    # path 0-1-2 with lengths 2 and 4, so D_max is 6; node 3 is isolated
    g = from_edges(4, [0, 1, 0, 1], [(0, 1, 0.5), (1, 2, 0.25)])
    scores = _assert_sp_w_matches_oracle(g)
    assert scores[3] == 7.0
    assert scores[0] == (2 + 6 + 7) / 3


@pytest.mark.parametrize("w", [1e-308, 5e-309])
def test_sp_w_refuses_lengths_that_overflow(w):
    # 1/1e-308 is finite but the two-edge path overflows; 1/5e-309
    # overflows by itself. pytest would fail on a RuntimeWarning.
    g = from_edges(3, [0, 1, 0], [(0, 1, w), (1, 2, w)])
    with pytest.raises(InvalidParameter, match="overflows"):
        avg_shortest_path(g, weighted=True)
    assert avg_shortest_path(g, weighted=False).scores[1] == 1.0


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


def test_pagerank_convergence_error_carries_iterations(monkeypatch):
    # a regular graph converges instantly; the path does not
    monkeypatch.setattr(centrality, "PAGERANK_MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as exc:
        pagerank(PATH3, False)
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


@pytest.mark.parametrize("h", [0, -5])
def test_accessibility_rejects_h_below_one(h):
    with pytest.raises(InvalidParameter, match=f"h must be >= 1, got {h}"):
        accessibility(CYCLE4, h)


@pytest.mark.parametrize("measure", [accessibility, symmetry])
@pytest.mark.parametrize("h", [2.5, 2.0, True])
def test_walk_measures_refuse_a_non_integer_h(measure, h):
    with pytest.raises(InvalidParameter,
                       match=f"h must be an integer, got {h!r}"):
        measure(CYCLE4, h)


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
            want = [oracles.true_diversity(
                oracles.saw_distribution_exact(adj, i, h))
                for i in range(g.n_nodes)]
            assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0)


def test_accessibility_enumeration_matches_exact_enumeration():
    # h >= 3 enumerates self-avoiding walks in floats
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = util.random_graph(rng)
        adj = util.adjacency_dict(g)
        for h in (3, 4):
            got = accessibility(g, h).scores
            want = [oracles.true_diversity(
                oracles.saw_distribution_exact(adj, i, h))
                for i in range(g.n_nodes)]
            assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0)


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
    assert accessibility(CYCLE4, 4).scores.tolist() == [0.0] * 4
    assert symmetry(CYCLE4, 4).scores.tolist() == [0.0] * 4


def test_accessibility_values():
    res = accessibility(STAR, 2)
    assert res.scores[0] == 0.0           # all walks dead-end
    assert res.scores[1] == pytest.approx(2.0)
    assert res.direction == HIGHEST


def test_all_lengths_matrix_matches_series():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = util.random_stochastic(rng, n_max=8)
        got = all_lengths_matrix(StochasticMatrix(p)).p
        want = oracles.series_30_terms(p)
        assert np.abs(got - want).max() < 1e-9
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)


def test_expm_squares_past_theta_13_and_keeps_components_apart():
    # the hub of 8 leaves has column sum 8 > theta_13, so _expm halves P
    # and squares once; the edge (9, 10) is a second component
    edges = [(0, k) for k in range(1, 9)] + [(9, 10)]
    p = oracles.transition_matrix(11, edges, weighted=False)
    assert p.sum(axis=0).max() > centrality._THETA_13
    got = centrality._expm(p) / math.e
    assert np.abs(got - oracles.series_30_terms(p)).max() < 1e-14
    assert (got[:9, 9:] == 0.0).all() and (got[9:, :9] == 0.0).all()


@pytest.mark.parametrize("c", [1.0, 5.0, 40.0])
def test_expm_of_a_scaled_swap_is_cosh_and_sinh(c):
    # a walk matrix's powers stay within norm 1, so the tests above barely
    # see the high Pade terms; exp(c P) with P = [[0, 1], [1, 0]] is
    # cosh(c) I + sinh(c) P, below theta_13 at c = 5 and squared at c = 40
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = math.cosh(c) * np.eye(2) + math.sinh(c) * p
    assert np.abs(centrality._expm(c * p) - want).max() \
        <= 1e-13 * math.cosh(c)


def test_expm_agrees_with_scipy():
    from scipy.linalg import expm
    rng = np.random.default_rng(83)
    for n in (1, 2, 9, 40, 120, 250):
        for density in (0.05, 0.3):
            edges = util.random_edge_triples(rng, n, density)
            p = oracles.transition_matrix(n, edges, weighted=True)
            want = expm(p)
            assert np.abs(centrality._expm(p) - want).max() \
                <= 1e-14 * np.abs(want).max()


def test_generalized_accessibility_isolated_ranks_last():
    g = from_edges(3, [0, 1, 0], [(0, 1, 0.5)])
    res = generalized_accessibility(g)
    assert res.scores[2] == -math.inf
    assert res.ranked()[-1] == 2
    p_inf = oracles.series_30_terms(
        oracles.transition_matrix(3, util.effective_triples(g), True))
    assert res.scores[0] == pytest.approx(
        oracles.true_diversity({j: p_inf[0, j] for j in range(3)}), abs=1e-9)


def test_generalized_accessibility_matches_series_oracle():
    # multi-component graphs: exp(P) is exactly 0 between components, so
    # the p >= 0 check of StochasticMatrix holds; the singleton scores -inf
    rng = np.random.default_rng(79)
    graphs = [util.random_graph(rng, n_max=9) for _ in range(20)]
    graphs += [_components_graph(rng, weighted) for weighted in (True, False)
               for _ in range(10)]
    for g in graphs:
        n, eff = g.n_nodes, util.effective_triples(g)
        comp_of = {v: k for k, comp in enumerate(oracles.components(n, eff))
                   for v in comp}
        got_inf = all_lengths_matrix(StochasticMatrix.from_graph(g)).p
        want_inf = oracles.series_30_terms(
            oracles.transition_matrix(n, eff, True))
        got = generalized_accessibility(g).scores
        for i in range(n):
            if not g.W[i].any():
                assert got[i] == -math.inf
                continue
            apart = [j for j in range(n) if comp_of[j] != comp_of[i]]
            assert (got_inf[i, apart] == 0.0).all()
            assert got[i] == pytest.approx(oracles.true_diversity(
                {j: want_inf[i, j] for j in range(n)}), abs=1e-9)
    assert -math.inf in got


def test_symmetry_path_hand_values():
    res = symmetry(PATH3, 2)
    assert res.scores.tolist() == [1.0, 0.0, 1.0]
    assert res.direction == HIGHEST


def test_symmetry_matches_forward_walk_oracle():
    rng = np.random.default_rng(31)
    graphs = [util.random_graph(rng, n_max=7) for _ in range(40)]
    graphs += [_components_graph(rng, weighted) for weighted in (True, False)
               for _ in range(10)]
    for g in graphs:
        adj = util.adjacency_dict(g)
        for h in (1, 2, 3, 4):
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
    assert np.array_equal(symmetry(apply_alpha(g, 1.7), 2).scores, base)


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
    res = absorption_time(g)
    assert res.scores[2] == math.inf
    assert res.direction == LOWEST and res.ranked()[-1] == 2


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


def _components_graph(rng, weighted):
    """A singleton and three random connected blocks of 1-6 nodes, the
    nodes shuffled, so that components interleave in node order."""
    sizes = [1] + [int(k) for k in rng.choice([1, 2, 3, 4, 6], size=3)]
    nodes = rng.permutation(sum(sizes)).tolist()
    triples, start = [], 0
    for size in sizes:
        block = nodes[start:start + size]
        start += size
        for k in range(1, size):   # a spanning path keeps the block whole
            triples.append((block[k - 1], block[k], 0.0))
        for i, j, _ in util.random_edge_triples(rng, size, p=0.5):
            if j != i + 1:
                triples.append((block[i], block[j], 0.0))
    triples = [(i, j, float(rng.uniform(0.05, 1.0))) for i, j, _ in triples]
    layers = [int(x) for x in rng.integers(0, 2, len(nodes))]
    return from_edges(len(nodes), layers, triples, weighted=weighted)


@pytest.mark.parametrize("weighted", [True, False])
def test_absorption_time_per_component_matches_oracle(weighted):
    rng = np.random.default_rng(67 if weighted else 71)
    for _ in range(30):
        g = _components_graph(rng, weighted)
        got = absorption_time(g).scores
        want = oracles.absorption_tau_fundamental(
            g.n_nodes, util.effective_triples(g), True)
        assert any(math.isinf(x) for x in want)
        for i in range(g.n_nodes):
            if math.isinf(want[i]):
                assert got[i] == math.inf
            else:
                assert got[i] == pytest.approx(want[i], rel=1e-9)


def test_row_diversity_matches_true_diversity():
    rng = np.random.default_rng(73)
    for _ in range(30):
        rows = util.random_stochastic(rng, n_max=9)
        rows[int(rng.integers(0, len(rows)))] = 0.0          # a zero row
        if len(rows) > 1:                                    # one entry
            rows[int(rng.integers(0, len(rows)))] = np.eye(len(rows))[0]
        got = _row_diversity(rows)
        for row, value in zip(rows, got.tolist()):
            want = oracles.true_diversity(
                {j: p for j, p in enumerate(row.tolist()) if p > 0})
            assert value == pytest.approx(want, rel=1e-12, abs=0)
    assert _row_diversity(np.zeros((2, 3))).tolist() == [0.0, 0.0]
    assert _row_diversity(np.array([[0.0, 1.0]])).tolist() == [1.0]


def _of_its_kind(measure, g):
    """g as the kind of graph that `measure` reads: an unweighted measure
    gets remove_weakest(g, 0), and a weighted one gets the 0/1 weights
    that an unweighted graph's measures read."""
    if measure in WEIGHTED_MEASURES:
        return g if g.weighted else MultilayerGraph((g.W > 0) * 1.0, g.layers)
    return remove_weakest(g, 0) if g.weighted else g


def test_compute_registry_dispatch():
    for measure in ALL_MEASURES:
        res = compute(measure, _of_its_kind(measure, CYCLE4))
        assert res.measure == measure
        assert res.scores.shape == (4,)
    assert compute("sp", _of_its_kind("sp", CYCLE4)).direction == LOWEST
    assert compute("dg", _of_its_kind("dg", CYCLE4)).direction == HIGHEST


@pytest.mark.parametrize("measure", WEIGHTED_MEASURES)
def test_compute_refuses_a_weighted_measure_on_an_unweighted_graph(measure):
    with pytest.raises(InvalidParameter,
                       match=f"{measure} reads weighted graphs, not "
                             "unweighted ones"):
        compute(measure, remove_weakest(CYCLE4, 0))


@pytest.mark.parametrize("measure", UNWEIGHTED_MEASURES)
def test_compute_refuses_an_unweighted_measure_on_a_weighted_graph(measure):
    with pytest.raises(InvalidParameter,
                       match=f"{measure} reads unweighted graphs, not "
                             "weighted ones"):
        compute(measure, CYCLE4)


def test_compute_sym_low_mirrors_sym():
    low = compute("sym_low", CYCLE4)
    assert np.array_equal(low.scores, compute("sym", CYCLE4).scores)
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
            for measure in ALL_MEASURES:
                want = compute(measure, _of_its_kind(measure, g), h)
                got = compute(measure, _of_its_kind(measure, moved), h)
                unmoved = np.empty(base.n_nodes)
                unmoved[perm] = got.scores
                back = CentralityResult(measure, unmoved, got.direction)
                assert _tie_groups(back) == _tie_groups(want), \
                    (measure, h, g.weighted)
