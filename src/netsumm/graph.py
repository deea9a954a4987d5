"""Multilayer sentence graph: construction, inter-layer reweighting, and
removal of the weakest edges.

Nodes are sentence ids 0..n-1, each tagged with the layer (document) it
belongs to. The graph is one dense symmetric weight matrix W with a zero
diagonal: W[i, j] > 0 is the weight of the undirected edge {i, j}, and the
edge is "intra" when both ends share a layer, "inter" otherwise. Graphs are
immutable (W is read-only); every transform returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap

import numpy as np

from . import tfidf
from .errors import EmptyGraph, InvalidInput, InvalidParameter

INTRA, INTER = "intra", "inter"


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: float
    kind: str


@dataclass(frozen=True, eq=False)
class MultilayerGraph:
    W: np.ndarray
    layers: np.ndarray
    weighted: bool = True

    def __post_init__(self):
        n = len(self.layers)
        if self.W.shape != (n, n):
            raise InvalidInput(f"W of shape {self.W.shape} for {n} layer "
                               f"indices: need a square matrix of side {n}")
        self.W.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.layers)

    @cached_property
    def hops(self) -> np.ndarray:
        """Hop count between every pair of nodes: inf between components,
        0 on the diagonal. Reads edge presence only; read-only."""
        hops = _hop_matrix(self.W > 0)
        hops.flags.writeable = False
        return hops

    def edge_rows(self):
        """(u, v, weight, kind) of every edge as Python values, (u, v)
        ascending with u < v; the rows of the CSV export."""
        us, vs = np.nonzero(np.triu(self.W, 1))
        kinds = np.where(self.layers[us] == self.layers[vs], INTRA, INTER)
        return zip(us.tolist(), vs.tolist(), self.W[us, vs].tolist(),
                   kinds.tolist())

    @property
    def edges(self) -> tuple:
        """Read-only Edge view of edge_rows; W holds the graph."""
        return tuple(starmap(Edge, self.edge_rows()))


def shared_key_pairs(keys: np.ndarray) -> tuple:
    """(first, second): each index pair first < second of two entries of
    `keys` (sorted ascending) that hold the same key, once, in that order."""
    total = len(keys)
    # each entry pairs with the entries after it that hold its key
    later = np.searchsorted(keys, keys, side="right") - np.arange(total) - 1
    first = np.repeat(np.arange(total), later)
    run_start = np.repeat(np.cumsum(later) - later, later)
    return first, first + 1 + np.arange(len(first)) - run_start


def cosine_matrix(vectors: tfidf.ClusterVectors) -> np.ndarray:
    """Pairwise tfidf.cosine of the vectors, zero diagonal, bit for bit.

    The dot products come from the per-term postings: shared_key_pairs
    pairs every two sentences that hold a term. Each pair that shares a
    term is one distinct key; np.bincount over the keys' ranks sums each
    pair's term products from 0.0 in posting order, which is cosine's
    correctly rounded fsum for a pair sharing one or two terms; a pair
    sharing three or more gets math.fsum of its products. Only the pairs
    that share a term are divided by their norms, and no array but the
    result is n x n.
    """
    n = len(vectors.norms)
    if (vectors.weight <= 0).any():
        raise InvalidInput("tf-idf weights must be positive")
    # postings: entries grouped by term, sentences ascending within a term
    order = np.argsort(vectors.term, kind="stable")
    weights, sentence = vectors.weight[order], vectors.sentence[order]
    first, second = shared_key_pairs(vectors.term[order])
    # key u * n + v, u < v: row u, column v of the upper triangle
    pairs, pair_of, shared = np.unique(
        sentence[first] * n + sentence[second], return_inverse=True,
        return_counts=True)
    products = weights[first] * weights[second]
    dots = np.bincount(pair_of, products, len(pairs))
    many = shared >= 3
    if many.any():
        # their products grouped by pair, pairs in key order as in `pairs`
        held = np.flatnonzero(many[pair_of])
        held = products[held[np.argsort(pair_of[held], kind="stable")]
                        ].tolist()
        stops = np.cumsum(shared[many]).tolist()
        dots[many] = [math.fsum(held[a:b])
                      for a, b in zip([0] + stops, stops)]
    u, v = np.divmod(pairs, n)
    w = np.zeros(n * n)
    w[pairs] = w[v * n + u] = np.minimum(
        dots / (vectors.norms[u] * vectors.norms[v]), 1.0)
    return w.reshape(n, n)


def build(vectors, layers) -> MultilayerGraph:
    """Connect every sentence pair with cosine > 0.

    vectors: a tfidf.ClusterVectors, or SentenceVectors indexed by
    position; node i is vectors[i].
    layers: mapping or sequence giving each sentence's layer index, one
    entry per vector; InvalidInput otherwise.
    """
    if not isinstance(vectors, tfidf.ClusterVectors):
        vectors = tfidf.stack(vectors)
    n = len(vectors.norms)
    if len(layers) != n:
        raise InvalidInput(f"{len(layers)} layer indices for {n} sentences")
    layer_of = [layers[i] for i in range(n)]
    if n < 2 or len(set(layer_of)) < 2:
        raise InvalidInput(
            "need at least 2 sentences spanning at least 2 layers")
    w = cosine_matrix(vectors)
    if not w.any():
        raise EmptyGraph("all pairwise similarities are zero")
    return MultilayerGraph(w, np.array(layer_of), weighted=True)


def from_edges(n_nodes: int, layer_of, edge_tuples, weighted=True
               ) -> MultilayerGraph:
    """Assemble a graph from raw (i, j, weight) triples; kinds derived."""
    w = np.zeros((n_nodes, n_nodes))
    for i, j, weight in edge_tuples:
        if i == j:
            raise InvalidInput(f"self-loop on node {i}")
        if weight <= 0:
            raise InvalidInput(
                f"edge ({i},{j}) has non-positive weight {weight}")
        if w[i, j]:
            raise InvalidInput(f"duplicate edge ({min(i, j)},{max(i, j)})")
        w[i, j] = w[j, i] = weight
    return MultilayerGraph(w, np.array(list(layer_of)), weighted)


def apply_alpha(g: MultilayerGraph, alpha: float) -> MultilayerGraph:
    """Scale inter-layer weights by alpha; intra weights pass through
    as-is. An alpha so small that a scaled weight underflows to 0, which
    would drop its edge, is refused. Alpha 1 returns g itself, since
    x * 1.0 == x and graphs are immutable."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidParameter(f"alpha must be finite and > 0, got {alpha}")
    if alpha == 1.0:
        return g
    inter = g.layers[:, None] != g.layers[None, :]
    w = np.where(inter, g.W * alpha, g.W)
    if np.count_nonzero(w) != np.count_nonzero(g.W):
        raise InvalidParameter(
            f"alpha {alpha} scales an inter-layer weight to 0")
    return MultilayerGraph(w, g.layers, g.weighted)


def remove_weakest(g: MultilayerGraph, r: float) -> MultilayerGraph:
    """Drop the floor(r * |E|) smallest-weight edges and flag the result
    unweighted. Ties at the cut break by (u, v) order; surviving weights are
    retained for callers that still want them."""
    if not g.weighted:
        raise InvalidInput("remove_weakest expects a weighted graph")
    if not 0 <= r < 1:
        raise InvalidParameter(f"r must be in [0, 1), got {r}")
    # the cut's scratch is freed before W is copied
    drop = _weakest_edges(g.W, r)
    if not len(drop):
        return MultilayerGraph(g.W, g.layers, weighted=False)
    u, v = np.divmod(drop, g.n_nodes)
    w = g.W.copy()
    w[u, v] = w[v, u] = 0.0
    return MultilayerGraph(w, g.layers, weighted=False)


def _weakest_edges(W: np.ndarray, r: float) -> np.ndarray:
    """Flat indices u * n + v, u < v, of the floor(r * |E|) smallest-weight
    edges of W, ties at the cut broken by (u, v) order."""
    edges = np.flatnonzero(np.triu(W > 0, 1))   # ascending: (u, v) order
    weights = W.ravel()[edges]
    # epsilon guards products like 0.3 * 10 that land just below an integer
    k = math.floor(r * len(weights) + 1e-9)
    if not k:
        return edges[:0]
    # every weight below the k-th smallest goes, then the first of its ties
    # in (u, v) order: the cut of a stable sort, with no sort
    kth = np.partition(weights, k - 1)[k - 1]
    below = edges[weights < kth]
    return np.concatenate((below, edges[weights == kth][:k - len(below)]))


def _hop_matrix(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts of an undirected graph from its boolean
    adjacency, by Seidel's doubling (Seidel, "On the all-pairs-shortest-path
    problem in unweighted undirected graphs", JCSS 1995).

    The square of a graph joins the nodes at most two hops apart; after
    O(log n) squarings every component is a clique, where hops are 1. Going
    back down, the hops d of a graph follow from the hops e of its square:
    d[i, j] = 2 e[i, j], less 1 where e[i, k] summed over the neighbours k
    of j falls short of e[i, j] times the degree of j. Every entry and sum
    is an integer below n^2, exact in float64, so each level is two exact
    matrix products and the whole costs O(n^3 log n) on any graph.
    """
    n = len(adjacency)
    off_diagonal = ~np.eye(n, dtype=bool)
    graphs = [adjacency * 1.0]
    while True:
        a = graphs[-1]
        square = ((a @ a > 0) | (a > 0)) & off_diagonal
        if (square == (a > 0)).all():
            break
        graphs.append(square * 1.0)
    hops = graphs.pop()
    reach = (hops > 0) | ~off_diagonal
    for a in reversed(graphs):
        hops = 2 * hops - (hops @ a < hops * a.sum(axis=0))
    hops[~reach] = math.inf
    return hops


def connected_components(g: MultilayerGraph) -> list:
    """Components as sorted node lists, ordered by smallest member.

    A breadth-first search from the smallest node not yet reached, one
    frontier at a time; every node is in one frontier only, so each row of
    the adjacency is read once and the labelling is O(n^2) on any graph."""
    adjacency = g.W > 0
    unseen = np.ones(g.n_nodes, dtype=bool)
    comps = []
    while unseen.any():
        frontier = [int(unseen.argmax())]
        reached = np.zeros(g.n_nodes, dtype=bool)
        reached[frontier] = True
        while len(frontier):
            unseen[frontier] = False
            step = adjacency[frontier].any(axis=0) & unseen
            frontier = np.flatnonzero(step)
            reached |= step
        comps.append(np.flatnonzero(reached).tolist())
    return comps
