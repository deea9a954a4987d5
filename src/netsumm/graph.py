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
from itertools import chain

import numpy as np

from .errors import EmptyGraph, InvalidInput, InvalidParameter
from .tfidf import cosine

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

    @property
    def edges(self) -> tuple:
        """Read-only Edge view, (u, v) ascending with u < v; W holds the
        graph, this view serves CSV export."""
        us, vs = np.nonzero(np.triu(self.W, 1))
        layer = self.layers.tolist()
        return tuple(
            Edge(u, v, w, INTRA if layer[u] == layer[v] else INTER)
            for u, v, w in zip(us.tolist(), vs.tolist(),
                               self.W[us, vs].tolist()))


def cosine_matrix(vectors: list) -> np.ndarray:
    """Pairwise tfidf.cosine of vectors, zero diagonal, bit for bit.

    The dot products come from the per-term postings: each term pairs every
    two sentences that hold it, and np.bincount sums each pair's term
    products from 0.0 in posting order. Each product is rounded as cosine's
    fsum rounds it, so a pair sharing one term gets that product exactly,
    and a pair sharing two gets one IEEE add, correctly rounded in either
    order. The few pairs sharing three or more go through cosine itself.
    """
    n = len(vectors)
    maps = [v.weights for v in vectors]
    sizes = list(map(len, maps))
    total = sum(sizes)
    terms = np.fromiter(chain.from_iterable(maps), np.int64, total)
    weights = np.fromiter(chain.from_iterable(map(dict.values, maps)),
                          np.float64, total)
    if (weights <= 0).any():
        raise InvalidInput("tf-idf weights must be positive")
    # postings: entries grouped by term, sentences ascending within a term
    order = np.argsort(terms, kind="stable")
    terms, weights = terms[order], weights[order]
    sentence = np.repeat(np.arange(n), sizes)[order]
    starts = np.flatnonzero(np.diff(terms, prepend=-1))
    ends = np.append(starts[1:], total)
    # each entry pairs with the entries after it in its posting
    later = np.repeat(ends, ends - starts) - np.arange(total) - 1
    first = np.repeat(np.arange(total), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later,
                                               later)
    second = first + 1 + offset
    keys = sentence[first] * n + sentence[second]
    # row u, column v > u: the pair's dot product and its shared term count
    dots = np.bincount(keys, weights[first] * weights[second], n * n)
    shared = np.bincount(keys, minlength=n * n).reshape(n, n)
    # a zero vector holds no term, so its row of dots is 0 whatever its norm
    norms = np.array([v.norm or 1.0 for v in vectors])
    w = dots.reshape(n, n) / np.outer(norms, norms)
    np.minimum(w, 1.0, out=w)
    for u, v in np.argwhere(shared >= 3).tolist():
        w[u, v] = cosine(vectors[u], vectors[v])
    return w + w.T


def build(vectors: list, layers) -> MultilayerGraph:
    """Connect every sentence pair with cosine > 0.

    vectors: SentenceVectors indexed by position; node i is vectors[i].
    layers: mapping or sequence giving each sentence's layer index.
    """
    n = len(vectors)
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
    would drop its edge, is refused."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidParameter(f"alpha must be finite and > 0, got {alpha}")
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
    us, vs = np.nonzero(np.triu(g.W, 1))
    weights = g.W[us, vs]
    # epsilon guards products like 0.3 * 10 that land just below an integer
    k = math.floor(r * len(weights) + 1e-9)
    # the pairs come in (u, v) order, which a stable sort keeps among ties
    drop = np.argsort(weights, kind="stable")[:k]
    w = g.W.copy()
    w[us[drop], vs[drop]] = w[vs[drop], us[drop]] = 0.0
    return MultilayerGraph(w, g.layers, weighted=False)


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
