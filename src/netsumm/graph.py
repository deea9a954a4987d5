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

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc_labels

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

    The dot products come from one sparse product X @ X.T, X the sentence
    by term weight matrix. Each term product is rounded as cosine's fsum
    rounds it, so a pair sharing one term gets that product exactly, and a
    pair sharing two gets one IEEE add, correctly rounded in either order.
    The same product over X's 0/1 pattern counts the shared terms; the few
    pairs sharing three or more go through cosine itself.
    """
    n = len(vectors)
    indptr = np.cumsum([0] + [len(v.weights) for v in vectors])
    terms = np.fromiter((t for v in vectors for t in v.weights), np.int64,
                        indptr[-1])
    weights = np.fromiter((w for v in vectors for w in v.weights.values()),
                          np.float64, indptr[-1])
    if (weights <= 0).any():
        raise InvalidInput("tf-idf weights must be positive")
    shape = (n, int(terms.max(initial=-1)) + 1)
    x = csr_matrix((weights, terms, indptr), shape=shape)
    pattern = csr_matrix((np.ones(len(terms), np.int32), terms, indptr),
                         shape=shape)
    # Both products visit the same cells in the same order and no positive
    # sum is dropped as zero, so their entries line up one to one.
    shared = pattern @ pattern.T
    us = np.repeat(np.arange(n, dtype=np.int32), np.diff(shared.indptr))
    upper = shared.indices > us
    us, vs, shared = us[upper], shared.indices[upper], shared.data[upper]
    norms = np.array([v.norm for v in vectors])
    sims = (x @ x.T).data[upper]
    sims /= norms[us] * norms[vs]
    np.minimum(sims, 1.0, out=sims)
    for k in np.flatnonzero(shared >= 3).tolist():
        sims[k] = cosine(vectors[us[k]], vectors[vs[k]])
    w = np.zeros((n, n))
    w[us, vs] = w[vs, us] = sims
    return w


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
    as-is."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidParameter(f"alpha must be finite and > 0, got {alpha}")
    inter = g.layers[:, None] != g.layers[None, :]
    w = np.where(inter, g.W * alpha, g.W)
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
    drop = np.lexsort((vs, us, weights))[:k]
    w = g.W.copy()
    w[us[drop], vs[drop]] = w[vs[drop], us[drop]] = 0.0
    return MultilayerGraph(w, g.layers, weighted=False)


def connected_components(g: MultilayerGraph) -> list:
    """Components as sorted node lists, ordered by smallest member."""
    _, labels = _cc_labels(g.W, directed=False)
    comps: dict = {}
    for node, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(node)
    return list(comps.values())
