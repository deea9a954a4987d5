"""Node centrality measures over multilayer sentence graphs.

Each measure returns a CentralityResult holding one score per node and the
direction in which higher rank means "more central" (summaries take the top
of the resulting order). Walk-based measures share WalkParams.

Measure ids and their graph pairing:

==========  ====================================  ===============
id          measure                               graph
==========  ====================================  ===============
dg          degree                                r-thresholded
stg         strength                              weighted
pr          PageRank on adjacency                 r-thresholded
pr_w        PageRank on weights                   weighted
sp          mean shortest path (hops)             r-thresholded
sp_w        mean shortest path (1/w lengths)      weighted
access      self-avoiding-walk accessibility      r-thresholded
gAccess     all-lengths accessibility             r-thresholded
sym         concentric symmetry (highest first)   weighted
sym_low     concentric symmetry (lowest first)    weighted
absT        mean absorption time                  r-thresholded
==========  ====================================  ===============
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from .errors import ConvergenceError, InvalidParameter, SingularMatrix
from .graph import MultilayerGraph, connected_components

HIGHEST, LOWEST = "highest-first", "lowest-first"

WEIGHTED_MEASURES = ("stg", "pr_w", "sp_w", "sym", "sym_low")
UNWEIGHTED_MEASURES = ("dg", "pr", "sp", "access", "gAccess", "absT")
ALL_MEASURES = WEIGHTED_MEASURES + UNWEIGHTED_MEASURES


@dataclass(frozen=True)
class CentralityResult:
    measure: str
    scores: dict
    direction: str

    @cached_property
    def snapped(self) -> dict:
        """The scores rounded to 12 significant digits, which every reader
        of score order ranks on: values that differ only by float summation
        order compare equal."""
        return {v: float(f"{x:.12g}") for v, x in self.scores.items()}

    def ranked(self) -> list:
        """Node ids best-first; equal snapped scores keep node-id order."""
        sign = -1.0 if self.direction == HIGHEST else 1.0
        return sorted(self.snapped, key=lambda v: (sign * self.snapped[v], v))


@dataclass(frozen=True)
class WalkParams:
    h: int = 2
    pagerank_gamma: float = 0.85
    pagerank_beta: float | None = None  # None -> (1 - gamma) / n
    series_tolerance: float = 1e-12
    power_iter_tolerance: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self):
        if self.h < 1:
            raise InvalidParameter(f"h must be >= 1, got {self.h}")
        if not 0 < self.pagerank_gamma < 1:
            raise InvalidParameter("pagerank_gamma must be in (0, 1)")
        if self.pagerank_beta is not None and not 0 < self.pagerank_beta < 1:
            raise InvalidParameter("pagerank_beta must be in (0, 1)")
        if self.series_tolerance <= 0 or self.power_iter_tolerance <= 0:
            raise InvalidParameter("tolerances must be positive")


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic random-walk matrix; isolated nodes get uniform rows."""

    p: np.ndarray

    def __post_init__(self):
        if self.p.ndim != 2 or self.p.shape[0] != self.p.shape[1]:
            raise InvalidParameter("transition matrix must be square")
        if (self.p < 0).any():
            raise InvalidParameter("transition probabilities must be >= 0")
        if not np.allclose(self.p.sum(axis=1), 1.0, rtol=0, atol=1e-9):
            raise InvalidParameter("rows must sum to 1 within 1e-9")

    @classmethod
    def from_graph(cls, g: MultilayerGraph) -> "StochasticMatrix":
        a = _weights(g)
        sums = a.sum(axis=1)
        p = np.full((g.n_nodes, g.n_nodes), 1.0 / g.n_nodes)
        nz = sums > 0
        p[nz] = a[nz] / sums[nz, None]
        return cls(p)


def _weights(g: MultilayerGraph) -> np.ndarray:
    """The weights a measure reads: W, or its 0/1 pattern when the graph is
    flagged unweighted."""
    return g.W if g.weighted else (g.W > 0) * 1.0


def _neighbours(g: MultilayerGraph) -> list:
    """Per-node neighbour sets, each filled in ascending node order."""
    return [set(np.flatnonzero(row).tolist()) for row in g.W]


def _true_diversity(probabilities) -> float:
    """exp(Shannon entropy) with the 0*log 0 = 0 convention."""
    h = 0.0
    empty = True
    for p in probabilities:
        if p > 0:
            empty = False
            h -= p * math.log(p)
    return 0.0 if empty else math.exp(h)


# ---------------------------------------------------------------------------
# static measures

def degree(g: MultilayerGraph) -> CentralityResult:
    degs = (g.W > 0).sum(axis=1)
    return CentralityResult("dg", dict(enumerate(degs.astype(float).tolist())),
                            HIGHEST)


def strength(g: MultilayerGraph) -> CentralityResult:
    sums = _weights(g).sum(axis=1)
    return CentralityResult("stg", dict(enumerate(sums.tolist())), HIGHEST)


def avg_shortest_path(g: MultilayerGraph, weighted: bool) -> CentralityResult:
    """Mean distance to every other node; lowest is most central.

    Hop counts when unweighted; edge length 1/w when weighted. A graph
    flagged unweighted keeps every length at 1 even if the edges still
    carry weights. Unreachable pairs contribute D_max + 1, the largest
    finite distance plus one.
    """
    n = g.n_nodes
    measure = "sp_w" if weighted else "sp"
    if n < 2:
        return CentralityResult(measure, {i: 0.0 for i in range(n)}, LOWEST)
    a = _weights(g)
    lengths = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0) \
        if weighted else (a > 0) * 1.0
    mat = csr_matrix(lengths)
    dist = _sp_shortest_path(mat, method="D", directed=False,
                             unweighted=not weighted)
    off = dist[~np.eye(n, dtype=bool)]
    finite = off[np.isfinite(off)]
    penalty = (float(finite.max()) if finite.size else 0.0) + 1.0
    filled = np.where(np.isfinite(dist), dist, penalty)
    np.fill_diagonal(filled, 0.0)
    scores = {i: float(filled[i].sum()) / (n - 1) for i in range(n)}
    return CentralityResult(measure, scores, LOWEST)


# ---------------------------------------------------------------------------
# PageRank

def pagerank(g: MultilayerGraph, weighted: bool,
             params: WalkParams = WalkParams()) -> CentralityResult:
    """Power iteration for pi = gamma * M * pi + beta * 1 with
    M[i, j] = w_ij / s_j (weight 1 when unweighted)."""
    n = g.n_nodes
    a = _weights(g) if weighted else (g.W > 0) * 1.0
    col = a.sum(axis=0)
    m = np.zeros((n, n))
    nz = col > 0
    m[:, nz] = a[:, nz] / col[nz]
    gamma = params.pagerank_gamma
    beta = params.pagerank_beta if params.pagerank_beta is not None \
        else (1.0 - gamma) / n
    pi = np.full(n, 1.0 / n)
    for iteration in range(1, params.max_iterations + 1):
        nxt = gamma * (m @ pi) + beta
        if np.abs(nxt - pi).sum() < params.power_iter_tolerance:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConvergenceError("PageRank power iteration did not converge",
                               params.max_iterations)
    measure = "pr_w" if weighted else "pr"
    return CentralityResult(measure, {i: float(pi[i]) for i in range(n)},
                            HIGHEST)


# ---------------------------------------------------------------------------
# self-avoiding-walk accessibility

# The most self-avoiding walks accessibility at h >= 3 may enumerate, by the
# bound sum_s d_s * (d_max - 1)**(h - 1); about a second of enumeration.
MAX_SAW_WALKS = 1_000_000


def _check_walk_count(nbrs: list, starts, h: int) -> None:
    d_max = max(len(s) for s in nbrs)
    bound = sum(len(nbrs[s]) for s in starts) * max(d_max - 1, 0) ** (h - 1)
    if bound > MAX_SAW_WALKS:
        raise InvalidParameter(
            f"h={h} would enumerate up to {bound} self-avoiding walks "
            f"(limit {MAX_SAW_WALKS}); use a smaller h")


def saw_probabilities(g: MultilayerGraph, start: int, h: int) -> dict:
    """Endpoint distribution of length-h self-avoiding walks from start.

    Steps are uniform over unvisited neighbours (edge presence only). Walks
    that dead-end before h steps drop their mass; the endpoint masses of
    completed walks are renormalized. A depth-first enumeration in floats;
    raises InvalidParameter when the walk-count bound exceeds
    MAX_SAW_WALKS.
    """
    if h < 1:
        raise InvalidParameter(f"h must be >= 1, got {h}")
    if h >= g.n_nodes:
        return {}  # a walk of h steps visits h + 1 distinct nodes
    nbrs = _neighbours(g)
    _check_walk_count(nbrs, [start], h)
    return _saw_endpoints(nbrs, start, h)


def _saw_endpoints(nbrs: list, start: int, h: int) -> dict:
    """saw_probabilities over prebuilt neighbour sets."""
    mass: dict = {}
    total = 0.0

    def extend(v, visited, depth, weight):
        nonlocal total
        if depth == h:
            mass[v] = mass.get(v, 0.0) + weight
            total += weight
            return
        options = [u for u in nbrs[v] if u not in visited]
        if not options:
            return
        share = weight / len(options)
        for u in options:
            extend(u, visited | {u}, depth + 1, share)

    extend(start, {start}, 0, 1.0)
    if total == 0:
        return {}
    return {v: p / total for v, p in sorted(mass.items())}


def accessibility(g: MultilayerGraph, h: int) -> CentralityResult:
    """exp-entropy of the SAW endpoint distribution; 0 when no walk
    completes.

    At h <= 2 the distribution has a closed form in the 0/1 adjacency A
    with degrees d: walk mass A[i, j] / d_i to a neighbour j, then
    A[j, k] / (d_j - 1) onwards, dropped where d_j = 1; zero the diagonal
    (the walk may not return to i) and renormalize each row. Larger h
    enumerates walks with saw_probabilities.
    """
    n = g.n_nodes
    if h >= n:
        return CentralityResult("access", {i: 0.0 for i in range(n)}, HIGHEST)
    if h > 2:
        nbrs = _neighbours(g)
        _check_walk_count(nbrs, range(n), h)
        return CentralityResult("access", {
            i: _true_diversity(_saw_endpoints(nbrs, i, h).values())
            for i in range(n)}, HIGHEST)
    a = (g.W > 0) * 1.0
    if h == 1:
        mass = a
    else:
        deg = a.sum(axis=1)
        mass = a @ (a / np.maximum(deg - 1, 1)[:, None])
        np.fill_diagonal(mass, 0.0)
    totals = mass.sum(axis=1)
    scores = {}
    for i in range(n):
        row = (mass[i] / totals[i]).tolist() if totals[i] > 0 else []
        scores[i] = _true_diversity(row)
    return CentralityResult("access", scores, HIGHEST)


# ---------------------------------------------------------------------------
# all-lengths (generalized) accessibility

def all_lengths_matrix(p: StochasticMatrix, tol: float) -> StochasticMatrix:
    """(1/e) * sum_j P^j / j!, truncated once the added term's max-norm
    drops below tol."""
    if tol <= 0:
        raise InvalidParameter(f"tolerance must be positive, got {tol}")
    term = np.eye(p.p.shape[0])
    acc = term.copy()
    j = 0
    while np.abs(term).max() >= tol:
        j += 1
        if j > 500:
            raise ConvergenceError("factorial series failed to shrink", j)
        term = term @ p.p / j
        acc += term
    return StochasticMatrix(acc / math.e)


def generalized_accessibility(g: MultilayerGraph,
                              params: WalkParams = WalkParams()
                              ) -> CentralityResult:
    """exp-entropy of each row of the all-lengths transition matrix.

    Isolated nodes have no walk dynamics; they get -inf so they rank last.
    """
    p_inf = all_lengths_matrix(StochasticMatrix.from_graph(g),
                               params.series_tolerance)
    linked = g.W.any(axis=1)
    scores = {}
    for i in range(g.n_nodes):
        scores[i] = _true_diversity(p_inf.p[i]) if linked[i] else -math.inf
    return CentralityResult("gAccess", scores, HIGHEST)


# ---------------------------------------------------------------------------
# concentric symmetry

def _bfs_levels(nbrs: list, start: int) -> dict:
    level = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in nbrs[v]:
                if u not in level:
                    level[u] = d
                    nxt.append(u)
        frontier = nxt
    return level


def symmetry(g: MultilayerGraph, h: int) -> CentralityResult:
    """Accessibility over outward level-by-level walks, normalized by the
    size of the h-th concentric level.

    Levels are breadth-first distances from the node; edges inside a level
    and edges pointing back are disregarded, so each step moves from level k
    to level k+1 uniformly over the available forward edges. Dead-ended mass
    is dropped as in saw_probabilities. Scores lie in [0, 1]; nodes with an
    empty h-th level score 0. Only edge presence is read, so alpha does not
    change it.
    """
    if h < 1:
        raise InvalidParameter(f"h must be >= 1, got {h}")
    n = g.n_nodes
    if h >= n:
        return CentralityResult("sym", {i: 0.0 for i in range(n)}, HIGHEST)
    nbrs = _neighbours(g)
    scores = {}
    for i in range(n):
        level = _bfs_levels(nbrs, i)
        xi = [v for v, d in level.items() if d == h]
        if not xi:
            scores[i] = 0.0
            continue
        mass = {i: 1.0}
        for k in range(h):
            nxt: dict = {}
            for v, weight in mass.items():
                fwd = [u for u in nbrs[v] if level[u] == k + 1]
                if not fwd:
                    continue
                share = weight / len(fwd)
                for u in fwd:
                    nxt[u] = nxt.get(u, 0.0) + share
            mass = nxt
        total = sum(mass.values())
        if total == 0:
            scores[i] = 0.0
            continue
        diversity = _true_diversity(p / total for p in mass.values())
        scores[i] = diversity / len(xi)
    return CentralityResult("sym", scores, HIGHEST)


def sym_low_from(sym: CentralityResult) -> CentralityResult:
    """sym_low: the sym scores, ranked lowest first."""
    return CentralityResult("sym_low", sym.scores, LOWEST)


# ---------------------------------------------------------------------------
# absorption time

def absorption_time(g: MultilayerGraph) -> CentralityResult:
    """Mean number of random-walk steps to absorption.

    For each node i, i is made absorbing inside its connected component and
    t_k solves (I - Theta) t = 1 over the remaining component nodes;
    tau_i is the mean of t. Lower is more central. Nodes in singleton
    components get +inf.
    """
    p = StochasticMatrix.from_graph(g).p
    tau = {i: math.inf for i in range(g.n_nodes)}
    for comp in connected_components(g):
        if len(comp) < 2:
            continue
        size = len(comp)
        sub = p[np.ix_(comp, comp)]
        eye = np.eye(size - 1)
        for k, i in enumerate(comp):
            others = [x for x in range(size) if x != k]
            theta = sub[np.ix_(others, others)]
            try:
                # t[x] = expected steps from comp[others[x]] to absorbing i
                t = np.linalg.solve(eye - theta, np.ones(size - 1))
            except np.linalg.LinAlgError:
                raise SingularMatrix(
                    f"absorption system singular for node {i}") from None
            tau[i] = float(sum(t) / (size - 1))
    return CentralityResult("absT", tau, LOWEST)


# ---------------------------------------------------------------------------
# registry

def compute(measure: str, g: MultilayerGraph,
            params: WalkParams = WalkParams()) -> CentralityResult:
    """Compute one measure by id on the given graph.

    The caller is responsible for passing the right graph variant (weighted
    for WEIGHTED_MEASURES, r-thresholded for UNWEIGHTED_MEASURES).
    """
    if measure == "dg":
        return degree(g)
    if measure == "stg":
        return strength(g)
    if measure == "sp":
        return avg_shortest_path(g, weighted=False)
    if measure == "sp_w":
        return avg_shortest_path(g, weighted=True)
    if measure == "pr":
        return pagerank(g, weighted=False, params=params)
    if measure == "pr_w":
        return pagerank(g, weighted=True, params=params)
    if measure == "access":
        return accessibility(g, params.h)
    if measure == "gAccess":
        return generalized_accessibility(g, params)
    if measure == "sym":
        return symmetry(g, params.h)
    if measure == "sym_low":
        return sym_low_from(symmetry(g, params.h))
    if measure == "absT":
        return absorption_time(g)
    raise InvalidParameter(f"unknown measure {measure!r}")
