"""Node centrality measures over multilayer sentence graphs.

Each measure returns a CentralityResult: its scores, a read-only float64
array indexed by node, and the direction in which higher rank means "more
central" (summaries take the top of the resulting order). The walk-based
measures access, sym and sym_low read a walk length or level depth h
(default 2).

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
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InvalidParameter, SingularMatrix
from .graph import MultilayerGraph, connected_components

HIGHEST, LOWEST = "highest-first", "lowest-first"

WEIGHTED_MEASURES = ("stg", "pr_w", "sp_w", "sym", "sym_low")
UNWEIGHTED_MEASURES = ("dg", "pr", "sp", "access", "gAccess", "absT")
ALL_MEASURES = WEIGHTED_MEASURES + UNWEIGHTED_MEASURES


@dataclass(frozen=True, eq=False)
class CentralityResult:
    measure: str
    scores: np.ndarray  # scores[i] is node i's; kept as a read-only copy
    direction: str

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @cached_property
    def snapped(self) -> np.ndarray:
        """The scores rounded to 12 significant digits, which every reader
        of score order ranks on: values that differ only by float summation
        order compare equal. Read-only."""
        snapped = np.array([float(f"{x:.12g}") for x in self.scores.tolist()])
        snapped.flags.writeable = False
        return snapped

    @cached_property
    def order(self) -> tuple:
        """Node ids best-first; equal snapped scores keep node-id order.
        Sorted once per result."""
        sign = -1.0 if self.direction == HIGHEST else 1.0
        return tuple(np.argsort(sign * self.snapped, kind="stable").tolist())

    def ranked(self) -> list:
        """`order` as a new list of ints, which the caller may change."""
        return list(self.order)


# PageRank's damping; its power iteration stops when an iterate moves less
# than the tolerance in L1 norm, and fails with ConvergenceError after the max.
PAGERANK_DAMPING = 0.85
PAGERANK_TOLERANCE = 1e-10
PAGERANK_MAX_ITERATIONS = 10000


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic random-walk matrix; isolated nodes get uniform rows."""

    p: np.ndarray

    def __post_init__(self):
        if self.p.ndim != 2 or self.p.shape[0] != self.p.shape[1]:
            raise InvalidParameter("transition matrix must be square")
        if (self.p < 0).any():
            raise InvalidParameter("transition probabilities must be >= 0")
        # decides as np.allclose(rtol=0, atol=1e-9), NaN included, faster
        if not np.abs(self.p.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9:
            raise InvalidParameter("rows must sum to 1 within 1e-9")

    @classmethod
    def from_graph(cls, g: MultilayerGraph) -> "StochasticMatrix":
        """The walk on g's weights."""
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


def _row_diversity(rows: np.ndarray) -> np.ndarray:
    """The true diversity, exp(Shannon entropy) with 0 log 0 = 0, of each
    row of a nonnegative matrix; 0 for a row of zeros."""
    logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
    diversity = np.exp(-(rows * logs).sum(axis=1))
    return np.where(rows.any(axis=1), diversity, 0.0)


# ---------------------------------------------------------------------------
# static measures

def degree(g: MultilayerGraph) -> CentralityResult:
    return CentralityResult("dg", (g.W > 0).sum(axis=1), HIGHEST)


def strength(g: MultilayerGraph) -> CentralityResult:
    return CentralityResult("stg", _weights(g).sum(axis=1), HIGHEST)


def avg_shortest_path(g: MultilayerGraph, weighted: bool) -> CentralityResult:
    """Mean distance to every other node; lowest is most central.

    Hop counts (g.hops) when unweighted; edge length 1/w, by Floyd-Warshall
    (Floyd, CACM 1962), when weighted: n updates d = min(d, d[:, k] + d[k]),
    in place, as d[k, k] = 0 keeps row and column k fixed during their own
    update. A graph flagged unweighted keeps every length at 1 even if the
    edges still carry weights. Unreachable pairs contribute D_max + 1, the
    largest finite distance plus one. Raises InvalidParameter when a length
    1/w, a path length or a node's sum of distances overflows.
    """
    n = g.n_nodes
    measure = "sp_w" if weighted else "sp"
    if n < 2:
        return CentralityResult(measure, np.zeros(n), LOWEST)
    try:
        # a finite length or sum that overflows to inf raises, where an
        # unreachable pair's inf does not
        with np.errstate(over="raise"):
            if weighted and g.weighted:
                dist = np.divide(1.0, g.W, out=np.full_like(g.W, math.inf),
                                 where=g.W > 0)
                np.fill_diagonal(dist, 0.0)
                via = np.empty_like(dist)
                for k in range(n):
                    np.add(dist[:, k, None], dist[k], out=via)
                    np.minimum(dist, via, out=dist)
            else:
                dist = g.hops
            off = dist[~np.eye(n, dtype=bool)]
            finite = off[np.isfinite(off)]
            penalty = (float(finite.max()) if finite.size else 0.0) + 1.0
            filled = np.where(np.isfinite(dist), dist, penalty)
            np.fill_diagonal(filled, 0.0)
            scores = filled.sum(axis=1) / (n - 1)
    except FloatingPointError:
        raise InvalidParameter(
            f"{measure}: a path length overflows the float range; the "
            "edge weights are too small") from None
    return CentralityResult(measure, scores, LOWEST)


# ---------------------------------------------------------------------------
# PageRank

def pagerank(g: MultilayerGraph, weighted: bool) -> CentralityResult:
    """Power iteration for pi = d * M * pi + (1 - d) / n with d =
    PAGERANK_DAMPING and M[i, j] = w_ij / s_j (weight 1 when unweighted)."""
    n = g.n_nodes
    a = _weights(g) if weighted else (g.W > 0) * 1.0
    col = a.sum(axis=0)
    m = np.zeros((n, n))
    nz = col > 0
    m[:, nz] = a[:, nz] / col[nz]
    beta = (1.0 - PAGERANK_DAMPING) / n
    pi = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITERATIONS):
        nxt = PAGERANK_DAMPING * (m @ pi) + beta
        if np.abs(nxt - pi).sum() < PAGERANK_TOLERANCE:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConvergenceError("PageRank power iteration did not converge",
                               PAGERANK_MAX_ITERATIONS)
    measure = "pr_w" if weighted else "pr"
    return CentralityResult(measure, pi, HIGHEST)


# ---------------------------------------------------------------------------
# self-avoiding-walk accessibility

# The most self-avoiding walks accessibility at h >= 3 may enumerate, by the
# bound sum_s d_s * (d_max - 1)**(h - 1); about a second of enumeration.
MAX_SAW_WALKS = 1_000_000


def check_h(h) -> None:
    """Refuse a walk length or level depth that is not an integer >= 1; a
    bool is not an integer here."""
    if isinstance(h, bool) or not isinstance(h, numbers.Integral):
        raise InvalidParameter(f"h must be an integer, got {h!r}")
    if h < 1:
        raise InvalidParameter(f"h must be >= 1, got {h}")


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
    check_h(h)
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
    enumerates the walks from each node as saw_probabilities does.
    Raises InvalidParameter for an h that is not an integer >= 1.
    """
    check_h(h)
    n = g.n_nodes
    if h >= n:
        return CentralityResult("access", np.zeros(n), HIGHEST)
    if h > 2:
        nbrs = _neighbours(g)
        _check_walk_count(nbrs, range(n), h)
        rows = np.zeros((n, n))
        for i in range(n):
            ends = _saw_endpoints(nbrs, i, h)
            rows[i, list(ends)] = list(ends.values())
    else:
        a = (g.W > 0) * 1.0
        if h == 1:
            mass = a
        else:
            deg = a.sum(axis=1)
            mass = a @ (a / np.maximum(deg - 1, 1)[:, None])
            np.fill_diagonal(mass, 0.0)
        totals = mass.sum(axis=1, keepdims=True)
        rows = np.divide(mass, totals, out=np.zeros_like(mass),
                         where=totals > 0)
    return CentralityResult("access", _row_diversity(rows), HIGHEST)


# ---------------------------------------------------------------------------
# all-lengths (generalized) accessibility

# The degree-13 Pade coefficients b_0..b_13 and theta_13, the largest 1-norm
# at which that approximant is exact to double precision (Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM J.
# Matrix Anal. Appl. 26(4), 2005, Table 2.3 and Algorithm 2.3).
_PADE_13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the degree-13 Pade approximant
    (Higham 2005, Algorithm 2.3).

    The lower degrees of that algorithm never apply here: a row-stochastic
    matrix has 1-norm >= 1, above theta_7 (about 0.95), and degree 9 saves
    one product only up to 1-norm 2.1.
    """
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0 ** s
    b = _PADE_13
    powers = np.empty((3, n, n))  # A^2, A^4, A^6 of the scaled A
    np.matmul(a, a, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    flat = powers.reshape(3, n * n)
    work, u, v = np.empty((3, n, n))
    diagonal = slice(None, None, n + 1)
    # U = A [A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + b5 A^4 + b3 A^2 + b1 I]
    np.matmul(b[9:14:2], flat, out=work.reshape(-1))
    np.matmul(powers[2], work, out=v)
    np.matmul(b[3:8:2], flat, out=work.reshape(-1))
    v += work
    v.reshape(-1)[diagonal] += b[1]
    np.matmul(a, v, out=u)
    # V = A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I
    np.matmul(b[8:13:2], flat, out=work.reshape(-1))
    np.matmul(powers[2], work, out=v)
    np.matmul(b[2:7:2], flat, out=work.reshape(-1))
    v += work
    v.reshape(-1)[diagonal] += b[0]
    # R = (V - U)^-1 (V + U), squared s times
    np.subtract(v, u, out=work)
    v += u
    r = np.linalg.solve(work, v)
    for _ in range(s):
        np.matmul(r, r, out=work)
        r, work = work, r
    return r


def all_lengths_matrix(p: StochasticMatrix) -> StochasticMatrix:
    """(1/e) * sum_j P^j / j! = exp(P) / e."""
    return StochasticMatrix(_expm(p.p) / math.e)


def generalized_accessibility(g: MultilayerGraph) -> CentralityResult:
    """exp-entropy of each row of the all-lengths transition matrix.

    Isolated nodes have no walk dynamics; they get -inf so they rank last.
    """
    p_inf = all_lengths_matrix(StochasticMatrix.from_graph(g))
    scores = np.where(g.W.any(axis=1), _row_diversity(p_inf.p), -math.inf)
    return CentralityResult("gAccess", scores, HIGHEST)


# ---------------------------------------------------------------------------
# concentric symmetry

def symmetry(g: MultilayerGraph, h: int) -> CentralityResult:
    """Accessibility over outward level-by-level walks, normalized by the
    size of the h-th concentric level.

    Levels are breadth-first distances from the node; edges inside a level
    and edges pointing back are disregarded, so each step moves from level k
    to level k+1 uniformly over the available forward edges. Dead-ended mass
    is dropped as in saw_probabilities. Scores lie in [0, 1]; nodes with an
    empty h-th level score 0. Only edge presence is read, so alpha does not
    change it.

    All start nodes walk at once: row i of `level` (g.hops) and of `mass`
    is node i's.
    """
    check_h(h)
    a = (g.W > 0) * 1.0
    level = g.hops
    sizes = (level == h).sum(axis=1)
    if not sizes.any():  # as when h >= n; the walk below has h < n steps
        return CentralityResult("sym", np.zeros(g.n_nodes), HIGHEST)
    mass = np.eye(g.n_nodes)
    for k in range(1, h + 1):
        ahead = (level == k) * 1.0
        forward = ahead @ a  # forward edges out of each node, per start
        share = np.divide(mass, forward, out=np.zeros_like(mass),
                          where=forward > 0)
        mass = (share @ a) * ahead
    totals = mass.sum(axis=1, keepdims=True)  # 0 only where level h is empty
    diversity = _row_diversity(mass / np.where(totals > 0, totals, 1.0))
    scores = diversity / np.maximum(sizes, 1)
    return CentralityResult("sym", scores, HIGHEST)


def sym_low_from(sym: CentralityResult) -> CentralityResult:
    """sym_low: the sym scores, ranked lowest first."""
    return CentralityResult("sym_low", sym.scores, LOWEST)


# ---------------------------------------------------------------------------
# absorption time

def absorption_time(g: MultilayerGraph) -> CentralityResult:
    """Mean number of random-walk steps to absorption.

    tau_i is the mean, over the other nodes k of i's connected component,
    of the expected number of steps a walk from k takes to first reach i.
    Lower is more central. Nodes in singleton components get +inf.

    Each component of `size` nodes is solved once, through the fundamental
    matrix Z = (I - P + 1 pi^T)^-1 of its walk P, whose stationary pi is
    proportional to node strength (Kemeny & Snell, Finite Markov Chains,
    1960): the mean first passage time from k to i is
    (z_ii - z_ki) / pi_i, so tau_i = sum_k (z_ii - z_ki) / (pi_i (size - 1)).
    """
    a = _weights(g)
    strength = a.sum(axis=1)
    tau = np.full(g.n_nodes, math.inf)
    for comp in connected_components(g):
        size = len(comp)
        if size < 2:
            continue
        s = strength[comp]
        p = a[np.ix_(comp, comp)] / s[:, None]
        pi = s / s.sum()
        try:
            z = np.linalg.inv(np.eye(size) - p + pi)
        except np.linalg.LinAlgError:
            raise SingularMatrix(
                f"absorption system singular for component of node "
                f"{comp[0]}") from None
        tau[comp] = (size * np.diag(z) - z.sum(axis=0)) / (pi * (size - 1))
    return CentralityResult("absT", tau, LOWEST)


# ---------------------------------------------------------------------------
# registry

def compute(measure: str, g: MultilayerGraph, h: int = 2) -> CentralityResult:
    """Compute one measure by id on the given graph; h is the walk length
    or level depth of access, sym and sym_low.

    WEIGHTED_MEASURES read a weighted graph and UNWEIGHTED_MEASURES an
    r-thresholded one (g.weighted False); InvalidParameter otherwise.
    """
    run = {"dg": lambda: degree(g),
           "stg": lambda: strength(g),
           "sp": lambda: avg_shortest_path(g, weighted=False),
           "sp_w": lambda: avg_shortest_path(g, weighted=True),
           "pr": lambda: pagerank(g, weighted=False),
           "pr_w": lambda: pagerank(g, weighted=True),
           "access": lambda: accessibility(g, h),
           "gAccess": lambda: generalized_accessibility(g),
           "sym": lambda: symmetry(g, h),
           "sym_low": lambda: sym_low_from(symmetry(g, h)),
           "absT": lambda: absorption_time(g)}
    if measure not in run:
        raise InvalidParameter(f"unknown measure {measure!r}")
    kinds = {True: "weighted", False: "unweighted"}
    if g.weighted != (measure in WEIGHTED_MEASURES):
        raise InvalidParameter(f"{measure} reads {kinds[not g.weighted]} "
                               f"graphs, not {kinds[g.weighted]} ones")
    return run[measure]()
