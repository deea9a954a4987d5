"""Independent brute-force oracles used by the test suite.

Nothing in this module imports the package under test. Each function takes
plain Python/numpy structures and recomputes the quantity along a different
algorithmic route than the implementation (explicit matrix inverses, dense
all-pairs relaxation, exhaustive sequence enumeration), so agreement is
evidence rather than tautology.

Frozen after initial authoring; change only to fix an outright bug in the
oracle itself, never to chase the implementation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# adjacency counting

def degree_counts(n: int, edges) -> list:
    """edges: iterable of (i, j[, ...]) pairs. Returns per-node edge counts."""
    deg = [0] * n
    for e in edges:
        i, j = e[0], e[1]
        deg[i] += 1
        deg[j] += 1
    return deg


def strength_sums(n: int, edges) -> list:
    """edges: iterable of (i, j, w). Returns per-node incident weight sums."""
    s = [0.0] * n
    for i, j, w in edges:
        s[i] += w
        s[j] += w
    return s


# ---------------------------------------------------------------------------
# all-pairs shortest paths (Floyd-Warshall, dense relaxation)

def floyd_warshall(n: int, edges, weighted: bool) -> np.ndarray:
    """Distance matrix with math.inf for unreachable pairs.

    Unweighted: every edge has length 1. Weighted: length = 1/w.
    """
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for e in edges:
        i, j = e[0], e[1]
        length = 1.0 / e[2] if weighted else 1.0
        if length < d[i, j]:
            d[i, j] = length
            d[j, i] = length
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i, k] + d[k, j]
                if alt < d[i, j]:
                    d[i, j] = alt
    return d


def avg_distance_with_penalty(dist: np.ndarray) -> list:
    """Mean distance to the other nodes; unreachable pairs cost D_max + 1."""
    n = dist.shape[0]
    if n < 2:
        return [0.0] * n
    finite = dist[np.isfinite(dist)]
    off_diag = finite[finite > 0]
    d_max = float(off_diag.max()) if off_diag.size else 0.0
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j == i:
                continue
            total += dist[i, j] if math.isfinite(dist[i, j]) else d_max + 1.0
        out.append(total / (n - 1))
    return out


# ---------------------------------------------------------------------------
# PageRank as a dense linear system: pi = gamma*M*pi + beta*1

def pagerank_linear_solve(n: int, edges, weighted: bool,
                          gamma: float, beta: float) -> np.ndarray:
    """Solve (I - gamma*M) pi = beta*1 directly; M[i, j] = a_ij / k_j."""
    a = np.zeros((n, n))
    for e in edges:
        i, j = e[0], e[1]
        w = e[2] if weighted else 1.0
        a[i, j] += w
        a[j, i] += w
    col = a.sum(axis=0)
    m = np.zeros((n, n))
    nz = col > 0
    m[:, nz] = a[:, nz] / col[nz]
    return np.linalg.solve(np.eye(n) - gamma * m, beta * np.ones(n))


# ---------------------------------------------------------------------------
# absorbing-chain mean absorption time via the fundamental matrix inverse

def transition_matrix(n: int, edges, weighted: bool) -> np.ndarray:
    """Row-stochastic random-walk matrix; isolated nodes get uniform rows."""
    a = np.zeros((n, n))
    for e in edges:
        i, j = e[0], e[1]
        w = e[2] if weighted else 1.0
        a[i, j] += w
        a[j, i] += w
    p = np.zeros((n, n))
    for i in range(n):
        s = a[i].sum()
        p[i] = a[i] / s if s > 0 else 1.0 / n
    return p


def components(n: int, edges) -> list:
    """Connected components as sorted node lists (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ri, rj = find(e[0]), find(e[1])
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def absorption_tau_fundamental(n: int, edges, weighted: bool) -> list:
    """tau_i = mean over starts k != i (same component) of expected steps to
    reach i, computed through Psi = inv(I - Theta) row sums. Singleton
    components get math.inf."""
    p = transition_matrix(n, edges, weighted)
    tau = [math.inf] * n
    for comp in components(n, edges):
        if len(comp) < 2:
            continue
        for i in comp:
            others = [v for v in comp if v != i]
            theta = p[np.ix_(others, others)]
            psi = np.linalg.inv(np.eye(len(others)) - theta)
            t = psi.sum(axis=1)
            tau[i] = float(t.mean())
    return tau


# ---------------------------------------------------------------------------
# matrix series: (1/e) * sum_{j=0..30} P^j / j!

def series_30_terms(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    acc = np.zeros((n, n))
    for j in range(31):
        acc = acc + np.linalg.matrix_power(p, j) / math.factorial(j)
    return acc / math.e


# ---------------------------------------------------------------------------
# self-avoiding walk endpoint distribution by exhaustive sequence enumeration

def saw_distribution_exact(adj: dict, start, h: int) -> dict:
    """Enumerate every h-step self-avoiding sequence with exact Fractions.

    adj: node -> set of neighbours. At each step the walker picks uniformly
    among unvisited neighbours; sequences that complete h steps carry their
    probability to the final node; the rest of the mass is dropped and the
    endpoint masses renormalized.
    """
    nodes = list(adj)
    mass: dict = {}
    total = Fraction(0)
    for seq in itertools.permutations([v for v in nodes if v != start], h):
        prob = Fraction(1)
        prev = start
        visited = {start}
        ok = True
        for v in seq:
            options = [u for u in adj[prev] if u not in visited]
            if v not in options:
                ok = False
                break
            prob /= len(options)
            visited.add(v)
            prev = v
        if ok:
            mass[seq[-1]] = mass.get(seq[-1], Fraction(0)) + prob
            total += prob
    if total == 0:
        return {}
    return {v: m / total for v, m in mass.items()}


def true_diversity(dist: dict) -> float:
    """exp(Shannon entropy); 0 for an empty distribution."""
    if not dist:
        return 0.0
    h = -sum(float(p) * math.log(float(p)) for p in dist.values() if p > 0)
    return math.exp(h)


# ---------------------------------------------------------------------------
# concentric-level forward walk (symmetry oracle) by recursive enumeration

def forward_walk_distribution(adj: dict, start, h: int) -> dict:
    """Walks that move strictly outward level k -> k+1 (BFS levels from
    start); intra-level and backward edges are disregarded; dead-ended mass
    dropped, endpoints renormalized. Returns {} when no walk completes."""
    level = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in level:
                    level[u] = d
                    nxt.append(u)
        frontier = nxt

    results: dict = {}
    total = Fraction(0)

    def walk(v, depth, prob):
        nonlocal total
        if depth == h:
            results[v] = results.get(v, Fraction(0)) + prob
            total += prob
            return
        fwd = [u for u in adj[v] if level.get(u) == depth + 1]
        for u in fwd:
            walk(u, depth + 1, prob / len(fwd))

    walk(start, 0, Fraction(1))
    if total == 0:
        return {}
    return {v: p / total for v, p in results.items()}


def level_set(adj: dict, start, h: int) -> set:
    """Nodes at BFS distance exactly h from start."""
    level = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in level:
                    level[u] = d
                    nxt.append(u)
        frontier = nxt
    return {v for v, k in level.items() if k == h}


# ---------------------------------------------------------------------------
# dense tf-idf / cosine (vectorizer + graph-construction oracle)

def dense_cosine_matrix(token_lists: list, doc_of: list) -> np.ndarray:
    """Cosine similarities from dense tf-idf vectors.

    token_lists[i]: tokens of sentence i; doc_of[i]: its document id. tf is
    within-sentence relative frequency; idf = ln(n_docs / df) + 1 with df
    counted over distinct documents.
    """
    docs = sorted(set(doc_of))
    vocab = sorted({t for toks in token_lists for t in toks})
    col = {t: k for k, t in enumerate(vocab)}
    df = {t: len({d for toks, d in zip(token_lists, doc_of) if t in toks})
          for t in vocab}
    x = np.zeros((len(token_lists), len(vocab)))
    for i, toks in enumerate(token_lists):
        if not toks:
            continue
        for t in toks:
            x[i, col[t]] += 1
        x[i] /= len(toks)
        for t in set(toks):
            x[i, col[t]] *= math.log(len(docs) / df[t]) + 1
    norms = np.linalg.norm(x, axis=1)
    sim = np.zeros((len(token_lists), len(token_lists)))
    for i in range(len(token_lists)):
        for j in range(len(token_lists)):
            if norms[i] > 0 and norms[j] > 0:
                sim[i, j] = float(x[i] @ x[j]) / (norms[i] * norms[j])
    return sim


# ---------------------------------------------------------------------------
# weakest-edge cut (sort a copy, cut, return surviving index set)

def sort_and_cut(items: list, r: float) -> set:
    """items: list of (key_tuple, weight). Returns surviving key set after
    dropping floor(r * len) smallest by (weight, key_tuple). The floor is
    taken on the exact decimal value of r (str round-trip), not on binary
    float products like 0.3 * 10 = 2.999...96."""
    k = int(Fraction(str(r)) * len(items))
    ordered = sorted(items, key=lambda kv: (kv[1], kv[0]))
    return {key for key, _ in ordered[k:]}


# ---------------------------------------------------------------------------
# greedy extract selection, visiting every candidate

def greedy_full_scan(ranked: list, cost, usable, redundant, limit: int,
                     separator: int) -> tuple:
    """Visit every candidate of `ranked`, best first, and take it when it
    is usable, not redundant with a taken one, and its cost (plus
    `separator` after the first taken) fits in what is left of limit.
    Returns (taken candidates, budget used)."""
    taken = []
    used = 0
    for c in ranked:
        if not usable(c) or any(redundant(c, t) for t in taken):
            continue
        c_cost = cost(c) + (separator if taken else 0)
        if used + c_cost > limit:
            continue
        taken.append(c)
        used += c_cost
    return taken, used


# ---------------------------------------------------------------------------
# Spearman rho via explicit average ranks + Pearson on ranks

def average_ranks(values: list) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_rho(x: list, y: list):
    """Tie-corrected Spearman; None when either vector is constant."""
    if len(set(x)) < 2 or len(set(y)) < 2:
        return None
    rx, ry = average_ranks(x), average_ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) *
                    sum((b - my) ** 2 for b in ry))
    return num / den
