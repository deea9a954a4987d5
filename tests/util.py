"""Seeded random generators shared by the test modules.

Everything here is reproducible from an explicit numpy Generator so any
failing case can be replayed from its seed.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import netsumm
from netsumm import from_edges
from netsumm.centrality import CentralityResult, HIGHEST
from netsumm.graph import MultilayerGraph, cosine_matrix
from netsumm.preprocess import SentenceRecord
from netsumm.summarize import PreparedCluster
from netsumm.tfidf import fit, stack, vectorize

WORDS = ("river", "flood", "rescue", "mayor", "storm", "bridge", "road",
         "school", "crew", "boat", "house", "rain", "water", "night",
         "family", "warning", "damage", "power", "town", "district")


def random_edge_triples(rng, n, p=0.45):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, float(rng.uniform(0.05, 1.0))))
    return edges


def random_graph(rng, n_max=8, weighted=None, n_min=2):
    """Random multilayer graph with at least one edge.

    Isolated nodes are allowed on purpose (they exercise the penalty and
    +inf branches). Layer labels are random over {0, 1}.
    """
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        triples = random_edge_triples(rng, n)
        if triples:
            break
    layers = [int(x) for x in rng.integers(0, 2, n)]
    wt = bool(rng.random() < 0.5) if weighted is None else weighted
    return from_edges(n, layers, triples, weighted=wt)


def random_multilayer(rng, n_max=8):
    """Like random_graph but guaranteed to hold intra AND inter edges."""
    while True:
        g = random_graph(rng, n_max=n_max, weighted=True, n_min=3)
        kinds = {e.kind for e in g.edges}
        if len(kinds) == 2:
            return g


def effective_triples(g):
    """(u, v, w) triples as a centrality routine sees them."""
    return [(e.u, e.v, e.weight if g.weighted else 1.0) for e in g.edges]


def adjacency_dict(g):
    adj = {i: set() for i in range(g.n_nodes)}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    return adj


def random_stochastic(rng, n_max=10):
    n = int(rng.integers(1, n_max + 1))
    m = rng.random((n, n))
    m[rng.random((n, n)) < 0.3] = 0.0  # sparsify
    for i in range(n):
        if m[i].sum() == 0:
            m[i, int(rng.integers(0, n))] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def random_records(rng, n_docs=3, n_sentences=8, dup_pairs=1):
    """Synthetic SentenceRecords with planted duplicate pairs.

    Returns (records, pairs) where each pair is a (gid_a, gid_b) duplicate:
    same surface text and same token tuple, different documents. The
    records are numbered in (layer, position) order, as build_sentences
    numbers them.
    """
    records = []
    gid = 0
    positions = [0] * n_docs
    for _ in range(n_sentences):
        doc = int(rng.integers(0, n_docs))
        k = int(rng.integers(3, 8))
        toks = tuple(WORDS[int(i)] for i in rng.integers(0, len(WORDS), k))
        records.append(SentenceRecord(gid, f"d{doc}", doc, positions[doc],
                                      " ".join(toks) + ".", toks))
        gid += 1
        positions[doc] += 1
    pairs = []
    for _ in range(dup_pairs):
        src = records[int(rng.integers(0, len(records)))]
        doc = (src.layer_index + 1) % n_docs
        records.append(SentenceRecord(gid, f"d{doc}", doc, positions[doc],
                                      src.raw_text, src.tokens))
        pairs.append((src.global_id, gid))
        gid += 1
        positions[doc] += 1
    records.sort(key=lambda r: (r.layer_index, r.position_in_doc))
    new_id = {r.global_id: k for k, r in enumerate(records)}
    return ([replace(r, global_id=k) for k, r in enumerate(records)],
            [(new_id[a], new_id[b]) for a, b in pairs])


def vectors_for(records):
    model = fit(records, len({r.layer_index for r in records}))
    return {r.global_id: vectorize(r, model) for r in records}


def prepared_for(records, cosines=None):
    """A PreparedCluster over records whose base graph holds `cosines`, by
    default the records' pairwise tf-idf cosines as netsumm's own pipeline
    computes them."""
    if cosines is None:
        cosines = cosine_matrix(stack(list(vectors_for(records).values())))
    return PreparedCluster(records, MultilayerGraph(
        cosines, np.array([r.layer_index for r in records])))


def ranking_preferring(records, preferred, measure="dg"):
    """A HIGHEST-direction ranking that puts `preferred` gids on top."""
    position = {r.global_id: k for k, r in enumerate(records)}
    scores = [float(k) for k in range(len(records))]
    top = max(scores) + 1.0
    for rank, gid in enumerate(preferred):
        scores[position[gid]] = top + len(preferred) - rank
    return CentralityResult(measure, scores, HIGHEST)


def run_in_fresh_interpreter(script: str, argv: list) -> str:
    """The last line `script` prints, run with argv in a new interpreter
    that imports this netsumm, so that a module another test imported
    cannot hide an import."""
    src = str(Path(netsumm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.splitlines()[-1]
