"""tf-idf sentence vectors and cosine similarity.

tf is the within-sentence relative frequency; idf = ln(n_docs / df) + 1
where df counts the documents (layers, not file stems) of the cluster that
contain the term. Since df <= n_docs, idf >= 1 and all weights are
non-negative.

A cluster's vectors are computed together, as flat arrays (ClusterVectors);
vectorize is the one-sentence case of the same computation, and
cluster_vectors fits and vectorizes a cluster in one pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateCluster
from .preprocess import SentenceRecord


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict
    doc_freq: dict
    n_docs: int

    def idf(self, term: str) -> float:
        return math.log(self.n_docs / self.doc_freq[term]) + 1.0


@dataclass(frozen=True)
class SentenceVector:
    sentence_id: int
    weights: dict
    norm: float


def fit(sentences: list, n_docs: int) -> TfIdfModel:
    """Build vocabulary and document frequencies from one cluster."""
    doc_terms = {}
    for rec in sentences:
        doc_terms.setdefault(rec.layer_index, set()).update(rec.tokens)
    doc_freq = Counter(chain.from_iterable(doc_terms.values()))
    if not doc_freq:
        raise DegenerateCluster("no terms: cannot fit a tf-idf model")
    vocabulary = {term: idx for idx, term in enumerate(sorted(doc_freq))}
    return TfIdfModel(vocabulary, dict(doc_freq), n_docs)


@dataclass(frozen=True)
class ClusterVectors:
    """The sparse tf-idf vectors of a list of sentences, as flat arrays.

    Entry k is the weight `weight[k]` of term `term[k]` in sentence
    `sentence[k]` (a position in the list); a term is a vocabulary index,
    or with cluster_vectors a rank in order of first occurrence. Entries
    run sentence by sentence, and within a sentence in the order its terms
    first occur, the key order of SentenceVector.weights. norms[i] is
    sentence i's norm.
    """

    sentence: np.ndarray
    term: np.ndarray
    weight: np.ndarray
    norms: np.ndarray


def vectorize_all(sentences: list, model: TfIdfModel) -> ClusterVectors:
    """The tf-idf vector of every sentence: each term of a sentence with
    `size` tokens weighs (count / size) * idf. Terms outside the model's
    vocabulary get no entry but count in size; a sentence without tokens
    is the zero vector.

    Each norm adds its squares from 0 in entry order, one column of
    entries at a time, as a sequential sum over the weights would.
    """
    vocab = model.vocabulary
    local, ids = _local_ids(sentences)
    term_of = np.array([vocab.get(t, -1) for t in local], dtype=np.int64)
    idf_of = np.array([model.idf(t) if t in vocab else 0.0 for t in local])
    return _weigh(sentences, ids, term_of, idf_of)


def cluster_vectors(sentences: list, n_docs: int) -> ClusterVectors:
    """vectorize_all(sentences, fit(sentences, n_docs)), bit for bit, in
    one pass, except that a term's id is its rank in order of first
    occurrence rather than in the sorted vocabulary.

    A term's df counts the distinct layers that hold it, and its idf is
    read from a table holding ln(n_docs / df) + 1 once per df value.
    """
    local, ids = _local_ids(sentences)
    if not local:
        raise DegenerateCluster("no terms: cannot fit a tf-idf model")
    # seen[k, t]: the k-th distinct layer holds term t
    layer = np.unique([rec.layer_index for rec in sentences],
                      return_inverse=True)[1]
    seen = np.zeros((layer.max() + 1, len(local)), dtype=bool)
    seen[np.repeat(layer, [len(rec.tokens) for rec in sentences]), ids] = True
    df = seen.sum(axis=0)
    idf = np.array([math.log(n_docs / d) + 1.0
                    for d in range(1, df.max() + 1)])
    return _weigh(sentences, ids, np.arange(len(local)), idf[df - 1])


def _local_ids(sentences: list) -> tuple:
    """(local, ids): each distinct token of the sentences mapped to its
    rank in order of first occurrence, and that rank for every token."""
    tokens = list(chain.from_iterable(rec.tokens for rec in sentences))
    local = dict(zip(dict.fromkeys(tokens), range(len(tokens))))
    return local, np.fromiter(map(local.__getitem__, tokens), np.int64,
                              len(tokens))


def _weigh(sentences: list, ids: np.ndarray, term_of: np.ndarray,
           idf_of: np.ndarray) -> ClusterVectors:
    """The vectors of the sentences whose tokens have local ids `ids`; a
    local id k is term term_of[k] of weight idf_of[k], or no term when
    term_of[k] < 0."""
    sizes = [len(rec.tokens) for rec in sentences]
    width = max(len(term_of), 1)
    owner = np.repeat(np.arange(len(sentences)), sizes)
    keys, first, counts = np.unique(owner * width + ids, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)
    sentence, ids = np.divmod(keys[order], width)
    known = term_of[ids] >= 0
    sentence, ids = sentence[known], ids[known]
    weight = (counts[order][known] / np.asarray(sizes)[sentence]) \
        * idf_of[ids]
    return ClusterVectors(sentence, term_of[ids], weight,
                          _norms(sentence, weight, len(sentences)))


def _norms(sentence: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
    """Per sentence, sqrt of its squared weights summed in entry order."""
    lengths = np.bincount(sentence, minlength=n)
    position = np.arange(len(sentence)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    # row j holds each sentence's j-th square, or 0 past its last entry
    squares = np.zeros((lengths.max(initial=0), n))
    squares[position, sentence] = weight * weight
    total = np.zeros(n)
    for row in squares:
        total += row
    return np.sqrt(total)


def stack(vectors: list) -> ClusterVectors:
    """SentenceVectors, node i = vectors[i], as one ClusterVectors."""
    maps = [v.weights for v in vectors]
    sizes = list(map(len, maps))
    total = sum(sizes)
    return ClusterVectors(
        np.repeat(np.arange(len(maps)), sizes),
        np.fromiter(chain.from_iterable(maps), np.int64, total),
        np.fromiter(chain.from_iterable(map(dict.values, maps)), np.float64,
                    total),
        np.array([v.norm for v in vectors], dtype=float))


def vectorize(sentence: SentenceRecord, model: TfIdfModel) -> SentenceVector:
    """Sparse tf-idf vector of one sentence, as vectorize_all computes it;
    empty-token sentences map to the zero vector."""
    one = vectorize_all([sentence], model)
    return SentenceVector(sentence.global_id,
                          dict(zip(one.term.tolist(), one.weight.tolist())),
                          one.norms.tolist()[0])


def cosine(a: SentenceVector, b: SentenceVector) -> float:
    """Cosine of two sparse vectors; 0 when either is the zero vector.

    fsum keeps the dot product independent of term order, so the result
    is bitwise symmetric in its arguments.
    """
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    small, big = (a.weights, b.weights) if len(a.weights) <= len(b.weights) \
        else (b.weights, a.weights)
    dot = math.fsum(w * big[idx] for idx, w in small.items() if idx in big)
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.norm * b.norm))
