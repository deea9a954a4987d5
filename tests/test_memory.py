"""The graph transforms allocate no n x n scratch beyond what they return:
their traced peak stays under twice the bytes of their result, on a
250-sentence cluster. The sweep's ROUGE scoring holds a bounded scratch."""

import tracemalloc

import numpy as np
import pytest

import util
from netsumm.evaluate import RougeReferences, _score_selections
from netsumm.graph import build, remove_weakest
from netsumm.summarize import ar1_blocks
from netsumm.tfidf import cluster_vectors


@pytest.fixture(scope="module")
def base():
    records, _ = util.random_records(np.random.default_rng(5), n_docs=5,
                                     n_sentences=250, dup_pairs=0)
    return build(cluster_vectors(records, 5),
                 [r.layer_index for r in records])


def traced_peak(call):
    """(result, peak bytes traced while `call` ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("r", [0.2, 0.5])
def test_remove_weakest_peak_is_under_twice_its_result(base, r):
    cut, peak = traced_peak(lambda: remove_weakest(base, r))
    assert np.count_nonzero(cut.W) < np.count_nonzero(base.W)
    assert peak < 2 * cut.W.nbytes


def test_ar1_blocks_peak_is_under_twice_its_result(base):
    blocks, peak = traced_peak(lambda: ar1_blocks(base.W))
    assert blocks.shape == (250, 250)
    assert peak < 2 * blocks.nbytes


def test_rouge_scoring_scratch_does_not_grow_with_the_selections():
    """The sweep scores a cluster's distinct selections a chunk at a time,
    so its scratch is the count rows of one chunk's sentences, not of every
    chosen sentence at once. Shaped like sweep-cst's scoring: 30 sentences, a
    60-term reference vocabulary, 540 selections of 8-10 sentences, where
    gathering every row at once takes about 2.3 MB. Past that, each further
    selection adds only its score to the peak."""
    rng = np.random.default_rng(7)
    words = [f"w{k}" for k in range(60)]
    references = RougeReferences([" ".join(words * 2)])
    sentence_rows = np.array([references.counts(rng.choice(words, 20))
                              for _ in range(30)])
    selections = [tuple(sorted(rng.choice(30, int(rng.integers(8, 11)),
                                          replace=False).tolist()))
                  for _ in range(2160)]
    peaks = {}
    for count in (540, 2160):
        scores, peaks[count] = traced_peak(lambda: _score_selections(
            references, sentence_rows, selections[:count], "mean"))
        assert len(scores) == count
    gathered = sum(map(len, selections[:540])) * sentence_rows[0].nbytes
    assert gathered > 2_000_000
    assert peaks[540] < gathered / 8
    assert peaks[2160] - peaks[540] < 64 * (2160 - 540)
