"""The graph transforms allocate no n x n scratch beyond what they return:
their traced peak stays under twice the bytes of their result, on a
250-sentence cluster."""

import tracemalloc

import numpy as np
import pytest

import util
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
