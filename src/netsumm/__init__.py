"""netsumm: extractive multi-document summarization over multilayer
sentence networks.

Pipeline: load a cluster of documents, segment and normalize sentences,
build tf-idf vectors, connect sentences by cosine similarity into a graph
whose layers are the source documents, rank nodes with a centrality
measure, and pick ranked sentences under a length budget. ROUGE-1 recall
against reference summaries drives the (alpha, r) parameter sweep.
"""

from .centrality import (ALL_MEASURES, UNWEIGHTED_MEASURES,
                         WEIGHTED_MEASURES, CentralityResult, StochasticMatrix,
                         absorption_time, accessibility, all_lengths_matrix,
                         avg_shortest_path, compute, degree,
                         generalized_accessibility, pagerank,
                         saw_probabilities, strength, symmetry)
from .corpus import (Cluster, Document, SummaryBudget, load_cluster,
                     load_corpus)
from .errors import (ClusterTooSmall, ConvergenceError, CorpusFormatError,
                     DegenerateCluster, EmptyCorpus, EmptyGraph, EmptySummary,
                     InvalidInput, InvalidParameter, InvalidReference,
                     NetsummError, SingularMatrix)
from .evaluate import (CorrelationMatrix, EvaluationReport, SweepGrid,
                       grid_rankings, rouge1_recall, run_sweep,
                       spearman_matrix)
from .graph import (Edge, MultilayerGraph, apply_alpha, build, from_edges,
                    remove_weakest)
from .preprocess import (LanguageResources, SentenceRecord, build_sentences,
                         load_resources, normalize, segment)
from .summarize import (PreparedCluster, RedundancyConfig, Summary,
                        ar1_threshold, ngram_similarity, prepare_cluster,
                        select)
from .tfidf import (ClusterVectors, SentenceVector, TfIdfModel, cosine, fit,
                    vectorize, vectorize_all)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
