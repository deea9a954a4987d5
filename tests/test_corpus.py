import math

import pytest

from netsumm.corpus import (Cluster, SummaryBudget, load_cluster, load_corpus,
                            parse_budget, parse_manifest)
from netsumm.errors import ClusterTooSmall, CorpusFormatError, EmptyCorpus


def test_parse_manifest_basics():
    text = "budget = words:40\n# full-line comment\nlanguage = en  # trailing\n"
    assert parse_manifest(text) == {"budget": "words:40", "language": "en"}


def test_parse_manifest_blank_lines_ignored():
    assert parse_manifest("\n\n  \n") == {}


@pytest.mark.parametrize("bad", ["just words", "= value", "key =", "a = 1\na = 2"])
def test_parse_manifest_rejects_malformed(bad):
    with pytest.raises(CorpusFormatError):
        parse_manifest(bad)


def test_parse_budget_kinds():
    assert parse_budget("words:200") == SummaryBudget("words", 200)
    assert parse_budget("chars:665") == SummaryBudget("chars", 665)
    assert parse_budget("compression:0.7") == SummaryBudget("compression", 0.7)


@pytest.mark.parametrize("bad", [
    "words200",          # no colon
    "words:many",        # not a number
    "words:2.5",         # fractional count
    "words:0",           # below 1
    "compression:1.2",   # rate out of range
    "compression:0",
    "lines:3",           # unknown kind
    "words:nan",         # not finite
    "words:inf",
    "chars:1e400",       # overflows to inf
    "compression:nan",
])
def test_parse_budget_rejects(bad):
    with pytest.raises(CorpusFormatError):
        parse_budget(bad)


@pytest.mark.parametrize("kind", ["words", "chars"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, 0, -1])
def test_summary_budget_refuses_a_count_select_cannot_use(kind, value):
    # refused where the budget is made, so neither select nor run_sweep
    # ever sees it
    with pytest.raises(CorpusFormatError, match="finite integer"):
        SummaryBudget(kind, value)


def test_load_cluster_toy(toy_path):
    cluster = load_cluster(toy_path / "c01")
    assert cluster.id == "c01"
    assert [d.id for d in cluster.documents] == ["d1", "d2", "d3"]
    assert [d.layer_index for d in cluster.documents] == [0, 1, 2]
    assert len(cluster.references) == 2
    assert cluster.budget == SummaryBudget("words", 40)
    assert cluster.language == "en"


def _write_cluster(root, docs=("one sentence.", "another sentence."),
                   manifest="budget = words:10\n", refs=()):
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest").write_text(manifest, encoding="utf-8")
    docs_dir = root / "docs"
    docs_dir.mkdir()
    for i, text in enumerate(docs):
        (docs_dir / f"d{i}.txt").write_text(text, encoding="utf-8")
    if refs:
        refs_dir = root / "refs"
        refs_dir.mkdir()
        for i, text in enumerate(refs):
            (refs_dir / f"r{i}.txt").write_text(text, encoding="utf-8")
    return root


def test_load_cluster_without_refs(tmp_path):
    cluster = load_cluster(_write_cluster(tmp_path / "c"))
    assert cluster.references == ()


def test_load_cluster_not_a_directory(tmp_path):
    with pytest.raises(CorpusFormatError):
        load_cluster(tmp_path / "missing")


def test_load_cluster_missing_manifest(tmp_path):
    root = tmp_path / "c"
    (root / "docs").mkdir(parents=True)
    with pytest.raises(CorpusFormatError, match="manifest"):
        load_cluster(root)


def test_load_cluster_unknown_manifest_key(tmp_path):
    root = _write_cluster(tmp_path / "c",
                          manifest="budget = words:10\ncolor = blue\n")
    with pytest.raises(CorpusFormatError, match="unknown manifest keys"):
        load_cluster(root)


def test_load_cluster_missing_budget(tmp_path):
    root = _write_cluster(tmp_path / "c", manifest="language = en\n")
    with pytest.raises(CorpusFormatError, match="budget"):
        load_cluster(root)


def test_load_cluster_unsupported_language(tmp_path):
    root = _write_cluster(tmp_path / "c",
                          manifest="budget = words:10\nlanguage = fr\n")
    with pytest.raises(CorpusFormatError, match="language"):
        load_cluster(root)


def test_load_cluster_needs_two_documents(tmp_path):
    root = _write_cluster(tmp_path / "c", docs=("only one doc.",))
    with pytest.raises(ClusterTooSmall):
        load_cluster(root)


def test_load_cluster_rejects_empty_document(tmp_path):
    root = _write_cluster(tmp_path / "c", docs=("fine text.", "   \n"))
    with pytest.raises(CorpusFormatError, match="empty"):
        load_cluster(root)


def test_load_cluster_rejects_invalid_utf8(tmp_path):
    root = _write_cluster(tmp_path / "c")
    (root / "docs" / "d0.txt").write_bytes(b"\xff\xfe broken")
    with pytest.raises(CorpusFormatError, match="UTF-8"):
        load_cluster(root)


def test_load_corpus_sorted_ids(toy_corpus):
    assert [c.id for c in toy_corpus] == ["c01", "c02"]
    assert all(isinstance(c, Cluster) for c in toy_corpus)


def test_load_corpus_empty(tmp_path):
    with pytest.raises(EmptyCorpus):
        load_corpus(tmp_path)


def test_load_corpus_bad_path(tmp_path):
    with pytest.raises(CorpusFormatError):
        load_corpus(tmp_path / "nope")
