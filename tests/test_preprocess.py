import random
import re
import time
import unicodedata

import pytest

from netsumm import preprocess
from netsumm.corpus import Cluster, Document, SummaryBudget
from netsumm.errors import DegenerateCluster, InvalidParameter
from netsumm.preprocess import (build_sentences, fold, load_resources,
                                normalize, segment, stem)


def test_fold_strips_case_and_accents():
    assert fold("Garcí") == "garci"
    assert fold("NAÇÕES Água") == "nacoes agua"


@pytest.mark.parametrize("word,expected", [
    ("includes", "include"),
    ("goods", "good"),
    ("products", "product"),
    ("spans", "span"),
    ("habitants", "habitant"),
    ("cities", "city"),
    ("ties", "ty"),          # raw stemmer only; the lemma table fixes this
    ("populous", "populous"),  # -us protected
    ("glass", "glass"),        # -ss protected
    ("gas", "gas"),            # short-word guard
    ("is", "is"),
    ("goes", "goes"),          # -oes protected
    ("trees", "trees"),        # -ees protected
])
def test_stem_cases(word, expected):
    assert stem(word) == expected


def test_stem_idempotent_on_samples():
    for w in ("includes", "cities", "glasses", "areas", "bus", "analyses"):
        assert stem(stem(w)) == stem(w)


def test_load_resources_en(en_res):
    assert en_res.language == "en"
    assert "the" in en_res.stopwords
    assert en_res.lemma_map["largest"] == "large"
    assert en_res.lemma_map["ties"] == "tie"


def test_load_resources_pt_entries_are_folded():
    res = load_resources("pt")
    # accented entries in the file must match folded tokens
    assert "nao" in res.stopwords
    assert "voce" in res.stopwords


def test_load_resources_unknown_language():
    with pytest.raises(InvalidParameter):
        load_resources("fr")


def test_segment_terminators():
    assert segment("A. B? C!") == ["A.", "B?", "C!"]


def test_segment_keeps_decimal_numbers_together():
    assert segment("It cost 3.14 dollars. Cheap.") == \
        ["It cost 3.14 dollars.", "Cheap."]


def test_segment_known_abbreviation_does_not_split():
    out = segment("Dr. Smith arrived. He left.")
    assert out == ["Dr. Smith arrived.", "He left."]


def test_segment_multi_terminator_runs():
    assert segment("Really?! Yes.") == ["Really?!", "Yes."]


def test_segment_collapses_whitespace_and_drops_empty():
    out = segment("First   line\nwraps. ... Second.")
    assert out == ["First line wraps.", "Second."]


def test_segment_keeps_unterminated_tail():
    assert segment("Complete. trailing fragment") == \
        ["Complete.", "trailing fragment"]


def test_segment_no_tokens_means_no_sentences():
    assert segment("?! ... --") == []


def test_segment_abbreviation_is_the_letter_run_before_the_period():
    # non-ASCII letters belong to the word, so "Ñetc" is no abbreviation
    assert segment("Dr. Smith came. Ñetc. Next.") == \
        ["Dr. Smith came.", "Ñetc.", "Next."]
    assert segment("Mrs. Doña Ana left. Café. Ok.") == \
        ["Mrs. Doña Ana left.", "Café.", "Ok."]
    # a digit ends the run: "x1etc." ends in the abbreviation "etc"
    assert segment("See x1etc. for more. Then 3.14 fits.") == \
        ["See x1etc. for more.", "Then 3.14 fits."]


_OLD_TRAILING_WORD_RE = re.compile(r"([^\W\d_]+)$")


def _old_is_boundary(text, start, end):
    """The boundary rule as a regex search over the prefix (quadratic)."""
    if end < len(text) and not text[end].isspace():
        return False
    if text[start:end] == ".":
        m = _OLD_TRAILING_WORD_RE.search(text[:start])
        if m and m.group(1).lower() in preprocess.ABBREVIATIONS:
            return False
    return True


def test_segment_boundaries_match_the_prefix_regex(monkeypatch):
    # "\n." puts a period after a newline, which `$` skips over
    pieces = ["Dr", "etc", "ETC", "x1etc", "no", "Ñetc", "café", "x²",
              "a_b", "3", "14", "_", " ", "  ", "\n", "\n.", ".", "!", "?",
              "..", "word", "Fig"]
    rng = random.Random(7)
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 40)))
             for _ in range(1000)]
    new = [segment(t) for t in texts]
    monkeypatch.setattr(preprocess, "_is_boundary", _old_is_boundary)
    assert new == [segment(t) for t in texts]


def test_segment_is_linear_in_text_length():
    text = " ".join(f"Sentence number {k} ends here." for k in range(2000))
    start = time.perf_counter()
    out = segment(text)
    assert time.perf_counter() - start < 1.0   # a prefix rescan takes ~6 s
    assert len(out) == 2000


def test_fold_ascii_shortcut_matches_nfkd():
    ascii_text = "".join(map(chr, range(128)))
    nfkd = unicodedata.normalize("NFKD", ascii_text.lower())
    assert fold(ascii_text) == nfkd == ascii_text.lower()


def test_normalize_pipeline(en_res):
    out = normalize("The largest cities had 861,145 habitants!", en_res)
    assert out == ["large", "city", "habitant"]


def test_normalize_applies_lemma_before_stemmer(en_res):
    # "ties" must come out as "tie" (table), not "ty" (stemmer)
    assert normalize("close ties", en_res) == ["tie"]


def test_normalize_drops_pure_numbers(en_res):
    assert normalize("In 1540 alone", en_res) == ["alone"]
    assert normalize("In 1540", en_res) == []


def test_normalize_is_idempotent(en_res):
    text = "The largest industrialized cities kept close ties with Brazil."
    once = normalize(text, en_res)
    assert normalize(" ".join(once), en_res) == once


def _cluster(texts, language="en"):
    docs = tuple(Document(f"d{i}", t, i) for i, t in enumerate(texts))
    return Cluster("t", docs, (), SummaryBudget("words", 10), language)


def test_build_sentences_order_and_ids(en_res):
    cluster = _cluster(["River flooded. Crews rescued families.",
                        "Rain continued."])
    records = build_sentences(cluster, en_res)
    assert [r.global_id for r in records] == [0, 1, 2]
    assert [(r.layer_index, r.position_in_doc) for r in records] == \
        [(0, 0), (0, 1), (1, 0)]
    assert records[0].raw_text == "River flooded."
    assert all(r.tokens for r in records)


def test_build_sentences_degenerate(en_res):
    cluster = _cluster(["The of and.", "A an the."])
    with pytest.raises(DegenerateCluster):
        build_sentences(cluster, en_res)
