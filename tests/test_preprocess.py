import pickle
import random
import sys
import threading
import time
import unicodedata

import pytest

import oracles
from netsumm import preprocess
from netsumm.corpus import Cluster, Document, SummaryBudget
from netsumm.errors import DegenerateCluster, InvalidParameter
from netsumm.preprocess import (build_sentences, fold, load_resources,
                                normalize, segment, stem)


def test_fold_strips_case_and_accents():
    assert fold("Garcí") == "garci"
    assert fold("NAÇÕES Água") == "nacoes agua"


def test_fold_lowercases_what_compatibility_characters_decompose_to(en_res):
    # "ℍ" and "№" are not uppercase themselves, so lowercasing them first
    # left the capitals NFKD makes of them, and [a-z0-9]+ dropped those
    assert fold("ℍello") == "hello"
    assert fold("№ ™") == "no tm"
    assert normalize("Room № 5 was booked.", en_res) == ["room", "booked"]
    assert segment("ℍℍ. Next one.") == ["ℍℍ.", "Next one."]


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


def test_load_resources_is_shared_and_read_only():
    res = load_resources("en")
    assert load_resources("en") is res
    assert load_resources("pt") is not res
    with pytest.raises(TypeError):
        res.lemma_map["ties"] = "ty"


def test_cache_clear_gives_fresh_resources_with_an_empty_table():
    res = load_resources("en")
    normalize("the ties", res)
    load_resources.cache_clear()
    fresh = load_resources("en")
    assert fresh is not res and fresh == res
    assert "ties" not in fresh._forms and "ties" in res._forms
    assert load_resources("en") is fresh


def test_hand_built_resources_keep_their_own_table():
    lemmas = {"ties": "knot"}
    res = preprocess.LanguageResources("en", {"the"}, lemmas)
    lemmas["ties"] = "tie"   # the resources copied the dict
    assert normalize("the ties", res) == ["knot"]
    assert normalize("the ties", load_resources("en")) == ["tie"]


def test_resources_unpickle_to_an_equal_copy_with_its_own_table(en_res):
    normalize("the ties", en_res)
    copy = pickle.loads(pickle.dumps(en_res))
    assert copy == en_res and copy is not en_res
    assert copy._forms is not en_res._forms
    assert normalize("the ties", copy) == ["tie"]


def test_threads_sharing_one_table_get_the_single_threaded_forms(
        toy_corpus, en_res):
    # every thread fills the same fresh table at once; a lost or crossed
    # write would give some thread another word's form
    def fresh():
        return preprocess.LanguageResources("en", en_res.stopwords,
                                            en_res.lemma_map)
    clusters = list(toy_corpus) * 4
    want = [build_sentences(c, fresh()) for c in clusters]
    shared, got = fresh(), [None] * len(clusters)

    def run(k):
        got[k] = build_sentences(clusters[k], shared)
    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(clusters))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


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
    # "approx" is the longest abbreviation; one letter more is a word
    assert segment("It took approx. ten days.") == ["It took approx. ten days."]
    assert segment("It took approxx. Ten days.") == \
        ["It took approxx.", "Ten days."]
    # a long word that ends in an abbreviation is no abbreviation
    assert segment("Sold to Westinghousecorp. Then more.") == \
        ["Sold to Westinghousecorp.", "Then more."]


def test_segment_no_is_an_abbreviation_only_before_a_number():
    assert segment("The answer was no. He left the room.") == \
        ["The answer was no.", "He left the room."]
    assert segment("Ela disse que no. O povo foi embora.") == \
        ["Ela disse que no.", "O povo foi embora."]
    assert segment("He lives at No. 5 Main Street. It is big.") == \
        ["He lives at No. 5 Main Street.", "It is big."]


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


def test_segment_boundaries_match_the_prefix_regex():
    # "\n." puts a period after a newline, which `$` skips over; the
    # non-ASCII spaces, U+001C, a combining acute and "Σ" probe where
    # `\s`, `[^\W\d_]` and fold might part from str.isspace and the
    # letter run the referee finds; "No" and the digits probe the number
    # that keeps "no." whole
    pieces = ["Dr", "etc", "ETC", "x1etc", "no", "No", "Ñetc", "café", "x²",
              "a_b", "3", "14", "0", "5", "_", " ", "  ", "\n",
              "\n.", ".", "!", "?", "..", "word", "Fig", "approx", "corp",
              "\u00a0", "\u2028", "\u0085", "\u001c", "\u3000", "\u0301",
              "Σ"]
    rng = random.Random(7)
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 40)))
             for _ in range(1000)]
    assert [segment(t) for t in texts] == [
        oracles.segment_by_prefix_search(t, preprocess.ABBREVIATIONS, fold)
        for t in texts]


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
