"""Sentence segmentation and token normalization.

normalize() lowercases, folds diacritics, keeps alphanumeric runs, drops
purely numeric tokens and stopwords, then maps each survivor through the
lemma dictionary or, failing that, a small deterministic suffix stemmer.
Stopwords are filtered again after mapping so the operation is idempotent
on its own output.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from importlib import resources as importlib_resources

from .corpus import SUPPORTED_LANGUAGES, Cluster
from .errors import DegenerateCluster, InvalidParameter

# Trailing abbreviations whose period does not end a sentence.
ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "jr", "sr", "st", "vs", "etc", "fig",
    "eg", "ie", "inc", "ltd", "co", "corp", "approx", "no",
})

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NUMERIC_RE = re.compile(r"[0-9]+")
_TERMINATOR_RE = re.compile(r"[.!?]+")
_LETTER_RE = re.compile(r"[^\W\d_]")


@dataclass(frozen=True)
class SentenceRecord:
    global_id: int
    doc_id: str
    layer_index: int
    position_in_doc: int
    raw_text: str
    tokens: tuple


@dataclass(frozen=True)
class LanguageResources:
    language: str
    stopwords: frozenset
    lemma_map: dict


def fold(text: str) -> str:
    """Lowercase and strip diacritics (NFKD, drop combining marks).

    ASCII text is only lowercased: NFKD leaves it as it is, and it has no
    combining marks.
    """
    if text.isascii():
        return text.lower()
    decomposed = unicodedata.normalize("NFKD", text.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def stem(word: str) -> str:
    """Plural-stripping suffix stemmer: ies -> y, else drop a final s.

    Words of length <= 3 and the exception endings (aies/eies, aes/ees/oes,
    us/ss) pass through untouched. Idempotent.
    """
    if len(word) <= 3:
        return word
    if word.endswith(("aies", "eies", "aes", "ees", "oes", "us", "ss")):
        return word
    if word.endswith("ies"):
        return word[:-3] + "y"
    if word.endswith("s"):
        return word[:-1]
    return word


def _stable_form(token: str, lemma_map: dict) -> str:
    """Apply lemma-else-stem steps until the token stops changing.

    Chasing to a fixpoint keeps normalize idempotent even when a stemmed
    form lands on a lemma key (brazils -> brazil -> brasil). Any mapping
    that never stabilizes is a broken resource file.
    """
    seen = set()
    current = token
    while current not in seen:
        seen.add(current)
        nxt = lemma_map.get(current)
        if nxt is None:
            nxt = stem(current)
        if nxt == current:
            return current
        current = nxt
    raise InvalidParameter(
        f"lemma mapping does not stabilize for {token!r}")


def load_resources(language: str) -> LanguageResources:
    """Load bundled stopword/lemma files for a supported language.

    Entries are folded with the same rules as normalize(), so accented
    spellings in the files match folded tokens. Every lemma key must
    resolve to a stable form (no mapping cycles).
    """
    if language not in SUPPORTED_LANGUAGES:
        raise InvalidParameter(f"unsupported language {language!r}")
    pkg_files = importlib_resources.files(__package__) / "resources"
    stop_text = (pkg_files / f"stopwords_{language}.txt").read_text("utf-8")
    stopwords = set()
    for line in stop_text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            stopwords.add(fold(entry))
    lemma_text = (pkg_files / f"lemma_{language}.tsv").read_text("utf-8")
    lemma_map = {}
    for line in lemma_text.splitlines():
        row = line.split("#", 1)[0].rstrip()
        if not row.strip():
            continue
        parts = row.split("\t")
        if len(parts) != 2:
            raise InvalidParameter(
                f"lemma_{language}.tsv: expected two tab-separated fields, "
                f"got {line!r}")
        lemma_map[fold(parts[0].strip())] = fold(parts[1].strip())
    for key in lemma_map:
        _stable_form(key, lemma_map)
    return LanguageResources(language, frozenset(stopwords), lemma_map)


def _is_boundary(text: str, start: int, end: int) -> bool:
    # Boundary requires end-of-text or whitespace next (protects "3.14"),
    # and the preceding word must not be a known abbreviation when the
    # terminator is a bare period.
    if end < len(text) and not text[end].isspace():
        return False
    if text[start:end] == ".":
        # the run of letters ending at the period, or at a newline just
        # before it, as the pattern [^\W\d_]+$ finds it in text[:start]
        stop = start - 1 if text[start - 1:start] == "\n" else start
        begin = stop
        while begin and _LETTER_RE.match(text, begin - 1):
            begin -= 1
        if text[begin:stop].lower() in ABBREVIATIONS:
            return False
    return True


def segment(raw_text: str) -> list:
    """Split text into sentence strings at '.', '!' or '?'.

    A terminator ends a sentence when whitespace or the end of the text
    follows it, and a bare period also needs the word before it not to be
    an abbreviation; that word is found by walking back from the period, so
    the split takes time linear in the text's length. Each returned
    segment keeps its terminator and has internal whitespace collapsed to
    single spaces. Empty segments are dropped.
    """
    sentences = []
    begin = 0
    for m in _TERMINATOR_RE.finditer(raw_text):
        if not _is_boundary(raw_text, m.start(), m.end()):
            continue
        piece = raw_text[begin:m.end()].strip()
        if _TOKEN_RE.search(fold(piece)):
            sentences.append(" ".join(piece.split()))
        begin = m.end()
    tail = raw_text[begin:].strip()
    if tail and _TOKEN_RE.search(fold(tail)):
        sentences.append(" ".join(tail.split()))
    return sentences


def normalize(sentence: str, res: LanguageResources) -> list:
    out = []
    for token in _TOKEN_RE.findall(fold(sentence)):
        if _NUMERIC_RE.fullmatch(token):
            continue
        if token in res.stopwords:
            continue
        mapped = _stable_form(token, res.lemma_map)
        if not mapped or mapped in res.stopwords:
            continue
        if _NUMERIC_RE.fullmatch(mapped):
            continue
        out.append(mapped)
    return out


def build_sentences(cluster: Cluster, res: LanguageResources) -> list:
    """Segment and normalize every document of a cluster.

    Returns SentenceRecords with global_id increasing in (layer_index,
    position_in_doc) order. Raises DegenerateCluster when no sentence
    carries any content token.
    """
    records = []
    global_id = 0
    for doc in cluster.documents:
        for position, sentence in enumerate(segment(doc.raw_text)):
            tokens = tuple(normalize(sentence, res))
            records.append(SentenceRecord(
                global_id, doc.id, doc.layer_index, position,
                sentence, tokens))
            global_id += 1
    if not any(rec.tokens for rec in records):
        raise DegenerateCluster(
            f"cluster {cluster.id}: every sentence normalized to nothing")
    return records
