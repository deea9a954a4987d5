"""Sentence segmentation and token normalization, in one pass per text.

Segmentation: a run of '.', '!' or '?' ends a sentence when whitespace or
the end of the text follows it. A bare period does not when the letters
just before it, or just before a newline right before it, spell an
abbreviation in ABBREVIATIONS (case-insensitive; a run longer than the
longest abbreviation never does). "no" counts as one only when the next
non-space character is a digit, so "No. 5" stays whole and "was no." ends
a sentence. A sentence keeps its terminator, has its whitespace collapsed
to single spaces, and is dropped when it has no word.

Words: fold() decomposes the text (NFKD), then lowercases it, then drops
combining marks; the words are its [a-z0-9]+ runs. normalize() drops purely
numeric words and stopwords, then maps each survivor through the lemma
dictionary or, failing that, a small deterministic suffix stemmer, and
drops it again if it maps to a stopword or a number, so the operation is
idempotent on its own output. Stopword and lemma entries are folded the
same way.

load_resources returns one shared, read-only LanguageResources per
language per process. Each LanguageResources carries its own word-form
table, filled on first lookup, so a word is mapped once for as long as its
resources live: once per process per language for the shared ones. The
table holds one entry per distinct folded word it has been asked for. To
release the shared objects, call load_resources.cache_clear() and drop
every other reference to them; the next call reads the files again.
"""

from __future__ import annotations

import functools
import re
import types
import unicodedata
from dataclasses import dataclass, field
from importlib import resources as importlib_resources

from .corpus import SUPPORTED_LANGUAGES, Cluster
from .errors import DegenerateCluster, InvalidParameter

# Trailing abbreviations whose period does not end a sentence.
ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "jr", "sr", "st", "vs", "etc", "fig",
    "eg", "ie", "inc", "ltd", "co", "corp", "approx", "no",
})
_ABBREVIATION_LOOKBACK = max(map(len, ABBREVIATIONS)) + 1  # letters

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NUMERIC_RE = re.compile(r"[0-9]+")
# a terminator run that whitespace or the end of the text follows
_TERMINATOR_RE = re.compile(r"[.!?]+(?=\s|\Z)")
_WORD_END_RE = re.compile(r"[^\W\d_]+\Z")
# after "no" a bare period is an abbreviation only before a number
_NEXT_IS_DIGIT_RE = re.compile(r"\s*\d")


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
    """A language's stopwords and lemma table, read-only, and the table of
    each word's normalized form that they define (see _Forms)."""
    language: str
    stopwords: frozenset
    lemma_map: types.MappingProxyType
    _forms: _Forms = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # copies, so the form table never outlives what it was built from
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        object.__setattr__(self, "lemma_map",
                           types.MappingProxyType(dict(self.lemma_map)))
        object.__setattr__(self, "_forms", _Forms(self))

    def __reduce__(self):
        # a mappingproxy does not pickle; a copy gets a table of its own
        return (LanguageResources,
                (self.language, self.stopwords, dict(self.lemma_map)))


def fold(text: str) -> str:
    """Decompose (NFKD), lowercase, then drop combining marks.

    Lowercasing after decomposition keeps the letters that compatibility
    characters decompose to: "ℍ" folds to "h" and "№" to "no". ASCII text
    is only lowercased: NFKD leaves it as it is, and it has no combining
    marks.
    """
    if text.isascii():
        return text.lower()
    decomposed = unicodedata.normalize("NFKD", text).lower()
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


@functools.cache
def load_resources(language: str) -> LanguageResources:
    """Load bundled stopword/lemma files for a supported language.

    Entries are folded with the same rules as normalize(), so accented
    spellings in the files match folded tokens. Every lemma key must
    resolve to a stable form (no mapping cycles). The files are read once
    per process: every call for a language returns the same read-only
    object, and with it the same word-form table.
    load_resources.cache_clear() forgets the shared objects; they are freed
    once no caller holds them, and the next call builds new ones.
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
    return LanguageResources(language, stopwords, lemma_map)


def _sentences(text: str):
    """(sentence, words) for each sentence of text that has a word, as the
    module docstring defines them: the sentence with its whitespace
    collapsed, and the words of its fold in order."""
    ends = []
    for m in _TERMINATOR_RE.finditer(text):
        if m.group() == ".":
            # the letters before a bare period, or before a newline just
            # before it; a longer run is cut to one letter more than
            # the longest abbreviation
            stop = m.start() - (text[m.start() - 1:m.start()] == "\n")
            word = _WORD_END_RE.search(
                text, max(stop - _ABBREVIATION_LOOKBACK, 0), stop)
            abbreviation = word.group().lower() if word else None
            if abbreviation in ABBREVIATIONS and (
                    abbreviation != "no"
                    or _NEXT_IS_DIGIT_RE.match(text, m.end())):
                continue
        ends.append(m.end())
    ends.append(len(text))
    begin = 0
    for end in ends:
        piece, begin = text[begin:end], end
        words = _TOKEN_RE.findall(fold(piece))
        if words:
            yield " ".join(piece.split()), words


def segment(raw_text: str) -> list:
    """The sentences of raw_text (see the module docstring)."""
    return [sentence for sentence, _ in _sentences(raw_text)]


class _Forms(dict):
    """Folded word -> its normalized form, "" when it is dropped. A word is
    mapped on its first lookup, so each distinct word is mapped once for as
    long as the dict lives. Threads may share one: two threads that miss
    the same word at once both store the one form it maps to."""

    def __init__(self, res: LanguageResources):
        super().__init__()
        self.res = res

    def __missing__(self, word: str) -> str:
        stopwords = self.res.stopwords
        form = ""
        if not (_NUMERIC_RE.fullmatch(word) or word in stopwords):
            mapped = _stable_form(word, self.res.lemma_map)
            if not (mapped in stopwords or _NUMERIC_RE.fullmatch(mapped)):
                form = mapped
        self[word] = form
        return form


def normalize(sentence: str, res: LanguageResources) -> list:
    """The sentence's content tokens in order, in normalized form."""
    forms = res._forms
    return [form for _, words in _sentences(sentence)
            for form in map(forms.__getitem__, words) if form]


def build_sentences(cluster: Cluster, res: LanguageResources) -> list:
    """Segment and normalize every document of a cluster.

    Returns SentenceRecords with global_id increasing in (layer_index,
    position_in_doc) order, as a Cluster holds its documents in layer
    order. Raises DegenerateCluster when no sentence
    carries any content token. Each distinct token is normalized once for
    as long as res lives, through res's word-form table: once per process
    per language for load_resources' shared objects.
    """
    forms = res._forms
    records = []
    for doc in cluster.documents:
        for position, (sentence, words) in enumerate(
                _sentences(doc.raw_text)):
            records.append(SentenceRecord(
                len(records), doc.id, doc.layer_index, position, sentence,
                tuple(filter(None, map(forms.__getitem__, words)))))
    if not any(rec.tokens for rec in records):
        raise DegenerateCluster(
            f"cluster {cluster.id}: every sentence normalized to nothing")
    return records
