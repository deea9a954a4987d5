"""Seeded synthetic corpora in the netsumm corpus layout, with no download.

Two cluster shapes stand in for the paper's data sets until real data is in
the repository:

- CST: a CSTNews-like Portuguese cluster, few short documents on one story,
  dense topic overlap, compression-rate budget, one reference summary;
- DUC: a DUC-like English cluster, ten longer documents, looser overlap, a
  100-word budget, two reference summaries.

The content vocabulary is a fixed list of pseudo-words (the same for every
seed), so a seed only changes which words and sentences a cluster draws.
Document and sentence counts are exact, so work per cluster varies little
from seed to seed. A share of sentences repeats a sentence of another
document with one word changed, as news clusters do, so anti-redundancy has
something to remove.
"""

from __future__ import annotations

import functools
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

FUNCTION_WORDS = {
    "en": ("the", "of", "and", "to", "in", "a", "was", "for", "on", "with",
           "by", "at", "from", "that", "its", "were", "has", "after"),
    "pt": ("de", "a", "o", "que", "e", "do", "da", "em", "um", "para",
           "com", "uma", "os", "no", "na", "por", "mais", "as"),
}
_ONSETS = {
    "en": ("b", "br", "c", "cl", "d", "dr", "f", "g", "gr", "h", "k", "l",
           "m", "n", "p", "pl", "r", "s", "st", "t", "tr", "v", "w"),
    "pt": ("b", "br", "c", "d", "f", "g", "j", "l", "lh", "m", "n", "nh",
           "p", "pr", "r", "s", "t", "tr", "v", "z"),
}
_VOWELS = {"en": ("a", "e", "i", "o", "u", "ea", "oo"),
           "pt": ("a", "e", "i", "o", "u", "á", "é", "ó", "ã", "ê")}
_CODAS = {"en": ("", "n", "r", "t", "ck", "nd", "ll"),
          "pt": ("", "", "r", "l", "ção", "ões", "m")}
VOCAB_SIZE = 4000


@dataclass(frozen=True)
class Shape:
    """Size and overlap of one generated cluster."""

    language: str
    docs: int
    sentences: int          # per document, exact
    content_words: tuple    # (min, max) content words per sentence
    topic_words: int        # story vocabulary shared by all documents
    doc_words: int          # vocabulary private to each document
    p_topic: float          # share of content words drawn from the story
    p_doc: float            # share drawn from the document's own words
    p_repeat: float         # share of sentences echoing another document
    density: float          # share of sentence pairs sharing a content word
    budget: str
    references: int
    ref_sentences: int


CST = Shape("pt", docs=3, sentences=10, content_words=(5, 10),
            topic_words=45, doc_words=40, p_topic=0.6, p_doc=0.25,
            p_repeat=0.12, density=0.70, budget="compression:0.7",
            references=1, ref_sentences=6)
DUC = Shape("en", docs=10, sentences=25, content_words=(6, 12),
            topic_words=120, doc_words=60, p_topic=0.4, p_doc=0.3,
            p_repeat=0.08, density=0.43, budget="words:100", references=2,
            ref_sentences=7)


@functools.lru_cache(maxsize=None)
def vocabulary(language: str) -> tuple:
    """The fixed pseudo-word list of a language (independent of any seed)."""
    rng = random.Random(f"netsumm-bench-vocab-{language}")
    stop = set(FUNCTION_WORDS[language])
    words = []
    seen = set()
    while len(words) < VOCAB_SIZE:
        word = "".join(rng.choice(_ONSETS[language]) + rng.choice(
            _VOWELS[language]) for _ in range(rng.randint(2, 3)))
        word += rng.choice(_CODAS[language])
        if word not in seen and word not in stop:
            seen.add(word)
            words.append(word)
    return tuple(words)


# rank-1/k weights, so a few story words recur in many sentences
_ZIPF = [1.0 / k for k in range(1, VOCAB_SIZE + 1)]


def _zipf_choice(rng: random.Random, pool: list) -> str:
    return rng.choices(pool, weights=_ZIPF[:len(pool)])[0]


def _sentence(rng: random.Random, shape: Shape, topic: list, own: list,
              vocab: tuple) -> list:
    words = []
    fillers = FUNCTION_WORDS[shape.language]
    for k in range(rng.randint(*shape.content_words)):
        if k and rng.random() < 0.6:
            words.append(rng.choice(fillers))
        draw = rng.random()
        if draw < shape.p_topic:
            words.append(_zipf_choice(rng, topic))
        elif draw < shape.p_topic + shape.p_doc:
            words.append(rng.choice(own))
        else:
            words.append(rng.choice(vocab))
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words) + 1), str(rng.randint(2, 2016)))
    return words


def _render(words: list) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


@dataclass(frozen=True)
class GeneratedCluster:
    id: str
    language: str
    documents: tuple    # one text per document
    references: tuple
    budget: str

    def write(self, root: Path) -> Path:
        """Write the cluster under root/<id>/ in the netsumm layout."""
        path = root / self.id
        (path / "docs").mkdir(parents=True)
        (path / "refs").mkdir()
        (path / "manifest").write_text(
            f"budget = {self.budget}\nlanguage = {self.language}\n", "utf-8")
        for k, text in enumerate(self.documents, start=1):
            (path / "docs" / f"d{k:02d}.txt").write_text(text, "utf-8")
        for k, text in enumerate(self.references, start=1):
            (path / "refs" / f"r{k}.txt").write_text(text, "utf-8")
        return path

    def total_words(self) -> int:
        return sum(len(text.split()) for text in self.documents)


def _fold(word: str) -> str:
    decomposed = unicodedata.normalize("NFKD", word.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def _pair_density(docs: list, fillers: tuple) -> float:
    """Share of sentence pairs sharing a content word, by the generator's
    own word lists (folded, numbers and function words left out)."""
    bags = [frozenset(_fold(w) for w in s if w not in fillers
                      and not w.isdigit()) for doc in docs for s in doc]
    n = len(bags)
    linked = sum(1 for i in range(n) for j in range(i + 1, n)
                 if not bags[i].isdisjoint(bags[j]))
    return linked / (n * (n - 1) / 2)


def make_cluster(shape: Shape, seed: int, cluster_id: str) -> GeneratedCluster:
    """One cluster of the given shape; the same (shape, seed, id) always
    gives the same text.

    Drafts are drawn until one has a pair density within 1% of the
    shape's (or within one pair, for tiny clusters), so the work a cluster
    makes varies little between seeds. The density is the generator's own,
    never netsumm's, so the inputs do not depend on the program they
    measure.
    """
    n = shape.docs * shape.sentences
    tolerance = max(0.01 * shape.density, 2 / (n * (n - 1)))
    for attempt in range(1000):
        rng = random.Random(f"{seed}:{cluster_id}:{shape.language}:{attempt}")
        docs, topic = _draft(rng, shape)
        if abs(_pair_density(docs, FUNCTION_WORDS[shape.language])
               - shape.density) <= tolerance:
            break
    else:
        raise ValueError(f"no draft of {cluster_id} reached density "
                         f"{shape.density}")
    refs = []
    for _ in range(shape.references):
        ref = [_sentence(rng, shape, topic, topic, vocabulary(shape.language))
               for _ in range(shape.ref_sentences)]
        refs.append(" ".join(_render(s) for s in ref) + "\n")
    texts = tuple(" ".join(_render(s) for s in doc) + "\n" for doc in docs)
    return GeneratedCluster(cluster_id, shape.language, texts, tuple(refs),
                            shape.budget)


def _draft(rng: random.Random, shape: Shape) -> list:
    vocab = vocabulary(shape.language)
    picked = rng.sample(vocab,
                        shape.topic_words + shape.docs * shape.doc_words)
    topic = picked[:shape.topic_words]
    docs = []
    for d in range(shape.docs):
        start = shape.topic_words + d * shape.doc_words
        own = picked[start:start + shape.doc_words]
        sentences = []
        for _ in range(shape.sentences):
            earlier = [s for doc in docs for s in doc]
            if earlier and rng.random() < shape.p_repeat:
                echo = list(rng.choice(earlier))
                echo[rng.randrange(len(echo))] = rng.choice(own)
                sentences.append(echo)
            else:
                sentences.append(_sentence(rng, shape, topic, own, vocab))
        docs.append(sentences)
    return docs, topic


def describe(cluster_dir: Path) -> dict:
    """Sentence count, vocabulary size, edge count and density of a written
    cluster, computed with netsumm's public functions."""
    from netsumm import (build, build_sentences, fit, load_cluster,
                         load_resources, vectorize)

    cluster = load_cluster(cluster_dir)
    records = build_sentences(cluster, load_resources(cluster.language))
    model = fit(records, len(cluster.documents))
    g = build([vectorize(rec, model) for rec in records],
              [rec.layer_index for rec in records])
    n = len(records)
    return {"sentences": n, "vocab": len(model.vocabulary),
            "edges": len(g.edges),
            "density": round(len(g.edges) / (n * (n - 1) / 2), 4)}
