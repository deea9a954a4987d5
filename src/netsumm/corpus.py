"""Corpus loading.

Layout: ``<corpus>/<cluster-id>/{manifest, docs/*.txt, refs/*.txt}``. The
manifest is flat ``key = value`` text; required key ``budget`` with value
``words:N``, ``chars:N`` or ``compression:0.NN``; optional key ``language``
(``en`` or ``pt``, default ``en``). Files are UTF-8, strictly decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ClusterTooSmall, CorpusFormatError, EmptyCorpus

SUPPORTED_LANGUAGES = ("en", "pt")
_BUDGET_KINDS = ("words", "chars", "compression")


@dataclass(frozen=True)
class Document:
    id: str
    raw_text: str
    layer_index: int


@dataclass(frozen=True)
class SummaryBudget:
    """Summary length limit: word count, character count, or compression rate.

    A compression rate c in (0, 1) keeps a (1 - c) share of the cluster's
    words; a word or character count is a finite integer >= 1, given as an
    int or an integral float.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in _BUDGET_KINDS:
            raise CorpusFormatError(f"unknown budget kind {self.kind!r}")
        if self.kind == "compression":
            if not 0 < self.value < 1:
                raise CorpusFormatError(
                    f"compression rate must be in (0,1), got {self.value}")
        elif not (self.value >= 1 and self.value % 1 == 0):  # nan, inf fail
            raise CorpusFormatError(f"{self.kind} budget must be a finite "
                                    f"integer >= 1, got {self.value}")


@dataclass(frozen=True)
class Cluster:
    id: str
    documents: tuple
    references: tuple
    budget: SummaryBudget
    language: str = "en"


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path} is not valid UTF-8: {exc}") from None


def parse_manifest(text: str, origin: str = "manifest") -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CorpusFormatError(
                f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise CorpusFormatError(
                f"{origin}:{lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise CorpusFormatError(f"{origin}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_budget(value: str) -> SummaryBudget:
    if ":" not in value:
        raise CorpusFormatError(
            f"budget must look like 'words:200', got {value!r}")
    kind, _, amount = value.partition(":")
    kind = kind.strip()
    try:
        num = float(amount)
    except ValueError:
        raise CorpusFormatError(f"budget value {amount!r} is not a number") \
            from None
    return SummaryBudget(kind, num)


def load_cluster(path) -> Cluster:
    """Load one cluster directory.

    Documents are ordered by file name; layer_index follows that order.
    Raises CorpusFormatError / ClusterTooSmall on layout violations and
    OSError on plain I/O failure.
    """
    root = Path(path)
    if not root.is_dir():
        raise CorpusFormatError(f"cluster path {root} is not a directory")
    manifest_path = root / "manifest"
    if not manifest_path.is_file():
        raise CorpusFormatError(f"{root} has no manifest file")
    entries = parse_manifest(_read_text(manifest_path), str(manifest_path))
    unknown = set(entries) - {"budget", "language"}
    if unknown:
        raise CorpusFormatError(
            f"{manifest_path}: unknown manifest keys {sorted(unknown)}")
    if "budget" not in entries:
        raise CorpusFormatError(f"{manifest_path}: missing 'budget' entry")
    budget = parse_budget(entries["budget"])
    language = entries.get("language", "en")
    if language not in SUPPORTED_LANGUAGES:
        raise CorpusFormatError(
            f"{manifest_path}: unsupported language {language!r}")

    docs_dir = root / "docs"
    if not docs_dir.is_dir():
        raise CorpusFormatError(f"{root} has no docs/ directory")
    doc_files = sorted(p for p in docs_dir.iterdir() if p.is_file())
    if len(doc_files) < 2:
        raise ClusterTooSmall(
            f"{root}: found {len(doc_files)} document(s), need at least 2")
    documents = []
    for layer, doc_path in enumerate(doc_files):
        text = _read_text(doc_path)
        if not text.strip():
            raise CorpusFormatError(f"{doc_path} is empty")
        documents.append(Document(doc_path.stem, text, layer))

    refs_dir = root / "refs"
    references = []
    if refs_dir.is_dir():
        for ref_path in sorted(p for p in refs_dir.iterdir() if p.is_file()):
            references.append(_read_text(ref_path))

    return Cluster(root.name, tuple(documents), tuple(references),
                   budget, language)


def load_corpus(path) -> list:
    """Load every cluster subdirectory, sorted by cluster id."""
    root = Path(path)
    if not root.is_dir():
        raise CorpusFormatError(f"corpus path {root} is not a directory")
    cluster_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not cluster_dirs:
        raise EmptyCorpus(f"no cluster directories under {root}")
    return [load_cluster(p) for p in cluster_dirs]
