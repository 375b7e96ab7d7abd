"""Document ingestion and rule-based sentence segmentation.

Two input formats are supported: one UTF-8 plain-text file per document,
and the MRQA 2019 shared-task layout (gzipped JSON Lines with a header
line and one context record per line). Segmentation is deterministic and
dependency-free; spans are UTF-8 byte offsets into the document text.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .offsets import ByteOffsets

PLAIN_TEXT = "plain_text"
MRQA_JSONL = "mrqa_jsonl"
FORMATS = (PLAIN_TEXT, MRQA_JSONL)

ORIGIN_CORPUS = "corpus"
ORIGIN_RETRIEVED = "retrieved"

# Tokens (casefolded, trailing period included) that never end a sentence.
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "hon.", "sr.", "jr.",
        "st.", "no.", "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.", "fig.",
        "figs.", "eq.", "sec.", "inc.", "ltd.", "co.", "corp.", "dept.",
        "mt.", "ft.", "approx.", "u.s.", "u.k.", "a.m.", "p.m.",
        "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.",
    }
)

_TERMINALS = frozenset(".!?")


@dataclass(frozen=True)
class Document:
    doc_id: str
    dataset_id: str
    text: str
    source_path: str


@dataclass(frozen=True)
class Sentence:
    sentence_id: int
    doc_id: str
    char_span: tuple[int, int]  # byte offsets into the document text
    text: str
    origin: str = ORIGIN_CORPUS


def ingest(
    paths: list[str] | tuple[str, ...],
    format: str,
    dataset_id: str = "",
    dedup_contexts: bool = False,
) -> list[Document]:
    """Read documents from `paths` in the declared format.

    Plain text yields one document per file (doc_id = file basename);
    MRQA yields one document per context record (doc_id = basename#index).
    Duplicate doc_ids and empty texts are rejected.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown input format {format!r}; expected one of {FORMATS}")
    docs: list[Document] = []
    seen_ids: set[str] = set()
    seen_texts: set[str] = set()
    for path in paths:
        if format == PLAIN_TEXT:
            new = [_read_plain(path, dataset_id)]
        else:
            new = _read_mrqa(path, dataset_id)
        for doc in new:
            if dedup_contexts:
                if doc.text in seen_texts:
                    continue
                seen_texts.add(doc.text)
            if doc.doc_id in seen_ids:
                raise ValidationError(f"duplicate doc_id {doc.doc_id!r} (from {path})")
            seen_ids.add(doc.doc_id)
            docs.append(doc)
    return docs


def _read_plain(path: str, dataset_id: str) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise ValidationError(f"document {path} is empty after whitespace normalization")
    return Document(
        doc_id=os.path.basename(path),
        dataset_id=dataset_id,
        text=text,
        source_path=path,
    )


def _read_mrqa(path: str, dataset_id: str) -> list[Document]:
    base = os.path.basename(path)
    docs: list[Document] = []
    index = 0
    with open(path, "rb") as raw:
        magic = raw.read(2)
    opener = gzip.open if magic == b"\x1f\x8b" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith('{"header"'):
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(record, dict) or "context" not in record:
                raise ParseError(f"{path}:{lineno}: record is missing the 'context' field")
            context = record["context"]
            if not isinstance(context, str):
                raise ParseError(f"{path}:{lineno}: 'context' is not a string")
            if not context.strip():
                raise ValidationError(
                    f"{path}:{lineno}: context is empty after whitespace normalization"
                )
            docs.append(
                Document(
                    doc_id=f"{base}#{index}",
                    dataset_id=dataset_id,
                    text=context,
                    source_path=path,
                )
            )
            index += 1
    return docs


def _is_abbreviation(text: str, dot_index: int, abbreviations: frozenset[str]) -> bool:
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    token = text[start : dot_index + 1]
    return token.casefold() in abbreviations


def _raw_char_spans(text: str, abbreviations: frozenset[str]) -> list[tuple[int, int]]:
    """Candidate sentence spans (code-point offsets), pre-trimming.

    A boundary sits after . ! or ? when followed by whitespace and then
    an uppercase letter or digit, unless the terminal closes a listed
    abbreviation.
    """
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in _TERMINALS and i + 1 < n and text[i + 1].isspace():
            k = i + 1
            while k < n and text[k].isspace():
                k += 1
            if k < n and (text[k].isupper() or text[k].isdigit()):
                if not (ch == "." and _is_abbreviation(text, i, abbreviations)):
                    spans.append((start, i + 1))
                    start = k
                    i = k
                    continue
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def segment_sentences(
    doc: Document,
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
    start_id: int = 0,
) -> list[Sentence]:
    """Split a document into sentences with byte spans into its text."""
    text = doc.text
    offsets = ByteOffsets(text)
    sentences: list[Sentence] = []
    next_id = start_id
    for cs, ce in _raw_char_spans(text, abbreviations):
        while cs < ce and text[cs].isspace():
            cs += 1
        while ce > cs and text[ce - 1].isspace():
            ce -= 1
        if ce <= cs:
            continue
        sentences.append(
            Sentence(
                sentence_id=next_id,
                doc_id=doc.doc_id,
                char_span=offsets.byte_span(cs, ce),
                text=text[cs:ce],
                origin=ORIGIN_CORPUS,
            )
        )
        next_id += 1
    return sentences


def segment_corpus(
    documents: list[Document],
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
) -> list[Sentence]:
    """Segment all documents, assigning dense corpus-global sentence ids.

    Documents are processed in lexicographic doc_id order so re-ingesting
    the same inputs yields the same sentence table byte for byte.
    """
    sentences: list[Sentence] = []
    for doc in sorted(documents, key=lambda d: d.doc_id):
        sentences.extend(segment_sentences(doc, abbreviations, start_id=len(sentences)))
    return sentences


def load_abbreviations(path: str) -> frozenset[str]:
    """One abbreviation per line ('#' starts a comment); casefolded."""
    entries: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            entries.add(token.casefold())
    return frozenset(entries)
