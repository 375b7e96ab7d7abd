"""Document ingestion and rule-based sentence segmentation.

Two input formats are supported: one UTF-8 plain-text file per document,
and the MRQA 2019 shared-task layout (gzipped JSON Lines with a header
line and one context record per line). Segmentation is deterministic and
dependency-free; spans are UTF-8 byte offsets into the document text.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import ValidationError
from .fileio import Field, check_record, iter_lines, parse_json, read_text
from .offsets import byte_spans

PLAIN_TEXT = "plain_text"
MRQA_JSONL = "mrqa_jsonl"
FORMATS = (PLAIN_TEXT, MRQA_JSONL)

ORIGIN_CORPUS = "corpus"
ORIGIN_RETRIEVED = "retrieved"
ORIGINS = (ORIGIN_CORPUS, ORIGIN_RETRIEVED)

# an MRQA context line; its other keys (qas, tokens) are not read
MRQA_CONTEXT = {"context": Field(str, lambda v, r: v.strip() != "", "non-blank text")}

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

# a sentence terminal and the whitespace run after it; `\s` is str.isspace()
_TERMINAL_RE = re.compile(r"[.!?]\s+")


# no slots: write_documents reads a Document's fields through vars()
@dataclass(frozen=True)
class Document:
    doc_id: str
    dataset_id: str
    text: str


# slotted, as is entities.EntityMention: a run holds thousands of each
@dataclass(frozen=True, slots=True)
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
    text = read_text(path)
    if not text.strip():
        raise ValidationError(f"document {path} is empty after whitespace normalization")
    return Document(doc_id=os.path.basename(path), dataset_id=dataset_id, text=text)


def _read_mrqa(path: str, dataset_id: str) -> list[Document]:
    base = os.path.basename(path)
    docs: list[Document] = []
    for lineno, line in iter_lines(path, allow_gzip=True):
        if line.startswith('{"header"'):
            continue
        record = check_record(parse_json(line, path, lineno), MRQA_CONTEXT, f"{path}:{lineno}")
        docs.append(
            Document(doc_id=f"{base}#{len(docs)}", dataset_id=dataset_id, text=record["context"])
        )
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
    for match in _TERMINAL_RE.finditer(text):
        k = match.end()
        if k < n and (text[k].isupper() or text[k].isdigit()):
            i = match.start()
            if not (text[i] == "." and _is_abbreviation(text, i, abbreviations)):
                spans.append((start, i + 1))
                start = k
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
    spans: list[tuple[int, int]] = []
    for cs, ce in _raw_char_spans(text, abbreviations):
        while cs < ce and text[cs].isspace():
            cs += 1
        while ce > cs and text[ce - 1].isspace():
            ce -= 1
        if cs < ce:
            spans.append((cs, ce))
    return [
        Sentence(
            sentence_id=start_id + i,
            doc_id=doc.doc_id,
            char_span=byte_span,
            text=text[cs:ce],
            origin=ORIGIN_CORPUS,
        )
        for i, ((cs, ce), byte_span) in enumerate(zip(spans, byte_spans(text, spans)))
    ]


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
    return frozenset(token.casefold() for _, token in iter_lines(path, comments=True))
