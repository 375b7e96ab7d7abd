"""Built-in BM25 index and constrained support-sentence retrieval.

The index replaces an external search engine: sentences are tokenized by
lowercasing and splitting on non-alphanumeric characters, scored with
BM25 (idf = ln((N - df + 0.5) / (df + 0.5) + 1)), and candidates are
filtered by the support-sentence constraints: the candidate must contain
the answer entity, must come from a different document, must share at
least one additional entity with the query side, and must not be the
query sentence verbatim.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .entities import EntityMention
from .errors import ValidationError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# BM25 term-frequency saturation and document-length normalization
K1 = 1.2
B = 0.75


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric, drop empty tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RetrievalConstraints:
    require_answer_entity: bool = True
    exclude_source_context: bool = True
    min_extra_shared_entities: int = 1

    def __post_init__(self):
        if self.min_extra_shared_entities < 0:
            raise ValidationError("min_extra_shared_entities must be >= 0")


class Bm25Index:
    """Inverted index over support sentences, with per-sentence entity keys.

    The postings are stored CSR-style: `terms` maps a term to its row, and
    row r's postings are posting_ids / posting_weights[indptr[r]:indptr[r + 1]],
    the ascending ids of the sentences holding the term and the term's BM25
    weight in each. Sentences that tokenize to nothing are left unindexed
    (length 0) and can never be retrieved.
    """

    def __init__(self):
        self.sentences: list[Sentence] = []
        self.keys: dict[int, frozenset[str]] = {}
        self.lengths = np.zeros(0, dtype=np.int64)  # tokens per sentence id
        self.indexed_ids = np.zeros(0, dtype=np.int64)  # ids with length > 0, ascending
        self.avg_len: float = 0.0
        self.terms: dict[str, int] = {}
        self.indptr = np.zeros(1, dtype=np.int64)
        self.posting_ids = np.zeros(0, dtype=np.int64)
        self.posting_weights = np.zeros(0, dtype=np.float64)

    @property
    def indexed_count(self) -> int:
        return int(self.indexed_ids.size)

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(sentence ids, BM25 weights) of the term; empty when it is absent."""
        row = self.terms.get(term)
        if row is None:
            return self.posting_ids[:0], self.posting_weights[:0]
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return self.posting_ids[lo:hi], self.posting_weights[lo:hi]


def build_index(
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]] | None = None,
) -> Bm25Index:
    """Index sentences (ids must be dense 0..N-1) with their entity keys.

    A posting's weight is idf * tf * (K1 + 1) / (tf + norm), with
    norm = K1 * (1 - B + B * length / avg_len), evaluated in that order so
    that a query's score is the same float a per-posting loop would add up.
    """
    index = Bm25Index()
    index.sentences = list(sentences)
    mentions = mentions or {}
    lengths: list[int] = []
    rows: list[int] = []  # one entry per (term, sentence) posting
    ids: list[int] = []
    tfs: list[int] = []
    terms = index.terms
    for sentence in sentences:
        sid = sentence.sentence_id
        if sid != len(index.keys):
            raise ValidationError("support sentence ids must be dense 0..N-1")
        index.keys[sid] = frozenset(
            m.normalized_key for m in mentions.get(sid, ())
        )
        tokens = tokenize(sentence.text)
        lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            rows.append(terms.setdefault(term, len(terms)))
            ids.append(sid)
            tfs.append(tf)
    index.lengths = np.array(lengths, dtype=np.int64)
    index.indexed_ids = np.flatnonzero(index.lengths)
    n = index.indexed_count
    index.avg_len = sum(lengths) / n if n else 0.0
    if not rows:
        return index
    # Sentences were visited in id order, so a stable sort by row keeps each
    # row's ids ascending.
    row_array = np.array(rows, dtype=np.int64)
    order = np.argsort(row_array, kind="stable")
    doc_freq = np.bincount(row_array, minlength=len(terms))
    index.indptr = np.concatenate(([0], np.cumsum(doc_freq)))
    index.posting_ids = np.array(ids, dtype=np.int64)[order]
    tf = np.array(tfs, dtype=np.float64)[order]
    idf = np.array(
        [math.log((n - df + 0.5) / (df + 0.5) + 1.0) for df in doc_freq.tolist()]
    )
    norm = K1 * (1.0 - B + B * index.lengths / index.avg_len)
    index.posting_weights = (
        idf[row_array[order]] * (tf * (K1 + 1.0)) / (tf + norm[index.posting_ids])
    )
    return index


def rank(
    index: Bm25Index, query_tokens: list[str], limit: int | None = None
) -> list[tuple[int, float]]:
    """All indexed sentences by descending score, ties by ascending id.

    BM25 weights are positive, so the sentences sharing no query term are
    exactly the zero-score ones, and they follow the others in id order.
    Each query token adds its weights in query order, duplicates included.
    """
    scores = np.zeros(len(index.sentences))
    for term in query_tokens:
        ids, weights = index.postings(term)
        scores[ids] += weights
    ids = index.indexed_ids  # ascending, so stable sorts break ties by id
    negated = -scores[ids]
    if limit is not None and limit < ids.size:
        # only ids scoring at least the limit-th best can make the cut
        cutoff = np.partition(negated, limit - 1)[limit - 1]
        keep = np.flatnonzero(negated <= cutoff)
        ids, negated = ids[keep], negated[keep]
    order = np.argsort(negated, kind="stable")[:limit]
    return list(zip(ids[order].tolist(), (-negated[order]).tolist()))


def retrieve_support_sentence(
    index: Bm25Index,
    query_sentence: Sentence,
    answer: EntityMention,
    context_entities: frozenset[str] | set[str],
    ranking: list[tuple[int, float]],
    constraints: RetrievalConstraints = RetrievalConstraints(),
) -> Sentence | None:
    """Best-ranked support sentence satisfying every enabled constraint.

    Only `ranking`'s candidates are considered, in order: the caller's
    rank(index, tokenize(query_sentence.text), limit=top_k), which depends on
    the query sentence only, so all of its answers share it. Returns None
    when no candidate qualifies; absence is a value, not an error.
    """
    for sid, _score in ranking:
        candidate = index.sentences[sid]
        keys = index.keys[sid]
        if constraints.require_answer_entity and answer.normalized_key not in keys:
            continue
        if constraints.exclude_source_context and candidate.doc_id == query_sentence.doc_id:
            continue
        # an intersection walks the smaller set: the candidate's keys, not
        # the whole document's
        extra = (keys & context_entities) - {answer.normalized_key}
        if len(extra) < constraints.min_extra_shared_entities:
            continue
        if candidate.text == query_sentence.text:
            continue
        return candidate
    return None

