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
from typing import NamedTuple

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


class Bm25Index(NamedTuple):
    """Inverted index over support sentences, with per-sentence entity keys.

    - sentences: the indexed sentences, ids dense 0..N-1;
    - keys[sid]: the normalized entity keys of sentence sid's mentions;
    - indexed_ids: the ascending ids of the sentences holding a token;
      a sentence that tokenizes to nothing is never ranked;
    - terms, indptr, posting_ids, posting_weights: the postings, stored
      CSR-style. terms maps a term to its row, and row r's postings are
      posting_ids / posting_weights[indptr[r]:indptr[r + 1]], the ascending
      ids of the sentences holding the term and its BM25 weight in each.
    """

    sentences: list[Sentence]
    keys: list[frozenset[str]]
    indexed_ids: np.ndarray
    terms: dict[str, int]
    indptr: np.ndarray
    posting_ids: np.ndarray
    posting_weights: np.ndarray


def build_index(
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]] | None = None,
) -> Bm25Index:
    """Index sentences (ids must be dense 0..N-1) with their entity keys.

    A posting's weight is idf * tf * (K1 + 1) / (tf + norm), with
    norm = K1 * (1 - B + B * length / avg_len), evaluated in that order so
    that a query's score is the same float a per-posting loop would add up.
    """
    mentions = mentions or {}
    keys: list[frozenset[str]] = []
    lengths: list[int] = []
    token_rows: list[int] = []  # each token's term row, sentence by sentence
    terms: dict[str, int] = {}
    for sentence in sentences:
        sid = sentence.sentence_id
        if sid != len(keys):
            raise ValidationError("support sentence ids must be dense 0..N-1")
        keys.append(frozenset(m.normalized_key for m in mentions.get(sid, ())))
        tokens = tokenize(sentence.text)
        lengths.append(len(tokens))
        token_rows.extend([terms.setdefault(term, len(terms)) for term in tokens])
    length_array = np.array(lengths, dtype=np.int64)
    indexed_ids = np.flatnonzero(length_array)
    n = indexed_ids.size
    # with nothing indexed there is no posting to weigh
    avg_len = sum(lengths) / n if n else 1.0
    # one code row * N + id per token; sorted and counted, each distinct code
    # is a posting, rows in order with ascending ids, its count the term's tf
    width = max(len(keys), 1)
    codes = np.array(token_rows, dtype=np.int64) * width
    del token_rows
    codes += np.repeat(np.arange(len(keys), dtype=np.int64), length_array)
    codes, counts = np.unique(codes, return_counts=True)
    rows, posting_ids = np.divmod(codes, width)
    doc_freq = np.bincount(rows, minlength=len(terms))
    tf = counts.astype(np.float64)
    idf = np.array([math.log((n - df + 0.5) / (df + 0.5) + 1.0) for df in doc_freq.tolist()])
    norm = K1 * (1.0 - B + B * length_array / avg_len)
    weights = idf[rows] * (tf * (K1 + 1.0)) / (tf + norm[posting_ids])
    indptr = np.concatenate(([0], np.cumsum(doc_freq)))
    return Bm25Index(list(sentences), keys, indexed_ids, terms, indptr, posting_ids, weights)


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
        row = index.terms.get(term)
        if row is not None:
            lo, hi = index.indptr[row], index.indptr[row + 1]
            scores[index.posting_ids[lo:hi]] += index.posting_weights[lo:hi]
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

