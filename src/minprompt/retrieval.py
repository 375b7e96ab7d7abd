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

from .corpus import Sentence
from .entities import EntityMention
from .errors import ValidationError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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

    Sentences that tokenize to nothing are left unindexed and can never be
    retrieved.
    """

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_freq: dict[str, int] = {}
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.lengths: dict[int, int] = {}
        self.avg_len: float = 0.0
        self.sentences: list[Sentence] = []
        self.keys: dict[int, frozenset[str]] = {}

    @property
    def indexed_count(self) -> int:
        return len(self.lengths)

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term)
        if df is None:
            return 0.0
        n = self.indexed_count
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)


def build_index(
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]] | None = None,
    k1: float = 1.2,
    b: float = 0.75,
) -> Bm25Index:
    """Index sentences (ids must be dense 0..N-1) with their entity keys."""
    index = Bm25Index(k1=k1, b=b)
    index.sentences = list(sentences)
    mentions = mentions or {}
    total = 0
    for sentence in sentences:
        sid = sentence.sentence_id
        if sid != len(index.keys):
            raise ValidationError("support sentence ids must be dense 0..N-1")
        index.keys[sid] = frozenset(
            m.normalized_key for m in mentions.get(sid, ())
        )
        tokens = tokenize(sentence.text)
        if not tokens:
            continue
        index.lengths[sid] = len(tokens)
        total += len(tokens)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in sorted(counts.items()):
            index.postings.setdefault(term, []).append((sid, tf))
            index.doc_freq[term] = index.doc_freq.get(term, 0) + 1
    index.avg_len = total / len(index.lengths) if index.lengths else 0.0
    return index


def bm25_score(index: Bm25Index, query_tokens: list[str], sentence_id: int) -> float:
    """Score one indexed sentence against the query tokens."""
    length = index.lengths.get(sentence_id)
    if length is None:
        raise ValidationError(f"sentence {sentence_id} is not indexed")
    norm = index.k1 * (1.0 - index.b + index.b * length / index.avg_len)
    score = 0.0
    for term in query_tokens:
        tf = 0
        for sid, freq in index.postings.get(term, ()):
            if sid == sentence_id:
                tf = freq
                break
        if tf == 0:
            continue
        score += index.idf(term) * (tf * (index.k1 + 1.0)) / (tf + norm)
    return score


def rank(
    index: Bm25Index, query_tokens: list[str], limit: int | None = None
) -> list[tuple[int, float]]:
    """All indexed sentences by descending score, ties by ascending id.

    Zero-score sentences follow the scored ones in ascending id order, so
    the ordering equals a full sort by (-score, id).
    """
    scores: dict[int, float] = {}
    for term in query_tokens:
        idf = index.idf(term)
        if idf == 0.0:
            continue
        for sid, tf in index.postings.get(term, ()):
            norm = index.k1 * (
                1.0 - index.b + index.b * index.lengths[sid] / index.avg_len
            )
            scores[sid] = scores.get(sid, 0.0) + idf * (tf * (index.k1 + 1.0)) / (
                tf + norm
            )
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    if limit is None or len(ordered) < limit:
        tail = [
            (sid, 0.0) for sid in sorted(index.lengths) if sid not in scores
        ]
        ordered.extend(tail)
    return ordered if limit is None else ordered[:limit]


def retrieve_support_sentence(
    index: Bm25Index,
    query_sentence: Sentence,
    answer: EntityMention,
    context_entities: frozenset[str] | set[str],
    constraints: RetrievalConstraints = RetrievalConstraints(),
    query_keys: frozenset[str] | set[str] = frozenset(),
    top_k: int = 50,
) -> Sentence | None:
    """Best-ranked support sentence satisfying every enabled constraint.

    Only the top_k ranked candidates are considered. Returns None when no
    candidate qualifies; absence is a value, not an error.
    """
    query_tokens = tokenize(query_sentence.text)
    shared_pool = frozenset(query_keys) | frozenset(context_entities)
    for sid, _score in rank(index, query_tokens, limit=top_k):
        candidate = index.sentences[sid]
        keys = index.keys[sid]
        if constraints.require_answer_entity and answer.normalized_key not in keys:
            continue
        if constraints.exclude_source_context and candidate.doc_id == query_sentence.doc_id:
            continue
        extra = (keys & shared_pool) - {answer.normalized_key}
        if len(extra) < constraints.min_extra_shared_entities:
            continue
        if candidate.text == query_sentence.text:
            continue
        return candidate
    return None

