"""Independent reference implementations used as test oracles.

Everything here works on an explicit adjacency matrix or plain dicts and
deliberately avoids the package's posting-list code paths, so agreement
between the two is meaningful.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import re
from collections import Counter

import numpy as np

from minprompt.corpus import _is_abbreviation
from minprompt.entities import (
    _MONTHS,
    _NUMBER_WORDS,
    _SRC_CAPRUN,
    _SRC_GAZETTEER,
    _SRC_PATTERN,
    EntityMention,
    _on_token_boundary,
    normalize_key,
)
from minprompt.errors import ValidationError
from minprompt.retrieval import B, K1, rank, tokenize

_BRUTE_FORCE_LIMIT = 25


def matrix_from_postings(n: int, postings: dict[str, list[int]]) -> list[list[bool]]:
    adj = [[False] * n for _ in range(n)]
    for members in postings.values():
        unique = sorted(set(members))
        for i, u in enumerate(unique):
            for v in unique[i + 1 :]:
                adj[u][v] = adj[v][u] = True
    return adj


def matrix_degrees(adj: list[list[bool]]) -> list[int]:
    return [sum(row) for row in adj]


def matrix_edge_count(adj: list[list[bool]]) -> int:
    return sum(matrix_degrees(adj)) // 2


def matrix_neighbors(adj: list[list[bool]], v: int) -> list[int]:
    return [u for u, flag in enumerate(adj[v]) if flag]


def graph_neighbors(graph, v: int) -> list[int]:
    """The neighbors of v in a SentenceGraph, ascending, from its closed
    neighborhood; their count must be the graph's cached degree of v."""
    closed = graph.closed_neighborhood(v)
    neighbors = closed[closed != v].tolist()
    assert len(neighbors) == graph.cached_degrees[v], f"node {v}: degree disagrees"
    return neighbors


def matrix_is_dominating(adj: list[list[bool]], candidate) -> bool:
    chosen = set(candidate)
    n = len(adj)
    for v in range(n):
        if v in chosen:
            continue
        if not any(u in chosen for u in matrix_neighbors(adj, v)):
            return False
    return True


def reference_greedy(adj: list[list[bool]]) -> list[int]:
    """Residual-degree greedy over the matrix, smallest id on ties.

    Coded independently of the heap implementation: a full scan picks the
    maximum each round.
    """
    n = len(adj)
    covered = [False] * n
    candidate = [True] * n
    selected: list[int] = []
    while any(candidate):
        best, best_deg = -1, -1
        for v in range(n):
            if not candidate[v]:
                continue
            residual = sum(
                1 for u in matrix_neighbors(adj, v) if not covered[u]
            )
            if residual > best_deg:
                best, best_deg = v, residual
        selected.append(best)
        covered[best] = True
        candidate[best] = False
        for u in matrix_neighbors(adj, best):
            covered[u] = True
            candidate[u] = False
    return sorted(selected)


class DictGraph:
    """The posting-list graph as string-keyed dicts: key -> sorted unique
    member array, and per node the sorted tuple of its keys. Degrees come
    from a per-node union loop; the single-key shortcut keeps megacliques
    O(V)."""

    def __init__(self, node_count: int, postings: dict):
        self.node_count = node_count
        self.postings: dict[str, np.ndarray] = {}
        keys_per_node: list[list[str]] = [[] for _ in range(node_count)]
        for key in sorted(postings):
            members = np.unique(np.asarray(postings[key], dtype=np.int64))
            if members.size == 0:
                continue
            self.postings[key] = members
            for sid in members.tolist():
                keys_per_node[sid].append(key)
        self.node_keys = [tuple(sorted(keys)) for keys in keys_per_node]
        self.degrees = np.zeros(node_count, dtype=np.int64)
        for v, keys in enumerate(self.node_keys):
            if keys:
                self.degrees[v] = self.closed_neighborhood(v).size - 1

    def closed_neighborhood(self, v: int) -> np.ndarray:
        keys = self.node_keys[v]
        if not keys:
            return np.array([v], dtype=np.int64)
        if len(keys) == 1:
            return self.postings[keys[0]]
        return np.unique(np.concatenate([self.postings[k] for k in keys]))


def heap_dominating_set(graph: DictGraph, degree_mode: str = "residual") -> dict:
    """Greedy with a lazy max-heap and per-node union loops for the
    residual updates; the same selection rule as domset's bucket queue.

    Returns {"selected": the selected ids, ascending}.
    """
    n = graph.node_count
    postings, node_keys = graph.postings, graph.node_keys
    covered = np.zeros(n, dtype=bool)
    residual = graph.degrees.copy()
    alive = {key: members.size for key, members in postings.items()}
    track_residual = degree_mode == "residual"
    heap = [(-int(d), v) for v, d in enumerate(graph.degrees)]
    heapq.heapify(heap)
    selected: list[int] = []
    while heap:
        neg_priority, v = heapq.heappop(heap)
        if covered[v]:
            continue
        if track_residual and -neg_priority != residual[v]:
            heapq.heappush(heap, (-int(residual[v]), v))
            continue
        selected.append(v)
        closed = graph.closed_neighborhood(v)
        newly = closed[~covered[closed]]
        covered[newly] = True
        for u in newly.tolist():
            for key in node_keys[u]:
                alive[key] -= 1
        if track_residual:
            for u in newly.tolist():
                live = [postings[k] for k in node_keys[u] if alive[k] > 0]
                if not live:
                    continue
                union = live[0] if len(live) == 1 else np.unique(np.concatenate(live))
                targets = union[~covered[union]]
                residual[targets] -= 1
    return {"selected": tuple(sorted(selected))}


def brute_force_dominating_set(graph: SentenceGraph) -> list[int]:
    """Exact minimum dominating set by subset enumeration (V <= 25).

    Subsets are tried in increasing cardinality, lexicographically within
    each cardinality, and the first dominating one is returned.
    """
    n = graph.node_count
    if n > _BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute force limited to {_BRUTE_FORCE_LIMIT} nodes, got {n}"
        )
    closed_masks = []
    for v in range(n):
        mask = 0
        for u in graph.closed_neighborhood(v).tolist():
            mask |= 1 << u
        closed_masks.append(mask)
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for v in combo:
                mask |= closed_masks[v]
            if mask == full:
                return list(combo)
    raise AssertionError("unreachable: the full node set always dominates")


def harmonic(n: int) -> float:
    """H(n) = sum of 1/i for i in 1..n; ln(n) < H(n) <= ln(n) + 1."""
    if n < 1:
        raise ValidationError(f"harmonic number needs n >= 1, got {n}")
    return sum(1.0 / i for i in range(1, n + 1))


def random_postings(
    rng: random.Random, n: int, n_entities: int, max_keys: int = 3
) -> dict[str, list[int]]:
    postings: dict[str, list[int]] = {}
    for v in range(n):
        count = rng.randint(0, min(max_keys, n_entities))
        for key_index in rng.sample(range(n_entities), count):
            postings.setdefault(f"e{key_index}", []).append(v)
    return postings


def gnp_postings(rng: random.Random, n: int, p: float) -> dict[str, list[int]]:
    """G(n, p) encoded as one two-member entity per edge."""
    postings: dict[str, list[int]] = {}
    edge = 0
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                postings[f"edge{edge}"] = [u, v]
                edge += 1
    return postings


def naive_bm25_scores(
    corpus_tokens: list[list[str]], query_tokens: list[str], k1: float = 1.2, b: float = 0.75
) -> list[float]:
    """Direct per-sentence evaluation of the BM25 formula (no index)."""
    indexed = [tokens for tokens in corpus_tokens if tokens]
    n = len(indexed)
    avg_len = sum(len(t) for t in indexed) / n if n else 0.0
    doc_freq: dict[str, int] = {}
    for tokens in corpus_tokens:
        for term in set(tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    scores = []
    for tokens in corpus_tokens:
        if not tokens:
            scores.append(0.0)
            continue
        score = 0.0
        for term in query_tokens:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = doc_freq[term]
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len(tokens) / avg_len))
        scores.append(score)
    return scores


def list_build_index(sentences) -> dict:
    """retrieval.build_index's postings, collected per sentence in Python
    lists (one entry per term and sentence, its Counter count the tf) and
    ordered by a stable argsort on the term row. Same arithmetic, so the
    arrays must match bit for bit."""
    lengths: list[int] = []
    rows: list[int] = []
    ids: list[int] = []
    tfs: list[int] = []
    terms: dict[str, int] = {}
    for sid, sentence in enumerate(sentences):
        tokens = tokenize(sentence.text)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            rows.append(terms.setdefault(term, len(terms)))
            ids.append(sid)
            tfs.append(tf)
    length_array = np.array(lengths, dtype=np.int64)
    indexed_ids = np.flatnonzero(length_array)
    n = indexed_ids.size
    avg_len = sum(lengths) / n if n else 1.0
    # sentences were visited in id order, so a stable sort by row keeps each
    # row's ids ascending
    row_array = np.array(rows, dtype=np.int64)
    order = np.argsort(row_array, kind="stable")
    doc_freq = np.bincount(row_array, minlength=len(terms))
    posting_ids = np.array(ids, dtype=np.int64)[order]
    tf = np.array(tfs, dtype=np.float64)[order]
    idf = np.array([math.log((n - df + 0.5) / (df + 0.5) + 1.0) for df in doc_freq.tolist()])
    norm = K1 * (1.0 - B + B * length_array / avg_len)
    weights = idf[row_array[order]] * (tf * (K1 + 1.0)) / (tf + norm[posting_ids])
    return {
        "terms": terms,
        "indptr": np.concatenate(([0], np.cumsum(doc_freq))),
        "posting_ids": posting_ids,
        "indexed_ids": indexed_ids,
        "posting_weights": weights,
    }


class DictBm25Index:
    """BM25 postings as plain dicts, built the way the index was before it
    moved to numpy arrays: term -> [(sentence id, tf)], term -> df, and
    sentence id -> token count for the sentences that have tokens."""

    def __init__(self, texts: list[str], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_freq: dict[str, int] = {}
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.lengths: dict[int, int] = {}
        total = 0
        for sid, text in enumerate(texts):
            tokens = tokenize(text)
            if not tokens:
                continue
            self.lengths[sid] = len(tokens)
            total += len(tokens)
            counts: dict[str, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            for term, tf in sorted(counts.items()):
                self.postings.setdefault(term, []).append((sid, tf))
                self.doc_freq[term] = self.doc_freq.get(term, 0) + 1
        self.avg_len = total / len(self.lengths) if self.lengths else 0.0

    @classmethod
    def like(cls, index) -> "DictBm25Index":
        """The dict form of a retrieval.Bm25Index, from its sentence texts."""
        return cls([s.text for s in index.sentences], K1, B)

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term)
        if df is None:
            return 0.0
        n = len(self.lengths)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)


def dict_bm25_score(index: DictBm25Index, query_tokens: list[str], sentence_id: int) -> float:
    """Score one indexed sentence against the query tokens."""
    length = index.lengths.get(sentence_id)
    if length is None:
        raise KeyError(f"sentence {sentence_id} is not indexed")
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


def dict_rank(
    index: DictBm25Index, query_tokens: list[str], limit: int | None = None
) -> list[tuple[int, float]]:
    """retrieval.rank as a loop over dict postings and a full sort."""
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


def query_ranking(index, query, top_k: int = 50) -> list[tuple[int, float]]:
    """The ranking retrieve_support_sentence takes for `query`, as the
    pipeline computes it once per query sentence."""
    return rank(index, tokenize(query.text), limit=top_k)


def scan_gazetteer_candidates(text: str, table: dict[str, str]):
    """The gazetteer candidates of entities.recognize_builtin (those of
    _word_candidates and _lead_candidates) as one str.find scan per term."""
    for term, etype in table.items():
        pos = text.find(term)
        while pos != -1:
            end = pos + len(term)
            if _on_token_boundary(text, pos, end):
                yield pos, end, etype, (_SRC_GAZETTEER, 0)
            pos = text.find(term, pos + 1)


def quadratic_resolve_overlaps(candidates):
    """entities._resolve_overlaps, testing each span against every accepted one."""
    ordered = sorted(candidates, key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    accepted = []
    for start, end, etype, rank in ordered:
        if any(start < e and s < end for s, e, _, _ in accepted):
            continue
        accepted.append((start, end, etype, rank))
    accepted.sort()
    return accepted


# The builtin recognizer's patterns, with the year and integer patterns
# written lookbehind first.
_PATTERNS = (
    (
        re.compile(
            r"\b(?:%s)(?:\s+\d{1,2}(?:st|nd|rd|th)?)?(?:,?\s+\d{4})?\b" % "|".join(_MONTHS)
        ),
        "DATE",
        0,
    ),
    (re.compile(r"(?<!\d)\d{4}(?!\d)"), "DATE", 1),
    (re.compile(r"(?<![\w.])\d+(?:\.\d+)?%"), "PERCENT", 2),
    (re.compile(r"[$£€]\d(?:[\d,]*\d)?(?:\.\d+)?"), "MONEY", 3),
    (re.compile(r"(?<![\w.,])\d(?:[\d,]*\d)?(?![\w%])(?!\.\d)(?!,\d)"), "CARDINAL", 4),
)
_WORD_RE = re.compile(r"\w+(?:['’\-]\w+)*")


def loop_pattern_candidates(text: str):
    """Every pattern run over the whole text, then each word casefolded."""
    for regex, etype, sub in _PATTERNS:
        for match in regex.finditer(text):
            yield match.start(), match.end(), etype, (_SRC_PATTERN, sub)
    for match in _WORD_RE.finditer(text):
        if match.group().casefold() in _NUMBER_WORDS:
            yield match.start(), match.end(), "CARDINAL", (_SRC_PATTERN, 5)


def loop_capitalized_run_candidates(text: str):
    """Runs of capitalized words that only whitespace separates; the
    sentence-initial word never opens or joins one."""
    tokens = list(_WORD_RE.finditer(text))
    run: list[re.Match] = []
    for index, tok in enumerate(tokens):
        if tok.group()[0].isupper():
            if index == 0:
                continue
            if run and text[run[-1].end() : tok.start()].strip():
                yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)
                run = []
            run.append(tok)
        else:
            if run:
                yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)
                run = []
    if run:
        yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)


def three_loop_recognize(sentence, table) -> list[EntityMention]:
    """entities.recognize_builtin as one loop per candidate source: the
    per-term gazetteer scan, the patterns and the capitalized runs, resolved
    by the quadratic overlap step."""
    text = sentence.text
    candidates = list(scan_gazetteer_candidates(text, table))
    candidates.extend(loop_pattern_candidates(text))
    candidates.extend(loop_capitalized_run_candidates(text))
    mentions = []
    for start, end, etype, _rank in quadratic_resolve_overlaps(candidates):
        surface = text[start:end]
        key = normalize_key(surface)
        if key:
            span = (byte_offset(text, start), byte_offset(text, end))
            mentions.append(EntityMention(surface, etype, span, key))
    return mentions


def byte_offset(text: str, i: int) -> int:
    """The UTF-8 byte offset of code point `i` of `text`, from the definition."""
    return len(text[:i].encode("utf-8"))


def naive_token_f1(prediction: str, golds: list[str]) -> float:
    """Bag-of-words F1 written from the definition, max over golds."""

    def bag(text: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for token in re.findall(r"[^\W_]+", text.lower(), re.UNICODE):
            counts[token] = counts.get(token, 0) + 1
        return counts

    pred = bag(prediction)
    best = 0.0
    for gold in golds:
        gold_bag = bag(gold)
        overlap = sum(min(count, gold_bag.get(tok, 0)) for tok, count in pred.items())
        if overlap == 0:
            continue
        precision = overlap / sum(pred.values())
        recall = overlap / sum(gold_bag.values())
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def loop_raw_char_spans(text: str, abbreviations: frozenset[str]) -> list[tuple[int, int]]:
    """corpus._raw_char_spans as a walk over every character."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in ".!?" and i + 1 < n and text[i + 1].isspace():
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
