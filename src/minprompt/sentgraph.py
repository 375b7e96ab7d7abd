"""Entity-coreference sentence graph over implicit posting lists.

Sentences sharing an entity key form a clique, so the graph is stored as
one posting list per key plus the per-node key lists. Degrees, neighbor
sets and edge counts are answered from the postings; the clique-expanded
edge list is never materialized (real corpora reach 1e8+ implicit edges).
Auxiliary memory stays O(V + total posting length).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .entities import EntityMention
from .errors import ValidationError
from .fileio import iter_jsonl, write_jsonl

SCOPE_CORPUS = "corpus"
SCOPE_DOCUMENT = "document"
SCOPES = (SCOPE_CORPUS, SCOPE_DOCUMENT)

# Separates doc_id from entity key when edges are scoped per document.
_SCOPE_SEP = "\x00"


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    entities: int
    max_degree: int
    isolated_nodes: int


class SentenceGraph:
    """Implicit undirected graph: u ~ v iff they share an entity key.

    postings maps each key to a sorted, duplicate-free int array of
    sentence ids; node_keys lists each node's keys in sorted order;
    cached_degrees[v] counts distinct neighbors of v.
    """

    def __init__(
        self,
        node_count: int,
        postings: dict[str, np.ndarray],
        node_keys: list[tuple[str, ...]],
        cached_degrees: np.ndarray,
    ):
        self.node_count = node_count
        self.postings = postings
        self.node_keys = node_keys
        self.cached_degrees = cached_degrees

    @classmethod
    def from_postings(cls, node_count: int, postings: dict[str, list[int] | np.ndarray]):
        """Build from raw key -> member-id lists (members deduped and sorted)."""
        clean: dict[str, np.ndarray] = {}
        keys_per_node: list[list[str]] = [[] for _ in range(node_count)]
        for key in sorted(postings):
            members = np.unique(np.asarray(postings[key], dtype=np.int64))
            if members.size == 0:
                continue
            if members[0] < 0 or members[-1] >= node_count:
                raise ValidationError(
                    f"posting list for {key!r} references ids outside 0..{node_count - 1}"
                )
            clean[key] = members
            for sid in members.tolist():
                keys_per_node[sid].append(key)
        node_keys = [tuple(sorted(keys)) for keys in keys_per_node]
        degrees = _compute_degrees(node_count, clean, node_keys)
        return cls(node_count, clean, node_keys, degrees)

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted ids of v plus every neighbor of v."""
        if not 0 <= v < self.node_count:
            raise ValidationError(f"node {v} out of range 0..{self.node_count - 1}")
        keys = self.node_keys[v]
        if not keys:
            return np.array([v], dtype=np.int64)
        if len(keys) == 1:
            return self.postings[keys[0]]
        return np.unique(np.concatenate([self.postings[k] for k in keys]))

    def neighbors(self, v: int) -> list[int]:
        closed = self.closed_neighborhood(v)
        return closed[closed != v].tolist()

    def degree(self, v: int) -> int:
        if not 0 <= v < self.node_count:
            raise ValidationError(f"node {v} out of range 0..{self.node_count - 1}")
        return int(self.cached_degrees[v])

    def edge_count(self) -> int:
        # Python ints, so counts past 2**31 (or 2**63) are exact.
        return int(self.cached_degrees.sum(dtype=np.int64)) // 2

    def max_degree(self) -> int:
        if self.node_count == 0:
            return 0
        return int(self.cached_degrees.max())

    def stats(self) -> GraphStats:
        return GraphStats(
            nodes=self.node_count,
            edges=self.edge_count(),
            entities=len(self.postings),
            max_degree=self.max_degree(),
            isolated_nodes=int((self.cached_degrees == 0).sum()) if self.node_count else 0,
        )


def _compute_degrees(
    node_count: int, postings: dict[str, np.ndarray], node_keys: list[tuple[str, ...]]
) -> np.ndarray:
    """Per-node k-way union of its posting lists; subtract the node itself.

    Single-key nodes skip the union: their posting list is already the
    closed neighborhood. That keeps one-entity megacliques O(V) instead of
    O(V * clique size).
    """
    degrees = np.zeros(node_count, dtype=np.int64)
    for v in range(node_count):
        keys = node_keys[v]
        if not keys:
            continue
        if len(keys) == 1:
            degrees[v] = len(postings[keys[0]]) - 1
        else:
            union = np.unique(np.concatenate([postings[k] for k in keys]))
            degrees[v] = union.size - 1
    return degrees


def build_graph(
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
    stoplist: frozenset[str] = frozenset(),
    scope: str = SCOPE_CORPUS,
) -> SentenceGraph:
    """Build the graph from sentences and their mentions in one pass.

    Repeated mentions of one key inside a sentence contribute a single
    posting (set semantics). scope='document' namespaces keys per doc_id
    so edges never cross documents.
    """
    if scope not in SCOPES:
        raise ValidationError(f"unknown graph scope {scope!r}")
    ids = sorted(s.sentence_id for s in sentences)
    if ids != list(range(len(sentences))):
        raise ValidationError("sentence ids must be dense 0..V-1")
    raw: dict[str, list[int]] = {}
    for sentence in sentences:
        keys = {
            m.normalized_key
            for m in mentions.get(sentence.sentence_id, ())
            if m.normalized_key not in stoplist
        }
        for key in keys:
            if scope == SCOPE_DOCUMENT:
                key = sentence.doc_id + _SCOPE_SEP + key
            raw.setdefault(key, []).append(sentence.sentence_id)
    return SentenceGraph.from_postings(len(sentences), raw)


def write_postings_dump(graph: SentenceGraph, path: str) -> None:
    """Debug dump: one JSON line per entity key with its sentence ids."""
    postings = graph.postings
    write_jsonl(({"entity": k, "sentences": postings[k].tolist()} for k in sorted(postings)), path)


def read_postings_dump(path: str, node_count: int) -> SentenceGraph:
    """Rebuild a graph from a postings dump plus the node count."""
    raw = {record["entity"]: record["sentences"] for _, record in iter_jsonl(path)}
    return SentenceGraph.from_postings(node_count, raw)
