"""Entity-coreference sentence graph over implicit posting lists.

Sentences sharing an entity key form a clique, so the graph is stored as
its posting lists, never as edges (real corpora reach 1e8+ implicit
edges). Keys are interned to ints in sorted order and both directions are
CSR integer arrays: key k's sorted member ids are
``key_members[key_indptr[k]:key_indptr[k + 1]]`` and node v's sorted key
ids are ``node_keys[node_indptr[v]:node_indptr[v + 1]]``.

The build interns the sorted keys once and fills both directions in bulk:
one sort of the ``key * V + member`` codes, adjacent duplicates dropped,
`bincount` for the row pointers.

The degree pass and the greedy's residual updates share one kernel,
`SentenceGraph._add_neighbor_hits`: for distinct owner nodes it adds a
step to every node once per owner whose closed neighborhood holds it. It
never expands an owner's longest key (its hub) per owner: each hub's
members get the step times the owners sharing it. The owners' other
postings are expanded into ``owner * V + member`` codes in chunks of
about `_CHUNK_CODES` codes (one owner is never split across chunks),
made distinct by a sort and an adjacent-difference mask, minus the hub's
members (is the hub in the member's own key row?). So a one-key node
costs O(1) even inside a megaclique, and a hub member pays only for its
other keys. No edge list is ever materialized: memory stays O(V + total
posting length) plus one chunk.

Degrees are counted, not expanded. A node v whose key row K(v) has at
most `_IE_ROW` keys (a short row) gets its degree by inclusion-exclusion
over the short rows only: the sum over the nonempty subsets S of K(v) of
(-1)**(|S| + 1) N(S), minus 1, where N(S) is the number of short rows
that hold all of S. For a single key that is its member count minus its
long-row members; the larger subsets are counted level by level, one
sort per level. An s-subset's int64 code is the id of its first s - 1
keys times K plus its last key, and a subset's id is the rank of its code
among the level's distinct codes, so the codes stay below (distinct
subsets of the level before) * K; the build refuses a graph whose codes
would pass 2**63 - 1. The long rows are the kernel's owners with step 1:
each adds itself to every node of its closed neighborhood, which counts
it into its short-row neighbors' degrees, and its own degree is its
closed-neighborhood size minus 1. Memory is O(V + total posting length)
times the subsets of a short row per key.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .entities import EntityMention
from .errors import ParseError, ValidationError
from .fileio import iter_jsonl, write_jsonl

SCOPE_CORPUS = "corpus"
SCOPE_DOCUMENT = "document"
SCOPES = (SCOPE_CORPUS, SCOPE_DOCUMENT)

# Separates doc_id from entity key when edges are scoped per document.
_SCOPE_SEP = "\x00"

# Codes expanded per kernel chunk: bounds the kernel's working memory
# (2**21 codes per chunk cost ~100 MB more peak RSS than 2**15 at no gain).
_CHUNK_CODES = 1 << 15

# A sentence mentions few entities: node rows up to this many keys are
# checked by direct comparison, four times faster than a binary search in
# the node-key pairs on the select_hubs workload; longer rows are searched.
_SCAN_ROW = 4

# Node rows up to this many keys get their degrees by inclusion-exclusion
# over the 2**_IE_ROW - 1 subsets of their keys; longer rows use the kernel.
_IE_ROW = 5
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    entities: int
    max_degree: int
    isolated_nodes: int


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges start .. start + length - 1, in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lengths), lengths)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


@functools.cache
def _subset_layout(row: int, size: int) -> tuple[list[int], list[int]]:
    """For each `size`-subset of row positions, in combinations order: the
    index of its first size - 1 positions among the (size - 1)-subsets, and
    its last position."""
    smaller = {c: i for i, c in enumerate(itertools.combinations(range(row), size - 1))}
    subsets = list(itertools.combinations(range(row), size))
    return [smaller[c[:-1]] for c in subsets], [c[-1] for c in subsets]


def _intern(node_count: int, postings: dict[str, list[int] | np.ndarray]):
    """Sorted key names, then the key -> member and node -> key CSR arrays."""
    keys = [key for key in sorted(postings) if len(postings[key])]
    lengths = np.fromiter((len(postings[key]) for key in keys), dtype=np.int64, count=len(keys))
    ids = np.fromiter(
        itertools.chain.from_iterable(postings[key] for key in keys),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    bad = (ids < 0) | (ids >= node_count)
    if bad.any():
        key = keys[int(np.searchsorted(np.cumsum(lengths), bad.argmax(), side="right"))]
        raise ValidationError(
            f"posting list for {key!r} references ids outside 0..{node_count - 1}"
        )
    # one sort of key * V + member orders the pairs key-major and
    # drops duplicates as adjacent equal codes
    codes = np.repeat(np.arange(len(keys), dtype=np.int64) * node_count, lengths)
    codes += ids
    del ids  # freed before the next allocations: they set the build's peak memory
    codes.sort()
    key_ids, members = np.divmod(codes[_run_starts(codes)], max(node_count, 1))
    del codes
    key_indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_ids, minlength=len(keys)), out=key_indptr[1:])
    node_indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(members, minlength=node_count), out=node_indptr[1:])
    # stable: each node's keys keep their ascending key-major order
    node_keys = key_ids[np.argsort(members, kind="stable")]
    return keys, key_indptr, members, node_indptr, node_keys


class Postings(Mapping):
    """Read-only mapping of each key to the sorted array view of its members."""

    def __init__(self, keys: list[str], indptr: np.ndarray, members: np.ndarray):
        self._keys = keys
        self._indptr = indptr
        self._members = members

    def __getitem__(self, key: str) -> np.ndarray:
        k = bisect_left(self._keys, key)
        if k == len(self._keys) or self._keys[k] != key:
            raise KeyError(key)
        return self._members[self._indptr[k] : self._indptr[k + 1]]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class SentenceGraph:
    """Implicit undirected graph: u ~ v iff they share an entity key.

    keys holds the sorted key names; key k has id k. postings maps each
    key to its sorted, duplicate-free member ids; cached_degrees[v] counts
    distinct neighbors of v.
    """

    def __init__(
        self,
        node_count: int,
        keys: list[str],
        key_indptr: np.ndarray,
        key_members: np.ndarray,
        node_indptr: np.ndarray,
        node_keys: np.ndarray,
    ):
        self.node_count = node_count
        self.keys = keys
        self.key_indptr = key_indptr
        self.key_members = key_members
        self.node_indptr = node_indptr
        self.node_keys = node_keys
        for array in (key_indptr, key_members, node_indptr, node_keys):
            array.flags.writeable = False
        self.postings = Postings(keys, key_indptr, key_members)
        # (node, key) pairs as node * K + key, ascending: the membership index
        self._pair_codes = (
            np.repeat(np.arange(node_count, dtype=np.int64), np.diff(node_indptr)) * len(keys)
            + node_keys
        )
        self.cached_degrees = self._degrees()

    @classmethod
    def from_postings(cls, node_count: int, postings: dict[str, list[int] | np.ndarray]):
        """Build from raw key -> member-id lists (members deduped and sorted)."""
        return cls(node_count, *_intern(node_count, postings))

    def _keys_of(self, nodes: np.ndarray) -> np.ndarray:
        """Key ids of every node in `nodes`, node by node."""
        starts = self.node_indptr[nodes]
        return self.node_keys[_ranges(starts, self.node_indptr[nodes + 1] - starts)]

    def _members_of(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Member ids of every key in `keys`, key by key, and each key's length."""
        starts = self.key_indptr[keys]
        lengths = self.key_indptr[keys + 1] - starts
        return self.key_members[_ranges(starts, lengths)], lengths

    def _add_neighbor_hits(
        self, owners: np.ndarray, out: np.ndarray, step: int, live: np.ndarray | None = None
    ) -> np.ndarray:
        """The kernel: add `step` to out[w] once for each of the distinct
        `owners` whose closed neighborhood holds w, and return the size of
        each owner's closed neighborhood (see the module docstring).

        Only keys where the boolean key mask `live` is set count, all keys
        without it; an owner with no such key has an empty neighborhood.
        """
        key_count = len(self.keys)
        keys = self._keys_of(owners)
        owner = np.repeat(
            np.arange(owners.size, dtype=np.int64),
            self.node_indptr[owners + 1] - self.node_indptr[owners],
        )
        if live is not None:
            keep = live[keys]
            keys, owner = keys[keep], owner[keep]
        sizes = np.zeros(owners.size, dtype=np.int64)
        if not keys.size:
            return sizes
        lengths = self.key_indptr[keys + 1] - self.key_indptr[keys]
        first = np.flatnonzero(_run_starts(owner))
        have = owner[first]  # the owners with a counted key
        hub = np.full(owners.size, -1, dtype=np.int64)
        # the longest key, the larger id on ties; any key would be correct
        sizes[have], hub[have] = np.divmod(
            np.maximum.reduceat(lengths * key_count + keys, first), key_count
        )
        hubs = np.sort(hub[have])
        starts = np.flatnonzero(_run_starts(hubs))
        members, hub_lengths = self._members_of(hubs[starts])
        shared = np.diff(np.append(starts, hubs.size))
        np.add.at(out, members, np.repeat(shared * step, hub_lengths))
        rest = keys != hub[owner]
        for i, w in self._chunks(owner[rest], keys[rest], lengths[rest], hub):
            if i.size:
                counts = np.bincount(i - i[0])
                sizes[i[0] : i[0] + counts.size] += counts
                np.add.at(out, w, step)
        return sizes

    def _chunks(self, owner: np.ndarray, keys: np.ndarray, lengths: np.ndarray, hub: np.ndarray):
        """(i, w) array pairs, sorted by i then w: each distinct member w of
        the (owner, key) pairs, by owner index i, that is not in hub[i]."""
        n = self.node_count
        ends = np.flatnonzero(np.append(owner[1:] != owner[:-1], True)) + 1 if owner.size else owner
        expanded = np.cumsum(lengths)
        expanded_at_end = expanded[ends - 1]
        cut = 0
        while cut < ends.size:
            a = int(ends[cut - 1]) if cut else 0
            budget = (int(expanded[a - 1]) if a else 0) + _CHUNK_CODES
            cut = max(cut + 1, int(np.searchsorted(expanded_at_end, budget, side="right")))
            b = int(ends[cut - 1])
            members, sizes = self._members_of(keys[a:b])
            codes = np.repeat(owner[a:b], sizes) * n + members
            codes.sort()
            i, w = np.divmod(codes[_run_starts(codes)], n)
            outside = ~self._has_key(w, hub[i])
            yield i[outside], w[outside]

    def _has_key(self, nodes: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Mask: is keys[j] one of the keys of nodes[j]?"""
        first = self.node_indptr[nodes]
        last = self.node_indptr[nodes + 1] - 1
        found = self.node_keys[first] == keys
        for j in range(1, _SCAN_ROW):
            found |= self.node_keys[np.minimum(first + j, last)] == keys
        long = np.flatnonzero(last - first >= _SCAN_ROW)
        if long.size:
            pairs = nodes[long] * len(self.keys) + keys[long]
            pos = np.searchsorted(self._pair_codes, pairs)
            found[long] = self._pair_codes[np.minimum(pos, self._pair_codes.size - 1)] == pairs
        return found

    def _degrees(self) -> np.ndarray:
        """Each node's count of distinct neighbors (see the module docstring)."""
        lengths = np.diff(self.node_indptr)
        by_length = [np.flatnonzero(lengths == r) for r in range(1, _IE_ROW + 1)]
        long_rows = np.flatnonzero(lengths > _IE_ROW)
        del lengths
        degrees = np.zeros(self.node_count, dtype=np.int64)
        # each long row adds 1 to every node of its closed neighborhood;
        # blocks of owners keep the kernel's per-(owner, key) arrays small
        sizes = np.empty(long_rows.size, dtype=np.int64)
        for lo in range(0, long_rows.size, _CHUNK_CODES):
            owners = long_rows[lo : lo + _CHUNK_CODES]
            sizes[lo : lo + owners.size] = self._add_neighbor_hits(owners, degrees, 1)
        degrees[long_rows] = sizes - 1
        # level 1 of inclusion-exclusion: N({k}) is k's short-row members
        single = np.diff(self.key_indptr)
        single -= np.bincount(self._keys_of(long_rows), minlength=single.size)
        for r, rows in enumerate(by_length, 1):
            keys = self.node_keys[self.node_indptr[rows, None] + np.arange(r)]
            degrees[rows] += single[keys].sum(axis=1) - 1
        self._add_subset_counts(degrees, by_length)
        return degrees

    def _add_subset_counts(self, degrees: np.ndarray, by_length: list[np.ndarray]) -> None:
        """Levels 2.._IE_ROW of inclusion-exclusion: add (-1)**(s + 1) N(S)
        to degrees[v] for each s-subset S of v's keys, where N(S) counts
        the short rows (by_length[r - 1]: the rows of r keys) holding S."""
        key_count = len(self.keys)
        # (row length, rows, each row's subset ids of the previous level)
        groups = [(r, rows, None) for r, rows in enumerate(by_length, 1) if rows.size]
        bound = key_count  # the ids of the level before are below it
        for s in range(2, _IE_ROW + 1):
            groups = [group for group in groups if group[0] >= s]
            if not groups:
                return
            if bound * key_count - 1 > _INT64_MAX:
                raise ValidationError(
                    f"{bound} key subsets x {key_count} keys overflow int64 subset codes"
                )
            sizes = [rows.size * math.comb(r, s) for r, rows, _ in groups]
            codes = np.empty(sum(sizes), dtype=np.int64)
            end = 0
            for r, rows, ids in groups:
                step = max(1, _CHUNK_CODES // math.comb(r, s))  # rows per block
                for lo in range(0, rows.size, step):
                    block = self._subset_codes(
                        r, rows[lo : lo + step], None if ids is None else ids[lo : lo + step], s
                    ).ravel()
                    codes[end : end + block.size] = block
                    end += block.size
            # one sort: equal codes are one subset S, so S's id is the rank
            # of its code among the distinct ones and N(S) its copies
            order = codes.argsort()
            codes = codes[order]
            codes[:] = _run_starts(codes)
            np.cumsum(codes, out=codes)
            ids = np.empty_like(codes)
            ids[order] = codes
            # three code-sized arrays at once set the pass's peak memory
            del order, codes
            copies = np.bincount(ids)
            sign = 1 if s % 2 else -1
            end = 0
            for j, ((r, rows, _), size) in enumerate(zip(groups, sizes)):
                row_ids = ids[end : end + size].reshape(rows.size, -1)
                end += size
                degrees[rows] += sign * copies[row_ids].sum(axis=1)
                groups[j] = (r, rows, row_ids)
            bound = copies.size
            del copies

    def _subset_codes(self, r: int, rows: np.ndarray, ids: np.ndarray | None, size: int):
        """Codes of every `size`-subset of the `r`-key rows `rows`, a row
        per line: the id of the subset's first size - 1 keys (`ids`, the
        previous level's; None for the key ids) * K + its last key."""
        prefix, last = _subset_layout(r, size)
        starts = self.node_indptr[rows, None]
        # the 1-subsets are the row positions, so a key's id is its key id
        codes = self.node_keys[starts + prefix] if ids is None else ids[:, prefix]
        codes *= len(self.keys)
        codes += self.node_keys[starts + last]
        return codes

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """Sorted ids of v plus every neighbor of v."""
        if not 0 <= v < self.node_count:
            raise ValidationError(f"node {v} out of range 0..{self.node_count - 1}")
        keys = self.node_keys[self.node_indptr[v] : self.node_indptr[v + 1]]
        if not keys.size:
            return np.array([v], dtype=np.int64)
        if keys.size == 1:
            return self.key_members[self.key_indptr[keys[0]] : self.key_indptr[keys[0] + 1]]
        members = self._members_of(keys)[0]
        members.sort()
        return members[_run_starts(members)]

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
            entities=len(self.keys),
            max_degree=self.max_degree(),
            isolated_nodes=int((self.cached_degrees == 0).sum()) if self.node_count else 0,
        )


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
    """Debug dump: one JSON line per entity key, in key order, with its sentence ids."""
    write_jsonl(
        ({"entity": k, "sentences": members.tolist()} for k, members in graph.postings.items()),
        path,
    )


def read_postings_dump(path: str, node_count: int) -> SentenceGraph:
    """Rebuild a graph from a postings dump plus the node count.

    A line that is not {"entity": str, "sentences": [int, ...]} raises
    ParseError naming it; no id is cast, so 0.7, "0" and true are rejected.
    """
    raw = {}
    for lineno, record in iter_jsonl(path):
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: a postings line must be an object")
        entity, ids = record.get("entity"), record.get("sentences")
        if not isinstance(entity, str):
            raise ParseError(f"{path}:{lineno}: 'entity' must be a string")
        # exact types: bool is an int subclass
        if not isinstance(ids, list) or not {int}.issuperset(map(type, ids)):
            raise ParseError(f"{path}:{lineno}: 'sentences' must be a list of ints")
        try:
            raw[entity] = array("q", ids)  # 8 bytes an id, not a Python int object
        except OverflowError:
            raise ParseError(f"{path}:{lineno}: a sentence id does not fit in 64 bits") from None
    return SentenceGraph.from_postings(node_count, raw)
