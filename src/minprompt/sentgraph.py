"""Entity-coreference sentence graph over implicit posting lists.

Sentences sharing an entity key form a clique, so the graph is stored as
its posting lists, never as edges (real corpora reach 1e8+ implicit
edges). Keys are interned to ints in sorted order and both directions are
CSR integer arrays: key k's sorted member ids are
``key_members[key_indptr[k]:key_indptr[k + 1]]`` and node v's sorted key
ids are ``node_keys[node_indptr[v]:node_indptr[v + 1]]``.

The build interns the sorted keys once and fills both directions in bulk:
one sort of the ``key * V + member`` codes, adjacent duplicates dropped,
then one of the same pairs as ``member * K + key`` codes for the node
rows, and `bincount` for the row pointers.

The degree pass and the greedy's long-row updates share one kernel,
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
that hold all of S. The pass keeps the terms as a node-major table for
the greedy's residuals: short row v's subsets have the ids
``subset_ids[subset_indptr[v] + j]``, the subset whose bit mask over v's
keys is j + 1 at position j, and ``subset_counts`` holds each id's N. A
single key's id is its key id and its N its member count minus its
long-row members; the larger subsets are numbered level by level after
the ids of the level before, one sort per level. An s-subset's code is
the rank of its first s - 1 keys among the level before times K plus its
last key, so the codes stay below (distinct subsets of the level before)
* K; the build refuses a graph whose codes would pass 2**63 - 1. The long
rows are the kernel's owners with step 1: each adds itself to
``long_hits`` of every node of its closed neighborhood, which counts it
into its short-row neighbors' degrees, and its own degree is its
closed-neighborhood size minus 1. Memory is O(V + total posting length)
times the subsets of a short row per key.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .entities import EntityMention
from .errors import ValidationError
from .fileio import Field, distinct, iter_jsonl, write_jsonl

SCOPE_CORPUS = "corpus"
SCOPE_DOCUMENT = "document"
SCOPES = (SCOPE_CORPUS, SCOPE_DOCUMENT)

# Separates doc_id from entity key when edges are scoped per document.
_SCOPE_SEP = "\x00"

# Codes expanded per kernel chunk: bounds the kernel's working memory
# (2**21 codes per chunk cost ~100 MB more peak RSS than 2**15 at no gain).
_CHUNK_CODES = 1 << 15

# A sentence mentions few entities: node rows up to this many keys are
# checked by direct comparison; longer rows are bisected.
_SCAN_ROW = 4

# Node rows up to this many keys get their degrees by inclusion-exclusion
# over the 2**_IE_ROW - 1 subsets of their keys; longer rows use the kernel.
_IE_ROW = 5
_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1
# A short row of r keys has 2**r - 1 subsets in the subset table
_SUBSET_WIDTHS = np.array([(1 << r) - 1 for r in range(_IE_ROW + 1)] + [0], dtype=np.int64)
# the inclusion-exclusion sign (-1)**(|S| + 1) of the subset S at position
# j of a row's subsets, whose bit mask over the row's keys is j + 1
_SUBSET_SIGNS = np.array(
    [1 if (j + 1).bit_count() % 2 else -1 for j in range(2**_IE_ROW - 1)], dtype=np.int64
)


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    entities: int
    max_degree: int
    isolated_nodes: int


def _add_counts(counts: np.ndarray, i: np.ndarray) -> None:
    """Add to counts[x] the copies of x in the sorted index array i."""
    if i.size:
        found = np.bincount(i - i[0])
        counts[i[0] : i[0] + found.size] += found


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges start .. start + length - 1, in order."""
    # array methods, not the np.* wrappers: the greedy calls this per pick
    ends = lengths.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + (starts - ends + lengths).repeat(lengths)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


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
    # the same pairs node-major: member * K + key, distinct and below V * K
    width = max(len(keys), 1)
    node_keys = members * width
    node_keys += key_ids
    del key_ids
    node_keys.sort()
    np.remainder(node_keys, width, out=node_keys)
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
    distinct neighbors of v. The degree pass also leaves what the greedy's
    residuals start from (see the module docstring): long_rows, the nodes
    of more than _IE_ROW keys; long_hits[v], the long rows in v's closed
    neighborhood; and the short rows' subset table, subset_indptr,
    subset_ids and subset_counts.
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
        self.cached_degrees = self._degrees()
        for array in (self.long_hits, self.subset_indptr, self.subset_ids, self.subset_counts):
            array.flags.writeable = False

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

    def _split_hubs(self, owners: np.ndarray):
        """Each owner's hub, its longest key (the larger id on ties, -1 for
        an owner with no key), and the owner index, key and key length of
        each of the owners' other keys, owner by owner."""
        key_count = len(self.keys)
        keys = self._keys_of(owners)
        owner = np.repeat(
            np.arange(owners.size, dtype=np.int64),
            self.node_indptr[owners + 1] - self.node_indptr[owners],
        )
        lengths = self.key_indptr[keys + 1] - self.key_indptr[keys]
        hub = np.full(owners.size, -1, dtype=np.int64)
        if keys.size:
            # any key would be correct; the longest is expanded least
            first = np.flatnonzero(_run_starts(owner))
            hub[owner[first]] = np.maximum.reduceat(lengths * key_count + keys, first) % key_count
        rest = keys != hub[owner]
        return hub, owner[rest], keys[rest], lengths[rest]

    def _add_neighbor_hits(self, owners: np.ndarray, out: np.ndarray, step: int) -> np.ndarray:
        """The kernel: add `step` to out[w] once for each of the distinct
        `owners` whose closed neighborhood holds w, and return the size of
        each owner's closed neighborhood (see the module docstring). An
        owner with no key has an empty neighborhood."""
        hub, owner, keys, lengths = self._split_hubs(owners)
        have = np.flatnonzero(hub >= 0)
        sizes = np.zeros(owners.size, dtype=np.int64)
        sizes[have] = self.key_indptr[hub[have] + 1] - self.key_indptr[hub[have]]
        hubs = np.sort(hub[have])
        starts = np.flatnonzero(_run_starts(hubs))
        members, hub_lengths = self._members_of(hubs[starts])
        shared = np.diff(np.append(starts, hubs.size))
        np.add.at(out, members, np.repeat(shared * step, hub_lengths))
        for i, w in self._chunks(owner, keys, lengths, hub):
            _add_counts(sizes, i)
            np.add.at(out, w, step)
        return sizes

    def _count_outside_hubs(self, owners: np.ndarray, skip: np.ndarray):
        """Each owner's hub (see `_split_hubs`) and the number of distinct
        members of its other keys that are neither in the hub nor set in
        the boolean node mask `skip`."""
        hub, owner, keys, lengths = self._split_hubs(owners)
        counts = np.zeros(owners.size, dtype=np.int64)
        for i, w in self._chunks(owner, keys, lengths, hub):
            _add_counts(counts, i[~skip[w]])
        return hub, counts

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
            # bisect each longer row for the first of its keys >= the key
            lo, hi, want = first[long], last[long], keys[long]
            while (active := lo < hi).any():
                mid = (lo + hi) >> 1
                right = active & (self.node_keys[mid] < want)
                lo = np.where(right, mid + 1, lo)
                hi = np.where(active & ~right, mid, hi)
            found[long] = self.node_keys[lo] == want
        return found

    def _degrees(self) -> np.ndarray:
        """The degree pass: each node's count of distinct neighbors (see the
        module docstring). It also sets the tables the greedy's residuals
        start from: `long_rows`, `long_hits` and the subset table."""
        self.long_rows = np.flatnonzero(np.diff(self.node_indptr) > _IE_ROW)
        degrees = np.zeros(self.node_count, dtype=np.int64)
        self._subset_table(degrees)
        # each long row adds 1 to every node of its closed neighborhood;
        # blocks of owners keep the kernel's per-(owner, key) arrays small
        self.long_hits = np.zeros(self.node_count, dtype=np.int64)
        sizes = np.empty(self.long_rows.size, dtype=np.int64)
        for lo in range(0, self.long_rows.size, _CHUNK_CODES):
            owners = self.long_rows[lo : lo + _CHUNK_CODES]
            sizes[lo : lo + owners.size] = self._add_neighbor_hits(owners, self.long_hits, 1)
        degrees += self.long_hits
        degrees[self.long_rows] = sizes - 1
        return degrees

    def _subset_table(self, degrees: np.ndarray) -> None:
        """Set the short rows' subset table and add each short row's
        inclusion-exclusion sum, minus 1, to its entry of `degrees`.

        The nonempty key subsets of short row v have the ids
        subset_ids[subset_indptr[v] + j], where j + 1 is the subset's bit
        mask over v's keys, and the subset with id i is held by
        subset_counts[i] short rows (its N). A key's id is its key id;
        each level s > 1 numbers its distinct s-subsets after the ids of
        level s - 1, in the order of their codes."""
        key_count = len(self.keys)
        lengths = np.diff(self.node_indptr)
        widths = _SUBSET_WIDTHS[np.minimum(lengths, _IE_ROW + 1)]
        total = int(widths.sum())
        # ids, counts and offsets all stay below K + the table's length
        dtype = np.int32 if key_count + total <= _INT32_MAX else np.int64
        indptr = np.zeros(self.node_count + 1, dtype=dtype)
        np.cumsum(widths, out=indptr[1:])
        del widths
        ids = np.empty(total, dtype=dtype)
        by_length = [(r, np.flatnonzero(lengths == r)) for r in range(1, _IE_ROW + 1)]
        by_length = [(r, rows) for r, rows in by_length if rows.size]
        del lengths
        # N({k}) is k's members minus the long rows that hold k
        single = np.diff(self.key_indptr)
        single -= np.bincount(self._keys_of(self.long_rows), minlength=key_count)
        for r, rows in by_length:
            degrees[rows] -= 1
            for i in range(r):
                keys = self.node_keys[self.node_indptr[rows] + i]
                ids[indptr[rows] + (1 << i) - 1] = keys
                degrees[rows] += single[keys]
        counts = [single.astype(dtype)]
        first, bound = 0, key_count  # the ids of the level before
        for s in range(2, _IE_ROW + 1):
            layout = [
                (rows, mask)
                for r, rows in by_length
                for mask in range(1, 1 << r)
                if mask.bit_count() == s
            ]
            if not layout:
                break
            if bound * key_count - 1 > _INT64_MAX:
                raise ValidationError(
                    f"{bound} key subsets x {key_count} keys overflow int64 subset codes"
                )
            code_type = np.int32 if bound * key_count <= _INT32_MAX else np.int64
            codes = np.empty(sum(rows.size for rows, _ in layout), dtype=code_type)
            end = 0
            for rows, mask in layout:
                # the rank of the subset's first s - 1 keys in the level
                # before * K + its last key
                last = mask.bit_length() - 1
                block = codes[end : end + rows.size]
                block[:] = ids[indptr[rows] + (mask ^ (1 << last)) - 1] - first
                block *= key_count
                block += self.node_keys[self.node_indptr[rows] + last]
                end += rows.size
            # one sort: equal codes are one subset S, so its id is the rank
            # of its code among the distinct ones and N(S) its copies
            order = codes.argsort()
            codes.sort()
            starts = _run_starts(codes)
            np.cumsum(starts, out=codes)
            ranks = np.empty(codes.size, dtype=dtype)
            ranks[order] = codes
            # these arrays at once set the pass's peak memory
            del order, codes
            copies = np.flatnonzero(starts)
            del starts
            counts.append(np.diff(copies, append=end).astype(dtype))
            distinct = copies.size
            del copies
            ranks -= 1
            sign = 1 if s % 2 else -1
            end = 0
            for rows, mask in layout:
                level_ids = ranks[end : end + rows.size]
                degrees[rows] += sign * counts[-1][level_ids]
                ids[indptr[rows] + mask - 1] = level_ids + (first + bound)
                end += rows.size
            first, bound = first + bound, distinct
            del ranks
        self.subset_indptr, self.subset_ids = indptr, ids
        self.subset_counts = np.concatenate(counts)

    def _subset_sums(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """For each short row v of `rows`: the sum over the nonempty subsets
        S of v's keys of (-1)**(|S| + 1) counts[id of S]. Whole rows are
        summed in blocks of about `_CHUNK_CODES` terms."""
        starts = self.subset_indptr[rows]
        widths = self.subset_indptr[rows + 1] - starts
        ends = np.cumsum(widths)
        sums = np.empty(rows.size, dtype=np.int64)
        lo = 0
        while lo < rows.size:
            base = int(ends[lo] - widths[lo])
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_CODES, side="right")))
            width = widths[lo:hi]
            first = ends[lo:hi] - width - base  # each row's first term
            j = np.arange(int(ends[hi - 1]) - base) - np.repeat(first, width)  # position in the row
            terms = counts[self.subset_ids[j + np.repeat(starts[lo:hi], width)]] * _SUBSET_SIGNS[j]
            sums[lo:hi] = np.add.reduceat(terms, first)
            lo = hi
        return sums

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
    """Rebuild a graph from a postings dump plus the node count; each line
    is checked against the posting record, ids in 0..node_count-1."""
    fields = {
        "entity": Field(str, distinct(), "a string no earlier line holds"),
        "sentences": Field(
            list,
            lambda v, r: {int}.issuperset(map(type, v))
            and (not v or 0 <= min(v) <= max(v) < node_count),
            f"a list of ids below {node_count}",
        ),
    }
    # 8 bytes an id, not a Python int object
    raw = {r["entity"]: array("q", r["sentences"]) for _, r in iter_jsonl(path, fields)}
    return SentenceGraph.from_postings(node_count, raw)
