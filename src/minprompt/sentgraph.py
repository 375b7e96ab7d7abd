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

A node's degree is its residual before the first pick. `Residuals`
counts, for the greedy (see domset), the neighbors of an uncovered node
among the uncovered nodes U; the degree pass reads it with U every node.
It also marks the nodes each pick covers.
A node v whose key row K(v) has at most `_IE_ROW` keys (a short row)
gets it by inclusion-exclusion: the sum over the nonempty subsets S of
K(v) of (-1)**(|S| + 1) N_U(S), minus 1, plus L_U(v), where N_U(S) is
the number of uncovered short rows that hold all of S and L_U(v) the
number of uncovered long rows in v's closed neighborhood. A long row's
residual is counted from its key rows: the uncovered members of its
longest key (N_U of the key plus the key's uncovered long rows), plus
the uncovered members of its other keys that are not in the longest.
Covering a short row subtracts 1 from its own subset counts, at most
2**_IE_ROW - 1 of them; covering a long row subtracts 1 from L over its
closed neighborhood with one kernel call and from its keys' long rows.

The degree pass builds these counts with nothing covered. Short row v's
subsets have the ids ``subset_ids[subset_indptr[v] + j]``, the subset
whose bit mask over v's keys is j + 1 at position j, and
``subset_counts`` holds each id's N. A single key's id is its key id and
its N its member count minus ``long_members``, its long-row members; the
larger subsets are numbered level by level after the ids of the level
before, one sort per level. An s-subset's code is the rank of its first
s - 1 keys among the level before times K plus its last key, so the
codes stay below (distinct subsets of the level before) * K; the build
refuses a graph whose codes would pass 2**63 - 1. The long rows are the
kernel's owners with step 1: each adds itself to ``long_hits`` of every
node of its closed neighborhood. Memory is O(V + total posting length)
times the subsets of a short row per key.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .entities import EntityMention
from .errors import ValidationError
from .fileio import Field, check_record, distinct, iter_jsonl, write_jsonl

SCOPE_CORPUS = "corpus"
SCOPE_DOCUMENT = "document"
SCOPES = (SCOPE_CORPUS, SCOPE_DOCUMENT)

# Separates doc_id from entity key when edges are scoped per document.
_SCOPE_SEP = "\x00"

# Codes expanded per kernel chunk: bounds the kernel's working memory
# (2**21 codes per chunk cost ~100 MB more peak RSS than 2**15 at no gain).
_CHUNK_CODES = 1 << 15

# The most nodes `Residuals.of_nodes` reads, and the largest neighborhood
# `Residuals.cover` counts out, one by one (near the numpy break-even).
_SCALAR_READ = 16
_SCALAR_PICK = 64

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
_SIGNS = tuple(_SUBSET_SIGNS.tolist())


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


class SentenceGraph:
    """Implicit undirected graph: u ~ v iff they share an entity key.

    keys holds the sorted key names; key k has id k. postings maps each
    key to its sorted, duplicate-free member ids; cached_degrees[v] counts
    distinct neighbors of v. The degree pass also leaves what `Residuals`
    starts from (see the module docstring): long_rows, the nodes of more
    than _IE_ROW keys; long_hits[v], the long rows in v's closed
    neighborhood; long_members[k], the long rows holding key k; and the
    short rows' subset table, subset_indptr, subset_ids and subset_counts.
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
        self.cached_degrees = self._degrees()
        for name in ("long_hits", "long_members", "subset_indptr", "subset_ids", "subset_counts"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_postings(cls, node_count: int, postings: dict[str, list[int] | np.ndarray]):
        """Build from raw key -> member-id lists (members deduped and sorted)."""
        return cls(node_count, *_intern(node_count, postings))

    @functools.cached_property
    def postings(self) -> dict[str, np.ndarray]:
        """The `key_rows` as a dict, built on first read and kept."""
        return dict(self.key_rows())

    def key_rows(self):
        """(key, its member ids as a read-only view of key_members) for each
        key, in key order, one at a time."""
        bounds = memoryview(self.key_indptr)
        for key, a, b in zip(self.keys, bounds, bounds[1:]):
            yield key, self.key_members[a:b]

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

    def _add_neighbor_hits(self, owners: np.ndarray, out: np.ndarray, step: int) -> None:
        """The kernel: add `step` to out[w] once for each of the distinct
        `owners` whose closed neighborhood holds w (see the module
        docstring). An owner with no key has an empty neighborhood."""
        hub, owner, keys, lengths = self._split_hubs(owners)
        hubs = np.sort(hub[hub >= 0])
        starts = np.flatnonzero(_run_starts(hubs))
        members, hub_lengths = self._members_of(hubs[starts])
        shared = np.diff(np.append(starts, hubs.size))
        np.add.at(out, members, np.repeat(shared * step, hub_lengths))
        for _, w in self._chunks(owner, keys, lengths, hub):
            np.add.at(out, w, step)

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
        """Mask: is keys[j] one of the keys of nodes[j]? Each node has a key."""
        # bisect each row for the first of its keys >= the key
        lo = self.node_indptr[nodes]
        hi = self.node_indptr[nodes + 1] - 1
        while (active := lo < hi).any():
            mid = (lo + hi) >> 1
            right = active & (self.node_keys[mid] < keys)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(active & ~right, mid, hi)
        return self.node_keys[lo] == keys

    def _degrees(self) -> np.ndarray:
        """The degree pass: each node's count of distinct neighbors, read as
        its residual with nothing covered (see the module docstring). It
        first sets the counts `Residuals` starts from: `long_rows`,
        `long_members`, the subset table and `long_hits`."""
        self.long_rows = np.flatnonzero(np.diff(self.node_indptr) > _IE_ROW)
        self._subset_table()
        # each long row adds 1 to every node of its closed neighborhood;
        # blocks of owners, and of read nodes below, keep the per-(owner,
        # key) and per-subset arrays small
        self.long_hits = np.zeros(self.node_count, dtype=np.int64)
        for lo in range(0, self.long_rows.size, _CHUNK_CODES):
            self._add_neighbor_hits(self.long_rows[lo : lo + _CHUNK_CODES], self.long_hits, 1)
        residuals = Residuals(self, np.zeros(self.node_count, dtype=bool))
        keyed = np.flatnonzero(np.diff(self.node_indptr))
        degrees = np.zeros(self.node_count, dtype=np.int64)
        for lo in range(0, keyed.size, _CHUNK_CODES):
            nodes = keyed[lo : lo + _CHUNK_CODES]
            degrees[nodes] = residuals._gather(nodes)
        return degrees

    def _subset_table(self) -> None:
        """Set `long_members` and the short rows' subset table.

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
        self.long_members = np.bincount(self._keys_of(self.long_rows), minlength=key_count)
        # N({k}) is k's members minus the long rows that hold k
        counts = [(np.diff(self.key_indptr) - self.long_members).astype(dtype)]
        for r, rows in by_length:
            for i in range(r):
                ids[indptr[rows] + (1 << i) - 1] = self.node_keys[self.node_indptr[rows] + i]
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
            ranks += first + bound - 1
            end = 0
            for rows, mask in layout:
                ids[indptr[rows] + mask - 1] = ranks[end : end + rows.size]
                end += rows.size
            first, bound = first + bound, distinct
            del ranks
        self.subset_indptr, self.subset_ids = indptr, ids
        self.subset_counts = np.concatenate(counts)

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


class Residuals:
    """The residual degree of each uncovered node, read on demand from
    counts that a covered node updates (see the module docstring).

    Small reads and covers go node by node through memoryviews, large ones
    with numpy calls: a numpy call costs about a microsecond whatever its
    size, a Python step on one count a tenth of that. `of_nodes` reads up
    to `_SCALAR_READ` nodes one by one (the long rows among them in one
    gather), more with one gather; `cover` counts out up to `_SCALAR_PICK`
    nodes one by one, more with array calls; `of` reads one node. Both
    sides give the same counts, so the sizes change the time, never a
    residual. On the select_hubs graph (seed 1) the greedy covers 3225 of
    its 3922 picks in Python and 697 with arrays, reads 259 of its 415
    nonempty buckets in Python and 156 with a gather, and re-reads 4071
    candidates with `of`.

    The counts start as the graph's own arrays, so the degree pass, which
    only reads, copies nothing; the first cover copies them."""

    def __init__(self, graph: SentenceGraph, covered: np.ndarray):
        self.graph = graph
        self.covered = covered
        self._is_covered = memoryview(covered)
        # N_U(S): the uncovered short rows that hold the key subset S; the
        # uncovered long rows in each node's closed neighborhood, and
        # holding each key
        self._bind(graph.subset_counts, graph.long_hits, graph.long_members)
        self._at = memoryview(graph.subset_indptr)
        self._ids = memoryview(graph.subset_ids)

    def _bind(self, counts: np.ndarray, long_hits: np.ndarray, long_members: np.ndarray) -> None:
        self.counts, self.long_hits, self.long_members = counts, long_hits, long_members
        self._one = counts.dtype.type(1)
        # single values are read and written through memoryviews, several
        # times cheaper than indexing the numpy arrays
        self._counts = memoryview(counts)
        self._count_of = self._counts.__getitem__
        self._long_hits_of = memoryview(long_hits)

    def _own(self) -> None:
        """Copy the graph's counts before the first cover changes them."""
        if self.counts is self.graph.subset_counts:
            hits, members = self.long_hits, self.long_members
            if self.graph.long_rows.size:  # otherwise only the counts change
                hits, members = hits.copy(), members.copy()
            self._bind(self.counts.copy(), hits, members)

    def of_nodes(self, nodes: np.ndarray) -> list[int]:
        """The residuals of distinct uncovered nodes, each with a key."""
        if nodes.size <= _SCALAR_READ:
            return self._read_each(nodes.tolist())
        return self._gather(nodes).tolist()

    def of(self, v: int) -> int:
        """The residual of one uncovered node with a key."""
        value = self._counted(v)
        return int(self._long(np.array([v]))[0]) if value is None else value

    def _read_each(self, nodes: list[int]) -> list[int]:
        # short rows one by one, the long rows among them in one gather
        values = [self._counted(v) for v in nodes]
        long = [v for v, value in zip(nodes, values) if value is None]
        if long:
            found = iter(self._long(np.array(long, dtype=np.int64)).tolist())
            values = [next(found) if value is None else value for value in values]
        return values

    def _gather(self, nodes: np.ndarray) -> np.ndarray:
        starts = self.graph.subset_indptr[nodes]
        # a row with a key and no subsets is long
        short = self.graph.subset_indptr[nodes + 1] > starts
        if short.all():
            return self._short(nodes)
        residuals = np.empty(nodes.size, dtype=np.int64)
        residuals[short] = self._short(nodes[short])
        residuals[~short] = self._long(nodes[~short])
        return residuals

    def _counted(self, v: int) -> int | None:
        """A short row's residual by inclusion-exclusion; None for a long row."""
        a, b = self._at[v], self._at[v + 1]
        if a == b:
            return None
        terms = map(self._count_of, self._ids[a:b])
        return sum(map(operator.mul, _SIGNS, terms)) - 1 + self._long_hits_of[v]

    def _short(self, rows: np.ndarray) -> np.ndarray:
        # inclusion-exclusion over the uncovered short rows, plus the
        # uncovered long rows; whole rows are summed in blocks of about
        # _CHUNK_CODES terms
        starts = self.graph.subset_indptr[rows]
        widths = self.graph.subset_indptr[rows + 1] - starts
        ends = np.cumsum(widths)
        sums = np.empty(rows.size, dtype=np.int64)
        lo = 0
        while lo < rows.size:
            base = int(ends[lo] - widths[lo])
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_CODES, side="right")))
            width = widths[lo:hi]
            first = ends[lo:hi] - width - base  # each row's first term
            j = np.arange(int(ends[hi - 1]) - base) - np.repeat(first, width)  # position in the row
            ids = self.graph.subset_ids[j + np.repeat(starts[lo:hi], width)]
            sums[lo:hi] = np.add.reduceat(self.counts[ids] * _SUBSET_SIGNS[j], first)
            lo = hi
        return sums - 1 + self.long_hits[rows]

    def _long(self, rows: np.ndarray) -> np.ndarray:
        # the hub's uncovered members, plus the uncovered members of the
        # other keys outside the hub
        hub, owner, keys, lengths = self.graph._split_hubs(rows)
        outside = np.zeros(rows.size, dtype=np.int64)
        for i, w in self.graph._chunks(owner, keys, lengths, hub):
            _add_counts(outside, i[~self.covered[w]])
        return self.counts[hub] + self.long_members[hub] + outside - 1

    def cover(self, closed: np.ndarray) -> int:
        """Mark covered the uncovered nodes of a pick's closed neighborhood
        and count them out; return how many it newly covered."""
        self._own()
        if closed.size > _SCALAR_PICK:
            newly = closed[~self.covered[closed]]
            self.covered[newly] = True
            self._cover_array(newly)
            return newly.size
        newly = [w for w in closed.tolist() if not self._is_covered[w]]
        self._cover_each(newly)
        return len(newly)

    def _cover_array(self, newly: np.ndarray) -> None:
        graph = self.graph
        starts = graph.subset_indptr[newly]
        widths = graph.subset_indptr[newly + 1] - starts
        # a scalar of the counts' own type keeps ufunc.at on its fast path
        np.subtract.at(self.counts, graph.subset_ids[_ranges(starts, widths)], self._one)
        if graph.long_rows.size:
            self._cover_long(newly[widths == 0])

    def _cover_each(self, newly: list[int]) -> None:
        at, ids, counts, is_covered = self._at, self._ids, self._counts, self._is_covered
        long = []
        for w in newly:
            is_covered[w] = True
            a, b = at[w], at[w + 1]
            if a == b:
                long.append(w)
            for i in ids[a:b]:
                counts[i] -= 1
        if long and self.graph.long_rows.size:
            self._cover_long(np.array(long, dtype=np.int64))

    def _cover_long(self, long: np.ndarray) -> None:
        """Count out the covered nodes without subsets: long rows."""
        if long.size:
            np.subtract.at(self.long_members, self.graph._keys_of(long), 1)
            self.graph._add_neighbor_hits(long, self.long_hits, -1)


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
        ({"entity": k, "sentences": members.tolist()} for k, members in graph.key_rows()),
        path,
    )


def read_postings_dump(path: str, node_count: int) -> SentenceGraph:
    """Rebuild a graph from a postings dump plus the node count; each line
    is checked against the posting record, and the build refuses ids
    outside 0..node_count-1."""
    ids = f"a list of ids below {node_count}"
    fields = {
        "entity": Field(str, distinct(), "a string no earlier line holds"),
        # the build range-checks all ids at once
        "sentences": Field(list, lambda v, r: {int}.issuperset(map(type, v)), ids),
    }
    raw = {}
    for lineno, r in iter_jsonl(path, fields):
        try:
            # 8 bytes an id, not a Python int object
            raw[r["entity"]] = array("q", r["sentences"])
        except OverflowError:
            # an id past int64 is past node_count too: fail the line
            check_record(r, {"sentences": Field(list, lambda v, r: False, ids)}, f"{path}:{lineno}")
    return SentenceGraph.from_postings(node_count, raw)
