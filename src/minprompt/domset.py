"""Greedy dominating-set approximation (Johnson 1974 / Chvatal 1979).

Each step selects the uncovered node with the most uncovered neighbors
(its residual degree), the smallest sentence id on ties; covered nodes
leave candidacy for good. Candidates wait in a bucket queue indexed by
priority (Dial 1969). Residual degrees only decrease, so no entry is ever
pushed into the bucket under the max pointer: each bucket is complete when
the pointer reaches it and is sorted once for the smallest-id tie break.
When the pointer reaches 0 every uncovered node covers only itself, so
they are all selected in one step.

Residuals are read, not stored, by sentgraph's `Residuals` (its module
docstring states the formula) from the degree pass's counts, copied at
the first pick, out of which each pick counts the nodes it newly covers.

When the pointer reaches a bucket, the residuals of all its uncovered
nodes are read before any pick in it. The nodes below the level are
re-pushed together into the buckets of their residuals (lazily, as Minoux
1978 makes the greedy). The rest are at the level and are taken in id
order: the first is picked, and each later one is re-read, because a pick
in the bucket may have lowered it; it is picked if still at the level and
re-pushed otherwise. Every pick is thus made on exact residuals and the
selection is the eager greedy's. Queue work is O(V + E); the count
updates are O(V * 2**5) plus the long rows' kernel calls; auxiliary state
is O(V + total posting length) plus one kernel chunk.

Most picks and buckets are small, and a numpy call costs about a
microsecond whatever its size, a plain Python step on one count about a
tenth of that. So a pick whose closed neighborhood holds at most `_SCALAR_PICK`
nodes marks and counts out its newly covered nodes one by one
(`Residuals.cover_each`), a larger one with array calls
(`Residuals.cover`); a bucket of at most `_SCALAR_BUCKET` uncovered nodes
is read node by node (`Residuals.of_each`), a larger one with one gather
(`Residuals.of_nodes`); and an empty level costs no call at all. Both
sides of each switch compute the same counts, so the sizes change the
time, never the selection. On the select_hubs benchmark graph (seed 1),
3225 of the 3922 picks and 259 of the 415 nonempty buckets stay in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import COUNT, Field
from .sentgraph import Residuals, SentenceGraph, _run_starts

DEGREE_RESIDUAL = "residual"
DEGREE_STATIC = "static"
DEGREE_MODES = (DEGREE_RESIDUAL, DEGREE_STATIC)

# The largest closed neighborhood a pick covers, and the most uncovered
# nodes a bucket reads, node by node in plain Python (see the module
# docstring); measured near the break-even against the 5-20 numpy calls of
# the vectorized cover and gather on the select_hubs graph.
_SCALAR_PICK = 64
_SCALAR_BUCKET = 16


@dataclass(frozen=True)
class DominatingSetResult:
    selected: tuple[int, ...]  # ascending
    max_degree: int


def approx_dominating_set(
    graph: SentenceGraph,
    degree_mode: str = DEGREE_RESIDUAL,
) -> DominatingSetResult:
    """Greedy selection of a dominating set over the posting-list graph.

    degree_mode='static' never updates priorities after the initial build
    (comparison variant).
    """
    if degree_mode not in DEGREE_MODES:
        raise ValidationError(f"unknown degree mode {degree_mode!r}")
    n = graph.node_count
    covered = np.zeros(n, dtype=bool)
    is_covered = memoryview(covered)
    residuals = Residuals(graph, covered) if degree_mode == DEGREE_RESIDUAL else None
    # bucket d holds the nodes of static degree d in id order, then the
    # re-pushed nodes whose residual fell to d
    by_degree = np.argsort(graph.cached_degrees, kind="stable")
    bucket_end = np.cumsum(np.bincount(graph.cached_degrees)).tolist() if n else [0]
    pushed: dict[int, list[int]] = {}
    uncovered = n
    selected: list[int] = []
    for level in range(len(bucket_end) - 1, 0, -1):
        if not uncovered:
            break
        start, end = bucket_end[level - 1], bucket_end[level]
        if start == end and level not in pushed:
            continue
        bucket = by_degree[start:end]
        if level in pushed:
            bucket = np.sort(np.concatenate([bucket, pushed.pop(level)]))
        bucket = bucket[~covered[bucket]]
        if not bucket.size:
            continue
        # nodes below the level wait in the bucket of their residual, those
        # at 0 for the final step
        if residuals is None:
            candidates = bucket.tolist()
        elif bucket.size <= _SCALAR_BUCKET:
            nodes = bucket.tolist()
            candidates = []
            for v, value in zip(nodes, residuals.of_each(nodes)):
                if value == level:
                    candidates.append(v)
                elif value:
                    pushed.setdefault(value, []).append(v)
        else:
            values = residuals.of_nodes(bucket)
            lower = values < level
            for value, nodes in _grouped(values[lower], bucket[lower]):
                if value:
                    pushed.setdefault(value, []).extend(nodes.tolist())
            candidates = bucket[~lower].tolist()
        picked = False
        for v in candidates:
            if is_covered[v]:
                continue
            if picked and residuals is not None:
                # a pick in this bucket may have lowered v's residual
                value = residuals.of(v)
                if value != level:
                    if value:
                        pushed.setdefault(value, []).append(v)
                    continue
            picked = True
            selected.append(v)
            closed = graph.closed_neighborhood(v)
            if closed.size <= _SCALAR_PICK:
                newly = [w for w in closed.tolist() if not is_covered[w]]
                for w in newly:
                    is_covered[w] = True
                uncovered -= len(newly)
                if residuals is not None:
                    residuals.cover_each(newly)
            else:
                newly = closed[~covered[closed]]
                covered[newly] = True
                uncovered -= newly.size
                if residuals is not None:
                    residuals.cover(newly)
    # every node still uncovered has no uncovered neighbor left
    chosen = np.sort(np.concatenate([np.array(selected, dtype=np.int64), np.flatnonzero(~covered)]))
    return DominatingSetResult(selected=tuple(chosen.tolist()), max_degree=graph.max_degree())


def _grouped(values: np.ndarray, nodes: np.ndarray):
    """(value, nodes with that value) pairs, by value."""
    order = values.argsort()
    values, nodes = values[order], nodes[order]
    starts = np.flatnonzero(_run_starts(values)).tolist()
    for a, b in zip(starts, starts[1:] + [values.size]):
        yield int(values[a]), nodes[a:b]


def is_dominating_set(graph: SentenceGraph, candidate) -> bool:
    """True iff every node is in the candidate set or adjacent to a member."""
    n = graph.node_count
    ids = np.fromiter(candidate, dtype=np.int64)
    out = (ids < 0) | (ids >= n)
    if out.any():
        raise ValidationError(f"candidate id {ids[out.argmax()]} out of range 0..{n - 1}")
    dominated = np.zeros(n, dtype=bool)
    dominated[ids] = True
    keys = np.zeros(len(graph.keys), dtype=bool)
    keys[graph._keys_of(ids)] = True
    dominated[graph._members_of(np.flatnonzero(keys))[0]] = True
    return bool(dominated.all())


def approximation_bound(max_degree: int) -> float:
    """Guaranteed greedy-vs-optimal ratio: ln(max(degree, 1)) + 2."""
    if max_degree < 0:
        raise ValidationError(f"max degree must be >= 0, got {max_degree}")
    return math.log(max(max_degree, 1)) + 2.0


def selection_fields(node_count: int) -> dict[str, Field]:
    """The record export_result writes (selection.json), its ids below `node_count`."""
    return {
        "selected": Field(
            list,
            # -1 < v[0] < v[1] < ... < node_count
            lambda v, r: {int}.issuperset(map(type, v))
            and all(a < b for a, b in zip([-1, *v], [*v, node_count])),
            f"ascending distinct sentence ids below {node_count}",
        ),
        "size": Field(int, lambda v, r: v == len(r["selected"]), "the number of selected ids"),
        "max_degree": COUNT,
        "bound": Field(float),
    }


def export_result(result: DominatingSetResult) -> dict:
    """JSON-ready summary of a solve."""
    return {
        "selected": list(result.selected),
        "size": len(result.selected),
        "max_degree": result.max_degree,
        "bound": approximation_bound(result.max_degree),
    }
