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
`Residuals` also marks them covered and chooses, by size, between numpy
and plain Python for each read and each cover.

When the pointer reaches a bucket, the residuals of all its uncovered
nodes are read before any pick in it. The bucket is then walked in id
order. A node below the level is re-pushed into the bucket of its
residual (lazily, as Minoux 1978 makes the greedy). The first node at the
level is picked; each later one is re-read, because a pick in the bucket
may have lowered it, and is picked if still at the level and re-pushed
otherwise. Every pick is thus made on exact residuals and the selection
is the eager greedy's. Queue work is O(V + E); the count updates are
O(V * 2**5) plus the long rows' kernel calls; auxiliary state is
O(V + total posting length) plus one kernel chunk.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import COUNT, Field
from .sentgraph import Residuals, SentenceGraph

DEGREE_RESIDUAL = "residual"
DEGREE_STATIC = "static"
DEGREE_MODES = (DEGREE_RESIDUAL, DEGREE_STATIC)


@dataclass(frozen=True)
class DominatingSetResult:
    selected: tuple[int, ...]  # ascending
    max_degree: int


def approx_dominating_set(
    graph: SentenceGraph,
    degree_mode: str = DEGREE_RESIDUAL,
) -> DominatingSetResult:
    """Greedy selection of a dominating set over the posting-list graph.

    degree_mode='static' (a comparison variant) never updates priorities:
    one sweep by static degree, ties by id, picks each node no earlier
    pick covered.
    """
    if degree_mode not in DEGREE_MODES:
        raise ValidationError(f"unknown degree mode {degree_mode!r}")
    n = graph.node_count
    covered = np.zeros(n, dtype=bool)
    is_covered = memoryview(covered)
    if degree_mode == DEGREE_STATIC:
        selected = []
        for v in np.argsort(-graph.cached_degrees, kind="stable").tolist():
            if not is_covered[v]:
                selected.append(v)
                covered[graph.closed_neighborhood(v)] = True
        return DominatingSetResult(selected=tuple(sorted(selected)), max_degree=graph.max_degree())
    residuals = Residuals(graph, covered)
    # bucket d holds the nodes of static degree d in id order, then the
    # re-pushed nodes whose residual fell to d
    by_degree = np.argsort(graph.cached_degrees, kind="stable")
    bucket_end = np.cumsum(np.bincount(graph.cached_degrees)).tolist() if n else [0]
    pushed: defaultdict[int, list[int]] = defaultdict(list)
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
        picked = False
        for v, value in zip(bucket.tolist(), residuals.of_nodes(bucket)):
            if value == level:
                if is_covered[v]:
                    continue
                if picked:
                    # a pick in this bucket may have lowered v's residual
                    value = residuals.of(v)
            if value == level:
                picked = True
                selected.append(v)
                uncovered -= residuals.cover(graph.closed_neighborhood(v))
            elif value:
                # below the level: it waits in the bucket of its residual
                # (at 0, for the final step)
                pushed[value].append(v)
    # every node still uncovered has no uncovered neighbor left
    chosen = np.sort(np.concatenate([np.array(selected, dtype=np.int64), np.flatnonzero(~covered)]))
    return DominatingSetResult(selected=tuple(chosen.tolist()), max_degree=graph.max_degree())


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
