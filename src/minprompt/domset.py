"""Greedy dominating-set approximation (Johnson 1974 / Chvatal 1979).

Each step selects the uncovered node with the most uncovered neighbors
(its residual degree), the smallest sentence id on ties; covered nodes
leave candidacy for good. Candidates wait in a bucket queue indexed by
priority (Dial 1969). Residual degrees only decrease, so no entry is ever
pushed into the bucket under the max pointer: each bucket is complete when
the pointer reaches it and is sorted once for the smallest-id tie break.
An entry whose residual dropped since it was pushed is re-pushed lazily
into the bucket of its current residual. When the pointer reaches 0 every
uncovered node covers only itself, so they are all selected in one step.

A selection lowers by one, for each node it newly covers, the residual
of every uncovered neighbor of that node: only the nodes that share a key
with a newly covered node change. So the updates wait (Minoux 1978 makes
the greedy lazy the same way): a selection marks the keys of the nodes it
newly covered, and one call of the graph's neighborhood kernel with step
-1 over all the nodes covered since the last call (a flush) applies
them, counting only keys that still have uncovered members. It lowers
covered nodes too, whose residuals are never read again. A stored
residual is then exact or too high, and exact unless the node holds a
marked key. A candidate is flushed for only when its stored residual
equals the bucket's priority and its key row holds a marked key; one
whose stored residual is lower is re-pushed at that residual and looked
at again there. Every pick is thus made on exact residuals and the
selection is the eager greedy's.
Queue work is O(V + E); auxiliary state is O(V + total posting length)
plus one kernel chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sentgraph import SentenceGraph

DEGREE_RESIDUAL = "residual"
DEGREE_STATIC = "static"
DEGREE_MODES = (DEGREE_RESIDUAL, DEGREE_STATIC)


@dataclass(frozen=True)
class DominatingSetResult:
    selected: tuple[int, ...]  # ascending
    iterations: int
    max_degree: int
    covered: int
    uncovered_entities: int


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
    residual = graph.cached_degrees.copy()
    alive = np.diff(graph.key_indptr)  # uncovered members per key
    live = alive > 0
    track_residual = degree_mode == DEGREE_RESIDUAL
    # the nodes covered since the last flush, their keys, and those keys
    # marked: only a node holding a marked key can have a stale residual
    pending_nodes: list[np.ndarray] = []
    pending_keys: list[np.ndarray] = []
    marked = np.zeros(len(graph.keys), dtype=bool)
    # the candidate loop reads single values through memoryviews, several
    # times cheaper than indexing the numpy arrays
    is_covered, is_marked = memoryview(covered), memoryview(marked)
    residual_of = memoryview(residual)
    indptr, node_keys = memoryview(graph.node_indptr), memoryview(graph.node_keys)

    def flush() -> None:
        newly = np.concatenate(pending_nodes)
        touched = np.concatenate(pending_keys)
        pending_nodes.clear()
        pending_keys.clear()
        marked[touched] = False
        np.subtract.at(alive, touched, 1)
        live[touched] = alive[touched] > 0
        graph._add_neighbor_hits(newly, residual, -1, live)

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
        bucket = by_degree[bucket_end[level - 1] : bucket_end[level]]
        if level in pushed:
            bucket = np.sort(np.concatenate([bucket, pushed.pop(level)]))
        for v in bucket[~covered[bucket]].tolist():
            if is_covered[v]:
                continue
            if track_residual:
                # a stored residual is exact or too high, so it only needs
                # the pending updates when it could make v a pick
                if (
                    residual_of[v] == level
                    and pending_nodes
                    and any(map(is_marked.__getitem__, node_keys[indptr[v] : indptr[v + 1]]))
                ):
                    flush()
                if residual_of[v] != level:
                    if residual_of[v]:  # residual 0 waits for the final step
                        pushed.setdefault(residual_of[v], []).append(v)
                    continue
            selected.append(v)
            closed = graph.closed_neighborhood(v)
            newly = closed[~covered[closed]]
            covered[newly] = True
            uncovered -= newly.size
            if track_residual:
                touched = graph._keys_of(newly)
                marked[touched] = True
                pending_nodes.append(newly)
                pending_keys.append(touched)
    # every node still uncovered has no uncovered neighbor left
    chosen = np.sort(np.concatenate([np.array(selected, dtype=np.int64), np.flatnonzero(~covered)]))

    selset = np.zeros(n, dtype=bool)
    selset[chosen] = True
    uncovered_entities = 0
    if graph.keys:
        represented = np.logical_or.reduceat(selset[graph.key_members], graph.key_indptr[:-1])
        uncovered_entities = int(represented.size - represented.sum())
    return DominatingSetResult(
        selected=tuple(chosen.tolist()),
        iterations=int(chosen.size),
        max_degree=graph.max_degree(),
        covered=n,
        uncovered_entities=uncovered_entities,
    )


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


def export_result(result: DominatingSetResult) -> dict:
    """JSON-ready summary of a solve."""
    return {
        "selected": list(result.selected),
        "size": len(result.selected),
        "max_degree": result.max_degree,
        "bound": approximation_bound(result.max_degree),
    }
