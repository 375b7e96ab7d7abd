"""Greedy dominating-set approximation.

The greedy keeps a max-priority queue of uncovered nodes keyed by residual
degree (count of currently uncovered neighbors). Covered nodes leave
candidacy permanently. Priorities in the heap are corrected lazily: the
residual-degree array is kept exact by decrements, and a popped entry
whose stored priority is stale gets re-pushed with the current value.
Ties break toward the smallest sentence id. Queue work is O(E log V) and
auxiliary state is O(V).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sentgraph import SentenceGraph

DEGREE_RESIDUAL = "residual"
DEGREE_STATIC = "static"


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
    check_steps: bool = False,
) -> DominatingSetResult:
    """Greedy selection of a dominating set over the posting-list graph.

    degree_mode='static' never updates priorities after the initial build
    (comparison variant); check_steps scans the queue at every selection
    to assert the popped node really has the maximum residual degree.
    """
    if degree_mode not in (DEGREE_RESIDUAL, DEGREE_STATIC):
        raise ValidationError(f"unknown degree mode {degree_mode!r}")
    n = graph.node_count
    postings = graph.postings
    node_keys = graph.node_keys
    covered = np.zeros(n, dtype=bool)
    residual = graph.cached_degrees.astype(np.int64)
    alive = {key: members.size for key, members in postings.items()}
    track_residual = degree_mode == DEGREE_RESIDUAL

    heap = [(-int(d), v) for v, d in enumerate(graph.cached_degrees)]
    heapq.heapify(heap)

    selected: list[int] = []
    while heap:
        neg_priority, v = heapq.heappop(heap)
        if covered[v]:
            continue
        if track_residual and -neg_priority != residual[v]:
            heapq.heappush(heap, (-int(residual[v]), v))
            continue
        if check_steps and track_residual:
            uncovered = ~covered
            assert residual[v] == residual[uncovered].max(), (
                f"popped node {v} with residual {residual[v]} but queue max is "
                f"{residual[uncovered].max()}"
            )
        selected.append(v)

        closed = graph.closed_neighborhood(v)
        newly = closed[~covered[closed]]
        covered[newly] = True
        # alive[k] tracks k's uncovered member count; decrement for every
        # newly covered member before the neighbor scans below rely on it.
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

    selset = np.zeros(n, dtype=bool)
    if selected:
        selset[np.array(selected, dtype=np.int64)] = True
    uncovered_entities = sum(
        1 for members in postings.values() if not selset[members].any()
    )
    return DominatingSetResult(
        selected=tuple(sorted(selected)),
        iterations=len(selected),
        max_degree=graph.max_degree(),
        covered=int(covered.sum()),
        uncovered_entities=uncovered_entities,
    )


def is_dominating_set(graph: SentenceGraph, candidate) -> bool:
    """True iff every node is in the candidate set or adjacent to a member."""
    n = graph.node_count
    ids = list(candidate)
    for v in ids:
        if not 0 <= v < n:
            raise ValidationError(f"candidate id {v} out of range 0..{n - 1}")
    dominated = np.zeros(n, dtype=bool)
    for v in ids:
        dominated[graph.closed_neighborhood(v)] = True
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
