"""The CSR graph and the bucket-queue greedy against the dict-based
oracles in oracles.py (per-node union loops and a lazy max-heap), plus
bounds on inputs that used to be quadratic."""

from __future__ import annotations

import random
import time
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minprompt import sentgraph
from minprompt.domset import approx_dominating_set, is_dominating_set
from minprompt.sentgraph import SentenceGraph


@st.composite
def raw_postings(draw):
    """(node count, raw postings, chunk budget): duplicate and unsorted
    ids, empty lists, isolated nodes, sometimes one node with many keys,
    sometimes numpy arrays, and chunk budgets that split owners' rows."""
    n = draw(st.integers(0, 30))
    lists = []
    if n:
        ids = st.integers(0, n - 1)
        lists = draw(st.lists(st.lists(ids, max_size=12), max_size=12))
        if draw(st.booleans()):
            busy = draw(ids)
            lists += [[draw(ids), busy] for _ in range(draw(st.integers(5, 25)))]
    postings = {f"k{i}": members for i, members in enumerate(lists)}
    if draw(st.booleans()):
        postings = {key: np.array(members, dtype=np.int64) for key, members in postings.items()}
    return n, postings, draw(st.sampled_from([1, 2, 7, 1 << 15]))


@settings(max_examples=300, deadline=None)
@given(raw_postings())
def test_graph_matches_dict_oracle(case):
    n, postings, chunk = case
    with mock.patch.object(sentgraph, "_CHUNK_CODES", chunk):
        graph = SentenceGraph.from_postings(n, postings)
        oracle = oracles.DictGraph(n, postings)
        assert graph.cached_degrees.tolist() == oracle.degrees.tolist()
        assert graph.edge_count() == int(oracle.degrees.sum()) // 2
        assert {k: v.tolist() for k, v in graph.postings.items()} == {
            k: v.tolist() for k, v in oracle.postings.items()
        }
        for v in range(n):
            assert graph.closed_neighborhood(v).tolist() == oracle.closed_neighborhood(v).tolist()
        for mode in ("residual", "static"):
            ours = approx_dominating_set(graph, degree_mode=mode)
            reference = oracles.heap_dominating_set(oracle, degree_mode=mode)
            assert ours.selected == reference["selected"], mode
            assert ours.covered == reference["covered"]
            assert ours.uncovered_entities == reference["uncovered_entities"]
            assert ours.iterations == len(ours.selected)


@settings(max_examples=200, deadline=None)
@given(raw_postings(), st.data())
def test_is_dominating_set_matches_matrix_oracle(case, data):
    n, postings, _ = case
    graph = SentenceGraph.from_postings(n, postings)
    candidate = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    adjacency = oracles.matrix_from_postings(n, {k: list(v) for k, v in postings.items()})
    expected = oracles.matrix_is_dominating(adjacency, candidate)
    assert is_dominating_set(graph, candidate) == expected


class TestBounds:
    """Shapes that make per-node unions quadratic build and solve fast."""

    def test_node_with_5000_keys(self):
        rng = random.Random(5)
        n = 20_000
        postings = {f"k{i}": [0] + rng.sample(range(1, n), 20) for i in range(5000)}
        start = time.perf_counter()
        graph = SentenceGraph.from_postings(n, postings)
        result = approx_dominating_set(graph)
        elapsed = time.perf_counter() - start
        distinct = {m for members in postings.values() for m in members}
        assert graph.cached_degrees[0] == len(distinct) - 1
        assert is_dominating_set(graph, result.selected)
        assert elapsed < 20.0, f"took {elapsed:.1f}s"

    def test_20k_member_hub(self):
        # every hub member also shares a small key with 9 others: a union
        # per member would expand the hub 20k times (4e8 ids)
        n = 20_000
        postings = {"hub": list(range(n))}
        postings.update({f"s{i}": list(range(i * 10, i * 10 + 10)) for i in range(n // 10)})
        start = time.perf_counter()
        graph = SentenceGraph.from_postings(n, postings)
        result = approx_dominating_set(graph)
        elapsed = time.perf_counter() - start
        assert graph.cached_degrees.tolist() == [n - 1] * n
        assert result.selected == (0,)
        assert elapsed < 20.0, f"took {elapsed:.1f}s"

    def test_isolated_tail_is_selected_in_one_step(self):
        # 50k nodes, 90% isolated: the greedy selects the 45k isolated
        # nodes together once the queue's max pointer reaches 0
        rng = random.Random(50)
        n, linked = 50_000, 5_000
        postings = {f"k{i}": rng.sample(range(linked), 3) for i in range(2_000)}
        graph = SentenceGraph.from_postings(n, postings)
        calls = []
        original = SentenceGraph.closed_neighborhood

        def counted(self, v):
            calls.append(v)
            return original(self, v)

        start = time.perf_counter()
        with mock.patch.object(SentenceGraph, "closed_neighborhood", counted):
            result = approx_dominating_set(graph)
        elapsed = time.perf_counter() - start
        isolated = int((graph.cached_degrees == 0).sum())
        assert isolated >= n - linked
        assert set(range(linked, n)) <= set(result.selected)
        assert len(calls) <= n - isolated  # one step per non-isolated pick at most
        assert is_dominating_set(graph, result.selected)
        assert elapsed < 20.0, f"took {elapsed:.1f}s"
