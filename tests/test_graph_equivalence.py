"""The CSR graph and the bucket-queue greedy against the dict-based
oracles in oracles.py (per-node union loops and a lazy max-heap), plus
bounds on inputs that used to be quadratic."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import oracles
from minprompt import sentgraph
from minprompt.domset import approx_dominating_set, is_dominating_set
from minprompt.errors import ValidationError
from minprompt.sentgraph import SentenceGraph


@st.composite
def raw_postings(draw):
    """(node count, raw postings, chunk budget): duplicate and unsorted
    ids, empty lists, isolated nodes, sometimes one node with many keys,
    sometimes nodes with key rows around the inclusion-exclusion cap,
    sometimes numpy arrays, and chunk budgets that split owners' rows."""
    n = draw(st.integers(0, 30))
    lists = []
    if n:
        ids = st.integers(0, n - 1)
        lists = draw(st.lists(st.lists(ids, max_size=12), max_size=12))
        if draw(st.booleans()):
            busy = draw(ids)
            lists += [[draw(ids), busy] for _ in range(draw(st.integers(5, 25)))]
        if draw(st.booleans()):
            # each drawn node joins cap - 1 .. cap + 2 keys of a small pool,
            # so long and short rows share keys
            cap = sentgraph._IE_ROW
            pool = [[] for _ in range(draw(st.integers(cap + 2, cap + 6)))]
            for node in draw(st.lists(ids, min_size=1, max_size=8)):
                row = st.integers(0, len(pool) - 1)
                for k in draw(st.sets(row, min_size=cap - 1, max_size=cap + 2)):
                    pool[k].append(node)
            lists += pool
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
            row = graph.node_keys[graph.node_indptr[v] : graph.node_indptr[v + 1]]
            assert tuple(graph.keys[k] for k in row.tolist()) == oracle.node_keys[v]
        for mode in ("residual", "static"):
            ours = approx_dominating_set(graph, degree_mode=mode)
            reference = oracles.heap_dominating_set(oracle, degree_mode=mode)
            assert ours.selected == reference["selected"], mode


@settings(max_examples=200, deadline=None)
@given(raw_postings(), st.data())
def test_is_dominating_set_matches_matrix_oracle(case, data):
    n, postings, _ = case
    graph = SentenceGraph.from_postings(n, postings)
    candidate = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    adjacency = oracles.matrix_from_postings(n, {k: list(v) for k, v in postings.items()})
    expected = oracles.matrix_is_dominating(adjacency, candidate)
    assert is_dominating_set(graph, candidate) == expected


@settings(max_examples=300, deadline=None)
@given(raw_postings(), st.data())
def test_neighbor_hits_match_brute_force(case, data):
    # the kernel behind the long-row degrees and the greedy's long-row
    # updates: distinct owners in any order, step +-1
    n, postings, chunk = case
    with mock.patch.object(sentgraph, "_CHUNK_CODES", chunk):
        graph = SentenceGraph.from_postings(n, postings)
        owners = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
        owners = data.draw(st.permutations(sorted(owners)))
        step = data.draw(st.sampled_from([1, -1]))
        start = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        out = np.array(start, dtype=np.int64)
        graph._add_neighbor_hits(np.array(owners, dtype=np.int64), out, step)
    counted = [set(map(int, members)) for members in postings.values()]
    expected = list(start)
    for v in owners:
        closed = set().union(*(members for members in counted if v in members))
        for w in closed:
            expected[w] += step
    assert out.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(raw_postings())
def test_initial_residuals_equal_the_degrees(case):
    # the greedy's one-by-one re-read, before any pick; the degree pass is
    # its bulk gather
    n, postings, chunk = case
    with mock.patch.object(sentgraph, "_CHUNK_CODES", chunk):
        graph = SentenceGraph.from_postings(n, postings)
        residuals = sentgraph.Residuals(graph, np.zeros(n, dtype=bool))
        keyed = np.flatnonzero(np.diff(graph.node_indptr))
        expected = graph.cached_degrees[keyed].tolist()
        assert [residuals.of(v) for v in keyed.tolist()] == expected


@settings(max_examples=300, deadline=None)
@given(raw_postings(), st.data())
def test_residuals_stay_exact_as_nodes_are_covered(case, data):
    # cover the closed neighborhoods of a few picks, as the greedy does;
    # every uncovered node's residual is then its uncovered neighbors
    n, postings, chunk = case
    with mock.patch.object(sentgraph, "_CHUNK_CODES", chunk):
        graph = SentenceGraph.from_postings(n, postings)
        covered = np.zeros(n, dtype=bool)
        residuals = sentgraph.Residuals(graph, covered)
        keyed = np.flatnonzero(np.diff(graph.node_indptr)).tolist()
        picks = data.draw(st.lists(st.sampled_from(keyed), max_size=4)) if keyed else []
        start = [a.copy() for a in (graph.subset_counts, graph.long_hits, graph.long_members)]
        for v in picks:
            closed = graph.closed_neighborhood(v)
            newly = set(closed[~covered[closed]].tolist())
            before = covered.copy()
            # the array cover or its scalar twin, pick by pick
            size = data.draw(st.sampled_from([0, closed.size]))
            with mock.patch.object(sentgraph, "_SCALAR_PICK", size):
                assert residuals.cover(closed) == len(newly)
            assert set(np.flatnonzero(covered != before).tolist()) == newly
            assert covered[closed].all()
        left = np.array([v for v in keyed if not covered[v]], dtype=np.int64)
        oracle = oracles.DictGraph(n, postings)
        expected = [int((~covered[oracle.closed_neighborhood(v)]).sum()) - 1 for v in left.tolist()]
        for size in (0, left.size):
            with mock.patch.object(sentgraph, "_SCALAR_READ", size):
                assert residuals.of_nodes(left) == expected
        assert [residuals.of(v) for v in left.tolist()] == expected
        # the first cover copied the counts: the graph's stay as they were
        ends = (graph.subset_counts, graph.long_hits, graph.long_members)
        assert all(np.array_equal(a, b) for a, b in zip(start, ends))


@st.composite
def mixed_rows(draw):
    """(node count, raw postings): a few long rows over a pool of small
    keys, short rows joining the pool, and hub keys of short rows only,
    whose picks cover some of the long rows' neighbors before the greedy
    reaches the long rows."""
    cap = sentgraph._IE_ROW
    n = draw(st.integers(cap + 10, 50))
    ids = st.integers(0, n - 1)
    # the largest ids, so ties in a bucket are picked before them
    long_rows = draw(st.lists(st.integers(n // 2, n - 1), min_size=1, max_size=4, unique=True))
    pool = [[] for _ in range(draw(st.integers(cap + 2, cap + 6)))]
    for node in long_rows:
        keys = st.integers(0, len(pool) - 1)
        for k in draw(st.sets(keys, min_size=cap + 1, max_size=len(pool))):
            pool[k].append(node)
    for members in pool:
        members += draw(st.lists(ids, max_size=3))
    postings = {f"p{k}": members for k, members in enumerate(pool)}
    short = ids.filter(lambda v: v not in long_rows)
    for h in range(draw(st.integers(1, 4))):
        postings[f"hub{h}"] = draw(st.lists(short, min_size=2, max_size=20))
    return n, postings


@settings(max_examples=300, deadline=None)
@given(mixed_rows())
def test_mixed_rows_match_heap_oracle(case):
    n, postings = case
    graph = SentenceGraph.from_postings(n, postings)
    stale = []
    original = sentgraph.Residuals._long

    def counted(self, rows):
        values = original(self, rows)
        stale.append(int((values < graph.cached_degrees[rows]).sum()))
        return values

    with mock.patch.object(sentgraph.Residuals, "_long", counted):
        result = approx_dominating_set(graph)
    # steer the search toward long rows read after their residual fell
    target(float(sum(stale)), label="long-row reads below the degree")
    oracle = oracles.DictGraph(n, postings)
    assert result.selected == oracles.heap_dominating_set(oracle)["selected"]


@settings(max_examples=200, deadline=None)
@given(mixed_rows(), st.sampled_from(["residual", "static"]))
def test_array_and_scalar_paths_each_match_heap_oracle(case, mode):
    # the size switches at 0 send every pick and bucket to numpy; above
    # any neighborhood or bucket size, to plain Python
    n, postings = case
    graph = SentenceGraph.from_postings(n, postings)
    expected = oracles.heap_dominating_set(oracles.DictGraph(n, postings), degree_mode=mode)
    for size, unused in ((0, ("_cover_each", "_read_each")), (n + 1, ("_cover_array", "_gather"))):
        with mock.patch.multiple(sentgraph, _SCALAR_PICK=size, _SCALAR_READ=size):
            with mock.patch.multiple(
                sentgraph.Residuals, **{name: mock.DEFAULT for name in unused}
            ) as other_side:
                result = approx_dominating_set(graph, degree_mode=mode)
        assert result.selected == expected["selected"], (mode, size)
        assert not any(m.called for m in other_side.values()), (mode, size)


@settings(max_examples=100, deadline=None)
@given(mixed_rows())
def test_int64_subset_tables_match_the_default_build(case):
    # past _INT32_MAX the subset ids, counts and offsets switch to int64,
    # and so do a level's codes: a cap of 0 switches both, a cap between
    # the table's size and the pair codes' bound only the larger one
    n, postings = case
    default = SentenceGraph.from_postings(n, postings)
    expected = oracles.heap_dominating_set(oracles.DictGraph(n, postings))["selected"]
    table = len(default.keys) + default.subset_ids.size
    pair_codes = len(default.keys) ** 2
    for cap in (0, (table + pair_codes) // 2):
        with mock.patch.object(sentgraph, "_INT32_MAX", cap):
            graph = SentenceGraph.from_postings(n, postings)
            result = approx_dominating_set(graph)
        assert graph.subset_ids.dtype == (np.int64 if table > cap else np.int32), cap
        assert np.array_equal(graph.cached_degrees, default.cached_degrees), cap
        assert result.selected == expected, cap


def test_int64_subset_ids_beside_int32_level_codes():
    # mixed_rows() never gives a subset table past the level codes' bound.
    # Here 8 keys and a few thousand rows, most of 5 keys (31 subsets each),
    # give a table far past the largest level-code bound, 4-key subsets x 8
    # keys = 560: a cap between the two makes the ids int64 and every
    # level's codes int32, and those codes pass 2**8
    rng = random.Random(28)
    n, keys = 3000, 8
    postings = {f"k{k}": [] for k in range(keys)}
    for v in range(n):
        for k in rng.sample(range(keys), rng.choice((1, 2, 5, 5, 5, 5))):
            postings[f"k{k}"].append(v)
    default = SentenceGraph.from_postings(n, postings)
    table = keys + default.subset_ids.size
    code_bound = math.comb(keys, 4) * keys
    assert default.subset_ids.dtype == np.int32 and code_bound < table
    with mock.patch.object(sentgraph, "_INT32_MAX", (code_bound + table) // 2):
        graph = SentenceGraph.from_postings(n, postings)
        result = approx_dominating_set(graph)
    assert graph.subset_ids.dtype == np.int64
    oracle = oracles.DictGraph(n, postings)
    assert np.array_equal(default.cached_degrees, oracle.degrees)
    assert np.array_equal(graph.cached_degrees, default.cached_degrees)
    assert result.selected == oracles.heap_dominating_set(oracle)["selected"]


def assert_degrees_match(n, postings):
    graph = SentenceGraph.from_postings(n, postings)
    assert graph.cached_degrees.tolist() == oracles.DictGraph(n, postings).degrees.tolist()
    return graph


class TestInclusionExclusionDegrees:
    """The counted degrees of short rows, next to long rows, against the
    per-node union loops of oracles.DictGraph."""

    cap = sentgraph._IE_ROW

    def test_rows_at_and_just_past_the_cap(self):
        # node 0 holds cap keys, node 1 cap + 1; both share them with others
        postings = {f"k{j}": [0, 1, 2 + j] for j in range(self.cap)}
        postings["extra"] = [1, 2, 3 + self.cap]
        graph = assert_degrees_match(4 + self.cap, postings)
        assert np.diff(graph.node_indptr)[:2].tolist() == [self.cap, self.cap + 1]

    def test_long_rows_neighbor_short_rows(self):
        # long rows 0-2 share keys with each other and with short rows
        # through their longest key and through their other keys
        rng = random.Random(8)
        n = 40
        postings = {"hub": [0, 1, 2] + rng.sample(range(3, n), 12)}
        for j in range(self.cap + 3):
            postings[f"k{j}"] = [j % 3, (j + 1) % 3] + rng.sample(range(3, n), 3)
        postings.update({f"s{j}": rng.sample(range(3, n), 2) for j in range(20)})
        graph = assert_degrees_match(n, postings)
        lengths = np.diff(graph.node_indptr)
        assert (lengths[:3] > self.cap).all() and (lengths[3:] <= self.cap).any()

    def test_keys_shared_by_long_and_short_rows(self):
        # every key holds the long row 0 and short rows; node 9's short
        # row reaches node 0 through three keys at once
        postings = {f"k{j}": [0, 10 + j] + [9] * (j < 3) for j in range(self.cap + 2)}
        postings["other"] = [9, 10, 11]
        graph = assert_degrees_match(12 + self.cap, postings)
        lengths = np.diff(graph.node_indptr)
        assert lengths[0] > self.cap and lengths[9] == 4 <= self.cap

    def test_node_whose_keys_all_have_one_member(self):
        postings = {f"solo{j}": [0] for j in range(self.cap)}
        postings["pair"] = [1, 2]
        graph = assert_degrees_match(3, postings)
        assert graph.cached_degrees.tolist() == [0, 1, 1]

    def test_isolated_nodes(self):
        graph = assert_degrees_match(6, {"a": [1, 3], "b": [3, 4]})
        assert graph.cached_degrees.tolist() == [0, 1, 0, 2, 1, 0]
        assert assert_degrees_match(4, {}).cached_degrees.tolist() == [0, 0, 0, 0]

    def test_subset_codes_refuse_int64_overflow(self):
        # two 2-key rows over 3 keys: a pair code is below 3 * 3
        postings = {"a": [0, 1], "b": [0], "c": [1]}
        with mock.patch.object(sentgraph, "_INT64_MAX", 8):
            assert_degrees_match(2, postings)
        with mock.patch.object(sentgraph, "_INT64_MAX", 7):
            with pytest.raises(ValidationError, match="overflow int64"):
                SentenceGraph.from_postings(2, postings)


class TestBatchedGreedy:
    """The greedy reads the residuals of a whole bucket in one gather and
    re-reads one by one only the candidates it examines after a pick in
    their bucket; it must still select what the eager heap greedy of
    oracles.py selects."""

    @staticmethod
    def solve_counting_rereads(n, postings):
        graph = SentenceGraph.from_postings(n, postings)
        rereads = []
        original = sentgraph.Residuals.of

        def counted(self, v):
            rereads.append(v)
            return original(self, v)

        with mock.patch.object(sentgraph.Residuals, "of", counted):
            result = approx_dominating_set(graph)
        expected = oracles.heap_dominating_set(oracles.DictGraph(n, postings))
        assert result.selected == expected["selected"]
        return result, rereads

    def test_candidate_after_a_pick_in_its_bucket_is_reread(self):
        # 0 and 2 share the top bucket (degree 5); picking 0 covers 3,
        # which shares key B with 2, so 2's residual is really 4. Node 1
        # (degree 4, smaller id) then comes before 2 and covers it; the
        # gathered residual would have picked 2 at level 5 instead.
        postings = {
            "A": [0, 3, 10, 11],
            "E": [0, 14, 15],
            "B": [2, 3],
            "C": [1, 2, 20, 21],
            "D": [2, 22],
            "F": [1, 23],
        }
        result, rereads = self.solve_counting_rereads(24, postings)
        assert result.selected[:2] == (0, 1)
        # only 2 comes after a pick in its bucket: 1 leads the bucket of
        # 4, 2 is covered by then, and 22's gathered residual is 0
        assert rereads == [2]

    def test_disjoint_picks_are_reread_and_picked(self):
        # three disjoint 5-cliques; member 5i of clique i also neighbors
        # 15 + i, so 0, 5 and 10 are the degree-5 picks. After 0, nodes 5
        # and 10 are re-read, still at 5, and picked; 18's neighbors are
        # all covered, so it waits for the final step.
        postings = {}
        for i in range(3):
            postings[f"S{i}"] = list(range(5 * i, 5 * i + 5))
            postings[f"T{i}"] = [5 * i, 15 + i]
            postings[f"U{i}"] = [15 + i, 18]
        result, rereads = self.solve_counting_rereads(19, postings)
        assert result.selected == (0, 5, 10, 18)
        assert rereads == [5, 10]

    def test_long_row_is_repushed_and_reread(self):
        # node 1 holds 6 keys (a long row): "h" with 2, and one key with
        # each of 3-7; degree 6. Node 8 (degree 8) covers 3 first, so at
        # level 6 the gather finds 1 at 5 and re-pushes it. At level 5,
        # node 0 (degree 5, smaller id) is picked and covers 4, so 1 is
        # re-read at 4, re-pushed again, and picked there.
        postings = {"h": [1, 2], "q": [0, 4], "r": [0, 16, 17, 18, 19]}
        postings.update({f"z{j}": [1, j] for j in range(3, 8)})
        postings.update({"p": [3, 8], "big": list(range(8, 16))})
        graph = SentenceGraph.from_postings(20, postings)
        assert np.diff(graph.node_indptr)[1] > sentgraph._IE_ROW
        assert graph.cached_degrees[[0, 1, 8]].tolist() == [5, 6, 8]
        result, rereads = self.solve_counting_rereads(20, postings)
        assert result.selected == (0, 1, 8)
        assert rereads == [1]

    @staticmethod
    def hub_postings():
        # 20k nodes, three hubs of 3%, 1-6 Zipf-distributed keys per node:
        # rows reach past the inclusion-exclusion cap
        rng = random.Random(20)
        n, tail = 20_000, 3_000
        weights = list(itertools.accumulate(1 / math.sqrt(rank) for rank in range(1, tail + 1)))
        postings = {f"hub{h}": rng.sample(range(n), 600) for h in range(3)}
        for node in range(n):
            for key in rng.choices(range(tail), cum_weights=weights, k=rng.randint(1, 6)):
                postings.setdefault(f"e{key}", []).append(node)
        return n, postings

    def test_hub_graph_matches_heap_oracle(self):
        n, postings = self.hub_postings()
        graph = SentenceGraph.from_postings(n, postings)
        oracle = oracles.DictGraph(n, postings)
        assert graph.cached_degrees.tolist() == oracle.degrees.tolist()
        assert np.diff(graph.node_indptr).max() > sentgraph._IE_ROW
        result = approx_dominating_set(graph)
        assert result.selected == oracles.heap_dominating_set(oracle)["selected"]

    def test_small_picks_and_buckets_make_no_array_calls(self):
        # the hub graph makes 629 picks and reads 472 buckets with
        # uncovered nodes. Measured: only 256 of the picks cover more than
        # sentgraph._SCALAR_PICK nodes with array calls, and only 193 of the
        # buckets hold more than sentgraph._SCALAR_READ nodes and are
        # gathered; the rest stay in plain Python. The bounds sit a little
        # above those counts and below half the picks and buckets.
        graph = SentenceGraph.from_postings(*self.hub_postings())
        with (
            mock.patch.object(SentenceGraph, "closed_neighborhood", autospec=True,
                              side_effect=SentenceGraph.closed_neighborhood) as picks,
            mock.patch.object(sentgraph.Residuals, "_cover_array", autospec=True,
                              side_effect=sentgraph.Residuals._cover_array) as covers,
            mock.patch.object(sentgraph.Residuals, "_gather", autospec=True,
                              side_effect=sentgraph.Residuals._gather) as gathers,
        ):
            approx_dominating_set(graph)
        assert picks.call_count == 629
        assert covers.call_count <= 300
        assert gathers.call_count <= 230


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

    def test_degree_pass_is_linear_at_the_cap(self):
        # 25k and 100k nodes, each holding exactly _IE_ROW keys (the most
        # subsets a counted row has), every key shared by about 10 nodes
        cap = sentgraph._IE_ROW

        def capped_rows(n):
            keys = n // 2
            base = np.random.default_rng(n).integers(0, keys, n)
            key = (base[:, None] + np.arange(cap) * (keys // cap)).ravel() % keys
            order = np.argsort(key, kind="stable")
            members = np.repeat(np.arange(n), cap)[order]
            bounds = np.searchsorted(key[order], np.arange(keys + 1))
            return {f"k{k}": members[bounds[k] : bounds[k + 1]] for k in range(keys)}

        graphs = [SentenceGraph.from_postings(n, capped_rows(n)) for n in (25_000, 100_000)]
        best, peaks = [float("inf")] * 2, []
        for _ in range(3):
            for i, graph in enumerate(graphs):
                begin = time.perf_counter()
                graph._degrees()
                best[i] = min(best[i], time.perf_counter() - begin)
        for graph in graphs:
            tracemalloc.start()
            start = tracemalloc.get_traced_memory()[0]
            graph._degrees()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            tracemalloc.stop()
        postings = [graph.key_members.size for graph in graphs]
        assert postings[1] == 100_000 * cap
        # linear: 4x the postings take well under the 16x of a quadratic pass
        assert best[1] / best[0] < 8, f"times={best}"
        assert best[1] < 20.0
        for peak, length in zip(peaks, postings):
            assert peak < 100 * length, f"{peak / length:.0f} bytes per posting"

    def test_long_rows_reread_inside_a_large_key_stay_linear(self):
        # m long rows share the key "H" (each also holds 5 keys of its
        # own, so H is its longest key); all start at degree m. Outsider
        # i < k has degree m - i and the smaller id, and covers one H
        # member: at each of the top k levels every other H member is
        # re-read after the outsider's pick, about k * m long-row reads,
        # each of which takes H's uncovered members from a count.
        k = 2

        def staircase(m):
            postings = {"H": list(range(k, k + m))}
            fresh = iter(range(k + m, k + m + k * m + m))
            for j in range(m):
                postings.update({f"own{j}.{t}": [k + j] for t in range(5)})
                # H member j neighbors outsider j or a fresh node
                postings[f"link{j}"] = [j if j < k else next(fresh), k + j]
            for i in range(k):
                postings[f"big{i}"] = [i] + [next(fresh) for _ in range(m - i - 1)]
            return k + m + k * m + m, postings

        graphs = [SentenceGraph.from_postings(*staircase(m)) for m in (2000, 4000)]
        best, rereads = [float("inf")] * 2, []
        original = sentgraph.Residuals.of

        def counted(self, v):
            rereads.append(v)
            return original(self, v)

        for _ in range(3):
            for i, graph in enumerate(graphs):
                begin = time.perf_counter()
                with mock.patch.object(sentgraph.Residuals, "of", counted):
                    result = approx_dominating_set(graph)
                best[i] = min(best[i], time.perf_counter() - begin)
        for graph, m in zip(graphs, (2000, 4000)):
            assert np.diff(graph.node_indptr)[k : k + m].min() > sentgraph._IE_ROW
        m = 4000
        assert result.selected[: k + 1] == (0, 1, 2 * k)
        assert is_dominating_set(graphs[1], result.selected)
        assert len(rereads) >= 3 * k * (2000 + m - 2 * k)
        # linear: 2x the members take well under the 4x of a quadratic read
        assert best[1] / best[0] < 3, f"times={best}"
        assert best[1] < 20.0

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
