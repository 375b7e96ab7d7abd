from __future__ import annotations

import json
import random
import re

import pytest

import oracles
from conftest import make_sentence, mention_at
from minprompt.errors import ValidationError
from minprompt.sentgraph import (
    SentenceGraph,
    build_graph,
    read_postings_dump,
    write_postings_dump,
)


def graph_of(n, postings):
    return SentenceGraph.from_postings(n, postings)


class TestBuildGraph:
    def test_shared_entity_adjacency(self, lakers_sentences):
        sentences, mentions = lakers_sentences
        graph = build_graph(sentences, mentions)
        assert graph.cached_degrees.tolist() == [2, 2, 3, 1]
        adjacency = {
            frozenset((u, v))
            for u in range(4)
            for v in oracles.graph_neighbors(graph, u)
        }
        assert adjacency == {
            frozenset((0, 1)),
            frozenset((0, 2)),
            frozenset((1, 2)),
            frozenset((2, 3)),
        }

    def test_no_mentions_is_isolated(self):
        sentences = [make_sentence(i, f"Sentence {i}.") for i in range(3)]
        graph = build_graph(sentences, {})
        assert graph.edge_count() == 0
        stats = graph.stats()
        assert stats.isolated_nodes == 3
        assert stats.entities == 0

    def test_single_entity_is_a_clique(self):
        n = 7
        sentences = [make_sentence(i, f"All mention Ubiqui {i}.") for i in range(n)]
        mentions = {
            i: [mention_at(s.text, "Ubiqui", "MISC")] for i, s in enumerate(sentences)
        }
        graph = build_graph(sentences, mentions)
        assert graph.cached_degrees.tolist() == [n - 1] * n
        assert graph.edge_count() == n * (n - 1) // 2

    def test_repeated_mentions_count_once(self):
        text = "Lakers and Lakers again."
        sentences = [make_sentence(0, text), make_sentence(1, "Lakers too.")]
        mentions = {
            0: [mention_at(text, "Lakers", "ORG", 0), mention_at(text, "Lakers", "ORG", 1)],
            1: [mention_at("Lakers too.", "Lakers", "ORG")],
        }
        graph = build_graph(sentences, mentions)
        assert graph.postings["lakers"].tolist() == [0, 1]
        assert graph.edge_count() == 1

    def test_stoplist_drops_keys(self, lakers_sentences):
        sentences, mentions = lakers_sentences
        graph = build_graph(sentences, mentions, stoplist=frozenset({"lakers"}))
        assert "lakers" not in graph.postings
        assert graph.edge_count() == 1  # only the arena edge remains

    def test_document_scope_blocks_cross_document_edges(self):
        s0 = make_sentence(0, "Lakers here.", doc_id="a")
        s1 = make_sentence(1, "Lakers there.", doc_id="b")
        mentions = {
            0: [mention_at(s0.text, "Lakers", "ORG")],
            1: [mention_at(s1.text, "Lakers", "ORG")],
        }
        assert build_graph([s0, s1], mentions).edge_count() == 1
        assert build_graph([s0, s1], mentions, scope="document").edge_count() == 0

    def test_non_dense_ids_rejected(self):
        with pytest.raises(ValidationError, match="dense"):
            build_graph([make_sentence(5, "Hello there.")], {})


class TestQueries:
    def test_neighbors_merged_ascending(self):
        graph = graph_of(4, {"lakers": [0, 1, 2], "arena": [2, 3]})
        assert oracles.graph_neighbors(graph, 2) == [0, 1, 3]
        assert oracles.graph_neighbors(graph, 3) == [2]

    def test_isolated_node_has_no_neighbors(self):
        graph = graph_of(2, {"k": [0]})
        assert oracles.graph_neighbors(graph, 1) == []

    def test_complete_graph_neighbors(self):
        graph = graph_of(4, {"k": [0, 1, 2, 3]})
        assert oracles.graph_neighbors(graph, 0) == [1, 2, 3]

    def test_out_of_range_node_rejected(self):
        graph = graph_of(2, {"k": [0, 1]})
        with pytest.raises(ValidationError):
            graph.closed_neighborhood(2)
        with pytest.raises(ValidationError):
            graph.closed_neighborhood(-1)

    def test_out_of_range_posting_ids_rejected(self):
        # the first key in key order with a bad id is named
        with pytest.raises(ValidationError, match="'b' references ids outside 0..2"):
            graph_of(3, {"c": [-1], "a": [0, 1], "b": [2, 3]})
        with pytest.raises(ValidationError, match="'a'"):
            graph_of(3, {"a": [1, -1]})

    def test_edge_count_examples(self):
        assert graph_of(4, {"a": [0, 1, 2], "b": [2, 3]}).edge_count() == 4
        assert graph_of(3, {}).edge_count() == 0

    def test_glued_triangles_edge_count(self):
        postings = {"a": [0, 1, 2], "b": [2, 3, 4]}
        expected = oracles.matrix_edge_count(oracles.matrix_from_postings(5, postings))
        assert expected == 6
        assert graph_of(5, postings).edge_count() == expected

    def test_stats_fields(self):
        graph = graph_of(5, {"a": [0, 1, 2], "b": [2, 3]})
        stats = graph.stats()
        assert (stats.nodes, stats.edges, stats.entities) == (5, 4, 2)
        assert stats.max_degree == 3
        assert stats.isolated_nodes == 1


class TestBruteForceEquivalence:
    def test_random_small_graphs_match_adjacency_matrix(self):
        rng = random.Random(1234)
        for trial in range(60):
            n = rng.randint(1, 30)
            postings = oracles.random_postings(rng, n, n_entities=rng.randint(1, 10))
            graph = graph_of(n, postings)
            adj = oracles.matrix_from_postings(n, postings)
            assert graph.cached_degrees.tolist() == oracles.matrix_degrees(adj), (
                f"trial {trial}: degrees diverge"
            )
            assert graph.edge_count() == oracles.matrix_edge_count(adj)
            for v in range(n):
                assert oracles.graph_neighbors(graph, v) == oracles.matrix_neighbors(adj, v)

    def test_symmetry(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 25)
            graph = graph_of(n, oracles.random_postings(rng, n, n_entities=6))
            for u in range(n):
                for v in oracles.graph_neighbors(graph, u):
                    assert u in oracles.graph_neighbors(graph, v)


class TestMemoryContract:
    def test_megaclique_edge_count_without_materialization(self):
        # One entity over 1e5 sentences: ~5e9 implicit edges. Any per-edge
        # allocation would not fit in memory; counting must stay O(V).
        n = 100_000
        graph = graph_of(n, {"hub": list(range(n))})
        assert graph.edge_count() == n * (n - 1) // 2  # 4,999,950,000 > 2**32
        assert graph.cached_degrees[0] == n - 1

    def test_auxiliary_structures_are_postings_sized(self):
        n = 1000
        graph = graph_of(n, {"hub": list(range(n))})
        # the implicit representation holds one posting list and the degrees,
        # nothing quadratic
        assert sum(arr.size for arr in graph.postings.values()) == n
        assert len(graph.cached_degrees) == n
        assert not hasattr(graph, "edges")


IDS_BELOW_4 = "sentences must be a list of ids below 4"


class TestDump:
    def test_round_trip(self, tmp_path, lakers_sentences):
        sentences, mentions = lakers_sentences
        graph = build_graph(sentences, mentions)
        path = tmp_path / "postings.jsonl"
        write_postings_dump(graph, str(path))
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert {r["entity"] for r in records} == {"lakers", "crypto.com arena"}
        rebuilt = read_postings_dump(str(path), 4)
        assert rebuilt.cached_degrees.tolist() == graph.cached_degrees.tolist()
        assert rebuilt.edge_count() == graph.edge_count()

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["lakers", [0, 1]]', "expected an object; got ['lakers', [0, 1]]"),
            (
                '{"entity": 3, "sentences": [0, 1]}',
                "entity must be a string no earlier line holds; got 3",
            ),
            ('{"sentences": [0, 1]}', "entity is missing; got {'sentences': [0, 1]}"),
            ('{"entity": "lakers", "sentences": [0.7]}', f"{IDS_BELOW_4}; got [0.7]"),
            ('{"entity": "lakers", "sentences": ["0"]}', f"{IDS_BELOW_4}; got ['0']"),
            ('{"entity": "lakers", "sentences": [0, true]}', f"{IDS_BELOW_4}; got [0, True]"),
            ('{"entity": "lakers", "sentences": 1}', f"{IDS_BELOW_4}; got 1"),
            ('{"entity": "lakers"}', "sentences is missing; got {'entity': 'lakers'}"),
            (
                '{"entity": "lakers", "sentences": [0, 9223372036854775808]}',
                f"{IDS_BELOW_4}; got [0, 9223372036854775808]",
            ),
        ],
        ids=[
            "not_an_object", "int_entity", "no_entity", "float_id", "string_id",
            "bool_id", "id_not_in_a_list", "no_sentences", "id_past_int64",
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "postings.jsonl"
        path.write_text('{"entity": "arena", "sentences": [2, 3]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            read_postings_dump(str(path), 4)

    def test_int_ids_and_empty_lists_accepted(self, tmp_path):
        path = tmp_path / "postings.jsonl"
        path.write_text(
            '{"entity": "arena", "sentences": [2, 3]}\n{"entity": "none", "sentences": []}\n',
            encoding="utf-8",
        )
        assert read_postings_dump(str(path), 4).edge_count() == 1
