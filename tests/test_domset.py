from __future__ import annotations

import json
import math
import random

import pytest

import oracles
from oracles import brute_force_dominating_set, harmonic
from minprompt.domset import (
    approx_dominating_set,
    approximation_bound,
    export_result,
    is_dominating_set,
)
from minprompt.errors import ValidationError
from minprompt.sentgraph import SentenceGraph


def graph_of(n, postings):
    return SentenceGraph.from_postings(n, postings)


FIGURE_POSTINGS = {"lakers": [0, 1, 2], "arena": [2, 3]}


class TestGreedy:
    def test_shared_entity_fixture_selects_the_hub(self):
        graph = graph_of(4, FIGURE_POSTINGS)
        result = approx_dominating_set(graph)
        assert result.selected == (2,)
        # exhaustive search agrees the optimum has size 1
        assert len(brute_force_dominating_set(graph)) == 1

    def test_edgeless_graph_selects_everything(self):
        result = approx_dominating_set(graph_of(3, {}))
        assert result.selected == (0, 1, 2)

    def test_path_of_four(self):
        graph = graph_of(4, {"a": [0, 1], "b": [1, 2], "c": [2, 3]})
        result = approx_dominating_set(graph)
        assert result.selected == (1, 3)
        assert len(brute_force_dominating_set(graph)) == 2

    def test_empty_graph(self):
        result = approx_dominating_set(graph_of(0, {}))
        assert result.selected == ()

    def test_tie_breaks_toward_smallest_id(self):
        # two disjoint edges: residual degrees all 1; ids decide
        graph = graph_of(4, {"a": [0, 1], "b": [2, 3]})
        assert approx_dominating_set(graph).selected == (0, 2)

    def test_determinism(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 40)
            postings = oracles.random_postings(rng, n, n_entities=8)
            graph = graph_of(n, postings)
            first = approx_dominating_set(graph)
            second = approx_dominating_set(graph)
            assert first.selected == second.selected

    def test_matches_independent_reference_greedy(self):
        rng = random.Random(2024)
        for trial in range(80):
            n = rng.randint(1, 28)
            postings = oracles.random_postings(rng, n, n_entities=rng.randint(1, 9))
            graph = graph_of(n, postings)
            ours = approx_dominating_set(graph).selected
            reference = oracles.reference_greedy(oracles.matrix_from_postings(n, postings))
            assert list(ours) == reference, f"trial {trial} diverged"

    def test_static_degree_variant(self):
        # path 0-1-2-3-4: static degrees select both middle-degree nodes in
        # id order, residual mode skips the node that coverage made useless
        graph = graph_of(5, {"a": [0, 1], "b": [1, 2], "c": [2, 3], "d": [3, 4]})
        residual = approx_dominating_set(graph, degree_mode="residual")
        static = approx_dominating_set(graph, degree_mode="static")
        assert is_dominating_set(graph, residual.selected)
        assert is_dominating_set(graph, static.selected)
        assert static.selected == (1, 3)
        assert residual.selected == (1, 3)

    def test_static_mode_still_valid_on_random_graphs(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(1, 30)
            graph = graph_of(n, oracles.random_postings(rng, n, n_entities=6))
            result = approx_dominating_set(graph, degree_mode="static")
            assert is_dominating_set(graph, result.selected)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            approx_dominating_set(graph_of(1, {}), degree_mode="dynamic")


class TestValidity:
    def test_validity_on_500_random_graphs(self):
        rng = random.Random(424242)
        probabilities = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        checked = 0
        while checked < 500:
            n = rng.randint(1, 64)
            p = rng.choice(probabilities)
            graph = graph_of(n, oracles.gnp_postings(rng, n, p))
            result = approx_dominating_set(graph)
            assert is_dominating_set(graph, result.selected)
            checked += 1


class TestIsDominatingSet:
    def test_fixture_checks(self):
        graph = graph_of(4, FIGURE_POSTINGS)
        assert is_dominating_set(graph, {2})
        assert not is_dominating_set(graph, {3})  # node 0 uncovered

    def test_vacuous_empty_graph(self):
        assert is_dominating_set(graph_of(0, {}), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            is_dominating_set(graph_of(2, {}), [5])


class TestBruteForce:
    def test_star_center(self):
        graph = graph_of(6, {f"spoke{i}": [0, i] for i in range(1, 6)})
        assert brute_force_dominating_set(graph) == [0]

    def test_complete_graph_lexicographic(self):
        graph = graph_of(5, {"k": [0, 1, 2, 3, 4]})
        assert brute_force_dominating_set(graph) == [0]

    def test_cycle_six(self):
        graph = graph_of(6, {f"e{i}": [i, (i + 1) % 6] for i in range(6)})
        result = brute_force_dominating_set(graph)
        assert len(result) == 2
        assert is_dominating_set(graph, result)

    def test_size_limit_enforced(self):
        with pytest.raises(ValidationError, match="25"):
            brute_force_dominating_set(graph_of(26, {}))

    def test_returns_true_optimum(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 10)
            postings = oracles.random_postings(rng, n, n_entities=4)
            graph = graph_of(n, postings)
            best = brute_force_dominating_set(graph)
            assert is_dominating_set(graph, best)
            # nothing smaller dominates
            import itertools

            for smaller in itertools.combinations(range(n), len(best) - 1):
                assert not is_dominating_set(graph, smaller)


class TestApproximationBound:
    def test_values(self):
        assert approximation_bound(1) == pytest.approx(2.0)
        assert approximation_bound(3) == pytest.approx(math.log(3) + 2, abs=1e-12)
        assert approximation_bound(0) == pytest.approx(2.0)  # max(delta, 1) guard

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            approximation_bound(-1)

    def test_bound_holds_against_oracle(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 12)
            graph = graph_of(n, oracles.gnp_postings(rng, n, rng.choice([0.2, 0.5, 0.8])))
            greedy = approx_dominating_set(graph)
            optimum = brute_force_dominating_set(graph)
            assert len(greedy.selected) <= approximation_bound(graph.max_degree()) * max(
                len(optimum), 1
            )


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_bracketing_up_to_one_million(self):
        # running sum identical to harmonic()'s accumulation order
        total = 0.0
        checkpoints = {1, 2, 10, 1000, 10**6}
        for n in range(1, 10**6 + 1):
            total += 1.0 / n
            assert math.log(n) < total <= math.log(n) + 1.0
            if n in checkpoints:
                assert harmonic(n) == pytest.approx(total, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            harmonic(0)


def test_export_result_schema():
    graph = graph_of(4, FIGURE_POSTINGS)
    payload = export_result(approx_dominating_set(graph))
    assert payload == {
        "selected": [2],
        "size": 1,
        "max_degree": 3,
        "bound": pytest.approx(math.log(3) + 2),
    }
    json.dumps(payload)  # JSON-serializable
