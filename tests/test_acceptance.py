"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import time

import pytest

import oracles
from oracles import brute_force_dominating_set
from conftest import FIXTURE_DIR, make_sentence, mention_at
from minprompt.corpus import ingest, segment_corpus
from minprompt.domset import approx_dominating_set, approximation_bound, is_dominating_set
from minprompt.entities import Gazetteer, load_gazetteers, recognize_builtin
from minprompt.pipeline import load_config, run_pipeline
from minprompt.qgen import (
    CLOZE_MASK,
    WhPriors,
    format_prompt,
    generate_cloze,
    generate_wh,
)
from minprompt.retrieval import (
    RetrievalConstraints,
    build_index,
    rank,
    retrieve_support_sentence,
    tokenize,
)
from minprompt.sentgraph import SentenceGraph, build_graph

DOCS_DIR = os.path.join(FIXTURE_DIR, "docs")
GAZETTEER = os.path.join(FIXTURE_DIR, "gazetteer.tsv")

# Frozen 20-document fixture goldens. Computed once from the committed
# fixture by the independent reference path in criterion 10 (adjacency
# matrix + scan greedy); the same test re-derives them on every run.
GOLDEN_NODES = 60
GOLDEN_EDGES = 139
GOLDEN_DOMSET = 21
GOLDEN_SAMPLES = 31


def verdict(number: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] criterion {number:02d} {status}: {description}")
            return False

    return _Reporter()


def test_criterion_01_figure_replication(lakers_sentences):
    with verdict(1, "shared-entity fixture: adjacency, greedy pick, oracle optimum"):
        start = time.perf_counter()
        sentences, mentions = lakers_sentences
        graph = build_graph(sentences, mentions)
        adjacency = {
            frozenset((u, v)) for u in range(4) for v in oracles.graph_neighbors(graph, u)
        }
        # 1-based s1..s4 wiring {1-2, 1-3, 2-3, 3-4}
        assert adjacency == {
            frozenset((0, 1)),
            frozenset((0, 2)),
            frozenset((1, 2)),
            frozenset((2, 3)),
        }
        result = approx_dominating_set(graph)
        assert result.selected == (2,)  # s3
        assert len(brute_force_dominating_set(graph)) == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_02_approximation_bound_on_random_graphs():
    with verdict(2, "greedy within (ln D + 2) of the exhaustive optimum, 315 graphs"):
        start = time.perf_counter()
        probabilities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        checked = 0
        for p_index, p in enumerate(probabilities):
            for seed in range(35):
                rng = random.Random(1000 * p_index + seed)
                n = rng.randint(1, 14)
                graph = SentenceGraph.from_postings(n, oracles.gnp_postings(rng, n, p))
                greedy = approx_dominating_set(graph)
                assert is_dominating_set(graph, greedy.selected)
                optimum = brute_force_dominating_set(graph)
                bound = approximation_bound(graph.max_degree())
                assert len(greedy.selected) <= bound * max(len(optimum), 1), (
                    f"p={p} seed={seed}: |S|={len(greedy.selected)} "
                    f"optimum={len(optimum)} bound={bound:.3f}"
                )
                checked += 1
        assert checked == 315 >= 300
        assert time.perf_counter() - start < 120.0


def _zipf_hub_postings(node_count: int, entity_count: int) -> dict[str, list[int]]:
    rng = random.Random(20240601)
    postings: dict[str, list[int]] = {}
    for hub in range(3):
        postings[f"hub{hub}"] = rng.sample(range(node_count), 3000)
    tail = list(range(3, entity_count))
    cumulative, total = [], 0.0
    for i in range(1, len(tail) + 1):
        total += 1.0 / math.sqrt(i)
        cumulative.append(total)
    for node in range(node_count):
        for key in rng.choices(tail, cum_weights=cumulative, k=rng.randint(1, 3)):
            postings.setdefault(f"e{key}", []).append(node)
    return postings


def test_criterion_03_validity_at_scale():
    with verdict(3, "1e5-sentence synthetic graph (E >= 1e7): valid set in < 60 s"):
        node_count, entity_count = 100_000, 10_000
        postings = _zipf_hub_postings(node_count, entity_count)
        posting_length = sum(len(v) for v in postings.values())
        start = time.perf_counter()
        graph = SentenceGraph.from_postings(node_count, postings)
        result = approx_dominating_set(graph)
        elapsed = time.perf_counter() - start
        assert graph.edge_count() >= 10_000_000
        assert is_dominating_set(graph, result.selected)
        # implicit representation only: stored ids stay postings-sized, no
        # structure grows with the 1e7+ edge count
        stored = sum(arr.size for arr in graph.postings.values())
        assert stored == len({(k, m) for k, arr in postings.items() for m in arr})
        assert stored < posting_length + node_count
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_complexity_smoke():
    with verdict(4, "doubling posting length scales greedy wall time < 2.6x"):

        def clique_union(clique_count: int, clique_size: int = 150) -> SentenceGraph:
            postings = {
                f"c{i}": list(range(i * clique_size, (i + 1) * clique_size))
                for i in range(clique_count)
            }
            return SentenceGraph.from_postings(clique_count * clique_size, postings)

        sizes = (400, 800, 1600, 3200)
        graphs = [clique_union(m) for m in sizes]
        for graph in graphs:
            approx_dominating_set(graph)  # warmup: caches, allocator
        # interleaved passes so clock-speed drift hits all sizes alike
        best = [float("inf")] * len(sizes)
        for _ in range(5):
            for i, graph in enumerate(graphs):
                gc.collect()
                gc.disable()
                begin = time.perf_counter()
                approx_dominating_set(graph)
                best[i] = min(best[i], time.perf_counter() - begin)
                gc.enable()
        ratios = [best[i + 1] / best[i] for i in range(3)]
        assert all(r < 2.6 for r in ratios), f"times={best} ratios={ratios}"


def _fixture_config(tmp_path, out_name: str) -> str:
    out_dir = tmp_path / out_name
    path = tmp_path / f"{out_name}.cfg"
    path.write_text(
        f"input_paths = {DOCS_DIR}\n"
        f"gazetteer_paths = {GAZETTEER}\n"
        "dataset_id = fixture\n"
        "seed = 7\n"
        f"output_dir = {out_dir}\n",
        encoding="utf-8",
    )
    return str(path)


def test_criterion_05_pipeline_determinism(tmp_path):
    with verdict(5, "same seed, two runs: byte-identical JSONL and stats files"):
        first = load_config(_fixture_config(tmp_path, "run_a"))
        second = load_config(_fixture_config(tmp_path, "run_b"))
        run_pipeline(first)
        run_pipeline(second)
        compared = 0
        for name in (
            "documents.jsonl",
            "sentences.jsonl",
            "mentions.jsonl",
            "postings.jsonl",
            "samples.jsonl",
            "stats.json",
            "selection.json",
            "graph_stats.json",
        ):
            a = open(os.path.join(first.output_dir, name), "rb").read()
            b = open(os.path.join(second.output_dir, name), "rb").read()
            assert a == b, f"{name} differs between identical runs"
            compared += 1
        assert compared == 8


def _synthetic_qa_corpus(count: int):
    """Deterministic (sentence, mention, context) triples with answers of
    varied shape, including multibyte text and repeated surfaces."""
    rng = random.Random(97)
    subjects = ["The Lakers", "Zoë Martín", "The committee", "José", "A reporter"]
    verbs = ["visited", "praised", "counted", "left", "measured"]
    answers = [
        ("Los Angeles", "GPE"),
        ("1960", "DATE"),
        ("$5,000", "MONEY"),
        ("42%", "PERCENT"),
        ("Crypto.com Arena", "FAC"),
        ("Björk", "PERSON"),
        ("seventeen", "CARDINAL"),
    ]
    tails = ["last year", "without delay", "again and again", "before dawn", ""]
    triples = []
    for i in range(count):
        subject = rng.choice(subjects)
        verb = rng.choice(verbs)
        answer_surface, answer_type = rng.choice(answers)
        tail = rng.choice(tails)
        text = f"{subject} {verb} {answer_surface}"
        text += f" {tail}." if tail else "."
        sentence = make_sentence(i, text, doc_id=f"doc{i % 10}")
        mention = mention_at(text, answer_surface, answer_type)
        context = f"Intro sentence {i}. {text} Closing remark."
        triples.append((sentence, mention, context))
    return triples


def test_criterion_06_cloze_round_trip():
    with verdict(6, "1000 cloze pairs reconstruct their source byte-exactly"):
        triples = _synthetic_qa_corpus(1000)
        checked = 0
        for sentence, mention, context in triples:
            qa = generate_cloze(sentence, mention, context)
            assert qa.question.count(CLOZE_MASK) == 1
            assert qa.question.replace(CLOZE_MASK, qa.answer, 1) == sentence.text
            checked += 1
        assert checked == 1000


def test_criterion_07_prompt_template_conformance():
    with verdict(7, "1000 samples: input/target differ exactly at the two mask slots"):
        triples = _synthetic_qa_corpus(1000)
        priors = WhPriors.default()
        mask = "<mask>"
        checked = 0
        for i, (sentence, mention, context) in enumerate(triples):
            if i % 2 == 0:
                qa = generate_cloze(sentence, mention, context)
            else:
                qa = generate_wh(sentence, mention, priors, seed=i, context=context)
            sample = format_prompt(qa, mask)
            assert sample is not None
            # exact template strings
            assert sample.target == (
                f"Question: {qa.question} Answer: {qa.answer} Context: {qa.context}"
            )
            context_bytes = qa.context.encode("utf-8")
            position = context_bytes.find(qa.answer.encode("utf-8"))
            assert position >= 0
            masked_context = (
                context_bytes[:position]
                + mask.encode("utf-8")
                + context_bytes[position + len(qa.answer.encode("utf-8")) :]
            ).decode("utf-8")
            assert sample.input == (
                f"Question: {qa.question} Answer: {mask} Context: {masked_context}"
            )
            checked += 1
        assert checked == 1000


def _retrieval_fixture(sentence_count: int = 200):
    rng = random.Random(3105)
    pool = [
        ("Lakers", "ORG"), ("Celtics", "ORG"), ("Boston", "GPE"),
        ("Los Angeles", "GPE"), ("1960", "DATE"), ("1947", "DATE"),
        ("Kobe Bryant", "PERSON"), ("Crypto.com Arena", "FAC"),
        ("Chicago", "GPE"), ("Bulls", "ORG"),
    ]
    sentences, mentions = [], {}
    for i in range(sentence_count):
        picked = rng.sample(pool, rng.randint(1, 3))
        text = "Fact " + str(i) + ": " + " joined ".join(s for s, _ in picked) + "."
        sentence = make_sentence(i, text, doc_id=f"doc{i % 12}")
        sentences.append(sentence)
        mentions[i] = [mention_at(text, s, t) for s, t in picked]
    return sentences, mentions


def test_criterion_08_retrieval_constraints_and_ranking():
    with verdict(8, "every support hit passes independent checks; rank = naive sort"):
        sentences, mentions = _retrieval_fixture(200)
        index = build_index(sentences, mentions)
        constraints = RetrievalConstraints()
        hits = 0
        for query in sentences:
            query_keys = frozenset(m.normalized_key for m in mentions[query.sentence_id])
            ranking = oracles.query_ranking(index, query)
            for answer in mentions[query.sentence_id]:
                hit = retrieve_support_sentence(
                    index, query, answer, query_keys, ranking, constraints
                )
                if hit is None:
                    continue
                hits += 1
                # independent validation straight from the mention table
                hit_keys = {m.normalized_key for m in mentions[hit.sentence_id]}
                assert answer.normalized_key in hit_keys
                assert hit.doc_id != query.doc_id
                assert len((hit_keys & query_keys) - {answer.normalized_key}) >= 1
                assert hit.text != query.text
        assert hits >= 100, f"only {hits} retrievals succeeded on the fixture"

        # BM25 ordering equals a naive full sort on small corpora
        rng = random.Random(64)
        vocabulary = ["lakers", "boston", "arena", "title", "game", "city"]
        for _ in range(12):
            n = rng.randint(1, 20)
            texts = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 7))) for _ in range(n)]
            small = build_index([make_sentence(i, t) for i, t in enumerate(texts)])
            query = rng.choices(vocabulary, k=rng.randint(1, 3))
            scores = oracles.naive_bm25_scores([tokenize(t) for t in texts], query)
            expected = sorted(range(n), key=lambda sid: (-scores[sid], sid))
            got = [sid for sid, _ in rank(small, query)]
            assert got == expected


def test_criterion_09_token_f1_oracle():
    with verdict(9, "token F1 matches the bag-of-words definition on 50 cases"):
        from minprompt.evaluation import token_f1

        rng = random.Random(12021)
        vocabulary = ["the", "haploid", "number", "lakers", "23", "of", "cells", "arena"]
        cases = [
            ("the haploid number", ["haploid number"]),   # 0.8 by hand
            ("a b", ["a b", "zzz"]),                      # max-over-golds = 1.0
            ("23", ["haploid number", "23"]),
            ("", ["anything"]),
            ("anything", ["x y z"]),
        ]
        while len(cases) < 50:
            prediction = " ".join(rng.choices(vocabulary, k=rng.randint(0, 6)))
            golds = [
                " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))
            ]
            cases.append((prediction, golds))
        assert len(cases) == 50
        assert token_f1("the haploid number", ["haploid number"]) == pytest.approx(0.8)
        for prediction, golds in cases:
            expected = oracles.naive_token_f1(prediction, golds)
            assert abs(token_f1(prediction, golds) - expected) <= 1e-9


def test_criterion_10_fixture_goldens(tmp_path):
    with verdict(10, "20-document fixture reproduces the frozen golden quadruple"):
        config = load_config(_fixture_config(tmp_path, "golden_run"))
        stats = run_pipeline(config)
        assert stats.nodes == GOLDEN_NODES
        assert stats.edges == GOLDEN_EDGES
        assert stats.dominating_set == GOLDEN_DOMSET
        assert stats.training_samples == GOLDEN_SAMPLES

        # re-derive nodes/edges/selection through the reference path:
        # explicit adjacency matrix plus the independent scan greedy
        paths = sorted(
            os.path.join(DOCS_DIR, name) for name in os.listdir(DOCS_DIR)
        )
        documents = ingest(paths, "plain_text", "fixture")
        sentences = segment_corpus(documents)
        gazetteer = Gazetteer(load_gazetteers([GAZETTEER]))
        mentions = {
            s.sentence_id: recognize_builtin(s, gazetteer) for s in sentences
        }
        postings: dict[str, list[int]] = {}
        for sentence in sentences:
            for key in {m.normalized_key for m in mentions[sentence.sentence_id]}:
                postings.setdefault(key, []).append(sentence.sentence_id)
        adjacency = oracles.matrix_from_postings(len(sentences), postings)
        assert len(sentences) == GOLDEN_NODES
        assert oracles.matrix_edge_count(adjacency) == GOLDEN_EDGES
        reference_selection = oracles.reference_greedy(adjacency)
        assert len(reference_selection) == GOLDEN_DOMSET
        with open(os.path.join(config.output_dir, "selection.json"), encoding="utf-8") as fh:
            assert json.load(fh)["selected"] == reference_selection
        samples = [
            json.loads(line)
            for line in open(
                os.path.join(config.output_dir, "samples.jsonl"), encoding="utf-8"
            )
        ]
        assert len(samples) == GOLDEN_SAMPLES
