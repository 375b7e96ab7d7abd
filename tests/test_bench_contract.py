"""The benchmark's tracer still finds what it wraps in the package, and
the program still writes the outputs whose digests the benchmark recorded.

perfbench/tracing.py wraps package attributes by name, and derives
entities.us_per_sentence from one recognize_builtin span per sentence and
domset.neighborhood_calls from one closed_neighborhood span per pick. Its
modules are loaded here by path under module names of their own, because
the benchmark's tests have a conftest of their own and cannot be collected
together with these. Nothing here writes into perfbench/.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from unittest import mock

import pytest

import minprompt
import minprompt.cli  # TRACED names the cli module, which the package does not import
from conftest import make_sentence, mention_at
from minprompt import domset, entities, qgen, sentgraph
from minprompt.corpus import Document
from minprompt.entities import RecognizerConfig

PERFBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def load_bench_module(name):
    path = os.path.join(PERFBENCH_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"minprompt_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass resolves its module's annotations there
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")
check = load_bench_module("check")


def test_every_traced_attribute_exists():
    for module_name, owner_name, attr, _span, _hook in tracing.TRACED:
        module = getattr(minprompt, module_name)
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in owner.__dict__, f"{module_name}.{owner_name or ''}{attr}"


def test_builtin_recognize_records_one_span_per_sentence():
    texts = ["The Lakers moved to Los Angeles in 1960.", "He scored forty points.", "no"]
    sentences = [make_sentence(i, text) for i, text in enumerate(texts)]
    original = entities.recognize_builtin
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        mentions = entities.recognize(sentences, RecognizerConfig())
    finally:
        tracer.restore()
    assert entities.recognize_builtin is original
    spans = tracer.spans
    (top,) = [i for i, span in enumerate(spans) if span[0] == "entities.recognize"]
    builtin = [span for span in spans if span[0] == "entities.recognize_builtin"]
    assert len(builtin) == len(sentences)
    assert all(parent == top for _name, _start, _end, parent in builtin)
    metrics = tracing.layer_metrics(spans, tracer.counts, 0)
    assert metrics["entities.mentions_per_sentence"] == (
        sum(map(len, mentions.values())) / len(sentences)
    )


def test_greedy_records_one_neighborhood_span_per_pick():
    # node 2 covers 0-3, node 4 covers 4-5; nodes 6-9 share no key and are
    # selected together in the final step, without a neighborhood call
    postings = {"a": [0, 1, 2], "b": [2, 3], "c": [4, 5]}
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        graph = sentgraph.SentenceGraph.from_postings(10, postings)
        result = domset.approx_dominating_set(graph)
    finally:
        tracer.restore()
    assert result.selected == (2, 4, 6, 7, 8, 9)
    spans = tracer.spans
    (solve,) = [i for i, span in enumerate(spans) if span[0] == "domset.approx_dominating_set"]
    neighborhoods = [span for span in spans if span[0] == "domset.closed_neighborhood"]
    assert len(neighborhoods) == 2
    assert all(parent == solve for _name, _start, _end, parent in neighborhoods)
    metrics = tracing.layer_metrics(spans, tracer.counts, 0)
    assert metrics["domset.neighborhood_calls"] == 2
    assert metrics["domset.selected"] == len(result.selected)
    assert metrics["sentgraph.edges"] == graph.edge_count() == 5


def test_greedy_records_one_neighborhood_span_on_either_cover_path():
    # node 0 holds the hub, with more members than a pick covers in plain
    # Python, so its pick covers with array calls; node `hub` then covers
    # its pair node by node. Each pick records one neighborhood span.
    hub = sentgraph._SCALAR_PICK + 1
    postings = {"hub": list(range(hub)), "pair": [hub, hub + 1]}
    graph = sentgraph.SentenceGraph.from_postings(hub + 2, postings)
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        with (
            mock.patch.object(sentgraph.Residuals, "_cover_array", autospec=True,
                              side_effect=sentgraph.Residuals._cover_array) as arrays,
            mock.patch.object(sentgraph.Residuals, "_cover_each", autospec=True,
                              side_effect=sentgraph.Residuals._cover_each) as scalar,
        ):
            result = domset.approx_dominating_set(graph)
    finally:
        tracer.restore()
    assert result.selected == (0, hub)
    assert arrays.call_count == scalar.call_count == 1
    neighborhoods = [span for span in tracer.spans if span[0] == "domset.closed_neighborhood"]
    assert len(neighborhoods) == 2
    assert tracing.layer_metrics(tracer.spans, tracer.counts, 0)["domset.neighborhood_calls"] == 2


def test_assemble_records_samples_and_yield():
    # three selected mentions in two styles make six slots; the wh question
    # of the first "Paris" holds the second, so it is skipped. Sentence 2
    # is not selected and adds no slot.
    texts = ["The Lakers moved to Los Angeles in 1960.", "Paris loves Paris.", "Boston won."]
    sentences = [make_sentence(i, text, doc_id=f"d{i}") for i, text in enumerate(texts)]
    documents = {s.doc_id: Document(s.doc_id, "", s.text) for s in sentences}
    mentions = {
        0: [mention_at(texts[0], "Lakers", "ORG"), mention_at(texts[0], "Los Angeles", "GPE")],
        1: [mention_at(texts[1], "Paris", "GPE")],
        2: [mention_at(texts[2], "Boston", "GPE")],
    }
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        result = qgen.assemble_dataset(
            [0, 1], sentences, mentions, documents, qgen.WhPriors.default(),
            styles=("cloze", "wh"),
        )
    finally:
        tracer.restore()
    assert len(result) == 5
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 0)
    assert metrics["qgen.samples"] == len(result)
    assert metrics["qgen.sample_yield"] == len(result) / (3 * 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_1_outputs_match_the_recorded_digests(tmp_path, name):
    workload = workloads.generate(name, 1, str(tmp_path))
    assert minprompt.cli.main(workload.argv()) == 0
    recorded = check.recorded_digests(workload)
    assert sorted(recorded) == sorted(check.CHECKED_FILES[workload.command])
    assert check.file_digests(workload) == recorded
