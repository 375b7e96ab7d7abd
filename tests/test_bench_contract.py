"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracing.py wraps package attributes by name, and derives
entities.us_per_sentence from one recognize_builtin span per sentence and
domset.neighborhood_calls from one closed_neighborhood span per pick. It
is loaded here by path under a module name of its own, because the
benchmark's tests have a conftest of their own and cannot be collected
together with these.
"""

from __future__ import annotations

import importlib.util
import os
from unittest import mock

import minprompt
import minprompt.cli  # TRACED names the cli module, which the package does not import
from conftest import make_sentence
from minprompt import domset, entities, sentgraph
from minprompt.entities import RecognizerConfig

TRACING_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("minprompt_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


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
    hub = domset._SCALAR_PICK + 1
    postings = {"hub": list(range(hub)), "pair": [hub, hub + 1]}
    graph = sentgraph.SentenceGraph.from_postings(hub + 2, postings)
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        with (
            mock.patch.object(sentgraph.Residuals, "cover", autospec=True,
                              side_effect=sentgraph.Residuals.cover) as arrays,
            mock.patch.object(sentgraph.Residuals, "cover_each", autospec=True,
                              side_effect=sentgraph.Residuals.cover_each) as scalar,
        ):
            result = domset.approx_dominating_set(graph)
    finally:
        tracer.restore()
    assert result.selected == (0, hub)
    assert arrays.call_count == scalar.call_count == 1
    neighborhoods = [span for span in tracer.spans if span[0] == "domset.closed_neighborhood"]
    assert len(neighborhoods) == 2
    assert tracing.layer_metrics(tracer.spans, tracer.counts, 0)["domset.neighborhood_calls"] == 2
