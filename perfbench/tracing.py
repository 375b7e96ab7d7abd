"""Spans around calls into minprompt's public module attributes.

`Tracer.install()` replaces each attribute listed in `TRACED` with a
wrapper that records a span (name, start, end, parent) and, for some
calls, a count taken from the arguments or the result. Spans stay in
memory; `Tracer.restore()` puts every original attribute back.
`layer_metrics` turns the spans and counts of one traced run into the
per-layer metrics. Nothing here is imported by minprompt itself.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _len_result(counts, name):
    def hook(result, args, kwargs):
        counts[name] += len(result)
    return hook


def _graph_hook(counts, result, args, kwargs):
    counts["sentgraph.edges"] = result.edge_count()
    counts["sentgraph.posting_length"] = sum(p.size for p in result.postings.values())
    counts["sentgraph.max_degree"] = result.max_degree()


def _solve_hook(counts, result, args, kwargs):
    graph = args[0] if args else kwargs["graph"]
    counts["domset.nodes"] = graph.node_count
    counts["domset.selected"] = len(result.selected)


def _assemble_hook(counts, result, args, kwargs):
    selected, mentions = args[0], args[2]
    styles = kwargs.get("styles", ("wh",))
    counts["qgen.samples"] = len(result)
    counts["qgen.slots"] = sum(len(mentions.get(sid, ())) for sid in selected) * len(styles)


def _gazetteer_hook(counts, result, args, kwargs):
    counts["entities.gazetteer_terms"] = max(counts["entities.gazetteer_terms"], len(result))


def _retrieve_hook(counts, result, args, kwargs):
    counts["retrieval.hits"] += result is not None


# (module, owner attribute or None, attribute, span name, result hook)
# Hooks run after the span closes, so their cost is tracing overhead.
TRACED = (
    ("corpus", None, "ingest", "corpus.ingest", None),
    ("corpus", None, "segment_corpus", "corpus.segment_corpus", "corpus.sentences"),
    ("entities", None, "load_gazetteers", "entities.load_gazetteers", _gazetteer_hook),
    ("entities", None, "recognize", "entities.recognize", None),
    ("entities", None, "recognize_builtin", "entities.recognize_builtin", "entities.mentions"),
    ("retrieval", None, "build_index", "retrieval.build_index", None),
    ("retrieval", None, "rank", "retrieval.rank", None),
    ("retrieval", None, "retrieve_support_sentence", "retrieval.retrieve_support_sentence",
     _retrieve_hook),
    ("sentgraph", None, "build_graph", "sentgraph.build_graph", None),
    ("sentgraph", "SentenceGraph", "from_postings", "sentgraph.from_postings", _graph_hook),
    ("sentgraph", "SentenceGraph", "closed_neighborhood", "domset.closed_neighborhood", None),
    ("sentgraph", None, "read_postings_dump", "sentgraph.read_postings_dump", None),
    ("sentgraph", None, "write_postings_dump", "sentgraph.write_postings_dump", None),
    ("domset", None, "approx_dominating_set", "domset.approx_dominating_set", _solve_hook),
    ("qgen", None, "assemble_dataset", "qgen.assemble_dataset", _assemble_hook),
    ("qgen", None, "write_samples_jsonl", "qgen.write_samples_jsonl", None),
    ("pipeline", "StageClock", "run", None, None),  # named pipeline.stage.<stage>
    ("pipeline", None, "write_documents", "pipeline.write_documents", None),
    ("pipeline", None, "write_sentences", "pipeline.write_sentences", None),
    ("pipeline", None, "write_mentions", "pipeline.write_mentions", None),
    ("pipeline", None, "write_jsonl", "pipeline.write_jsonl", None),
    ("pipeline", None, "read_documents", "pipeline.read_documents", None),
    ("pipeline", None, "read_sentences", "pipeline.read_sentences", None),
    ("pipeline", None, "read_mentions", "pipeline.read_mentions", None),
    ("pipeline", None, "read_jsonl", "pipeline.read_jsonl", None),
    ("cli", None, "main", "cli.main", None),
)

STAGES = ("ingest", "recognize", "retrieve", "build_graph", "dominating_set", "generate", "write")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        if isinstance(hook, str):
            hook = _len_result(counts, hook)
        elif hook is not None:
            hook = functools.partial(hook, counts)

        def traced(*args, **kwargs):
            # StageClock.run(self, stage, func, ...): the stage names the span
            span_name = name or f"pipeline.stage.{args[1]}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, package) -> None:
        """Wrap every TRACED attribute of the imported minprompt `package`."""
        for module_name, owner_name, attr, name, hook in TRACED:
            module = getattr(package, module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, hook))
            else:
                wrapped = self._wrap(original, name, hook)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counts, query_sentences: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    Layers a workload never calls read 0. `query_sentences` is the number
    of corpus sentences retrieval queries with.
    """
    counts = defaultdict(float, counts)
    own = self_times(spans)
    incl: defaultdict[str, float] = defaultdict(float)
    excl: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    recognize_s = support_recognize_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        incl[name] += end - start
        excl[name] += own[index]
        calls[name] += 1
        if name.startswith("entities.") and not (
            parent >= 0 and spans[parent][0].startswith("entities.")
        ):
            recognize_s += end - start
            if _has_ancestor(spans, index, "pipeline.stage.retrieve"):
                support_recognize_s += end - start

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    recognized = calls["entities.recognize_builtin"]
    rank_calls = calls["retrieval.rank"]
    metrics = {
        "corpus.ingest_s": incl["corpus.ingest"],
        "corpus.segment_s": incl["corpus.segment_corpus"],
        "corpus.sentences": counts["corpus.sentences"],
        "entities.recognize_s": recognize_s,
        "entities.us_per_sentence": ratio(recognize_s, recognized, 1e6),
        "entities.mentions_per_sentence": ratio(counts["entities.mentions"], recognized),
        "entities.gazetteer_terms": counts["entities.gazetteer_terms"],
        "retrieval.build_index_s": incl["retrieval.build_index"],
        "retrieval.rank_calls": rank_calls,
        "retrieval.rank_s": incl["retrieval.rank"],
        "retrieval.ms_per_rank": ratio(incl["retrieval.rank"], rank_calls, 1e3),
        "retrieval.rank_calls_per_query_sentence": ratio(rank_calls, query_sentences),
        "retrieval.hit_rate": ratio(
            counts["retrieval.hits"], calls["retrieval.retrieve_support_sentence"]
        ),
        "retrieval.support_recognize_s": support_recognize_s,
        "sentgraph.build_s": excl["sentgraph.build_graph"] + incl["sentgraph.from_postings"],
        "sentgraph.read_dump_s": excl["sentgraph.read_postings_dump"],
        "sentgraph.write_dump_s": incl["sentgraph.write_postings_dump"],
        "sentgraph.edges": counts["sentgraph.edges"],
        "sentgraph.posting_length": counts["sentgraph.posting_length"],
        "sentgraph.max_degree": counts["sentgraph.max_degree"],
        "domset.solve_s": incl["domset.approx_dominating_set"],
        "domset.us_per_node": ratio(
            incl["domset.approx_dominating_set"], counts["domset.nodes"], 1e6
        ),
        "domset.neighborhood_calls": calls["domset.closed_neighborhood"],
        "domset.selected": counts["domset.selected"],
        "qgen.assemble_s": incl["qgen.assemble_dataset"],
        "qgen.samples": counts["qgen.samples"],
        "qgen.sample_yield": ratio(counts["qgen.samples"], counts["qgen.slots"]),
        "qgen.write_s": incl["qgen.write_samples_jsonl"],
    }
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}_s"] = incl[f"pipeline.stage.{stage}"]
    metrics["cli.self_s"] = excl["cli.main"]
    return metrics
