"""End-to-end orchestration: config, stage execution, artifacts, stats.

Each stage persists its output next to the final dataset so later stages
(and the CLI subcommands) can resume from disk:

    documents.jsonl   ingested documents
    sentences.jsonl   segmented sentences (retrieved ones appended)
    mentions.jsonl    entity mentions, sidecar-compatible records
    retrieved.jsonl   retrieved-sentence provenance (when retrieval is on)
    postings.jsonl    entity -> sentence-id posting lists
    graph_stats.json  node/edge/entity counts
    selection.json    dominating-set result
    samples.jsonl     the training samples
    stats.json        pipeline statistics (deterministic)
    timings.json      per-stage wall times (not deterministic)
    effective_config.cfg  resolved configuration echo

Outputs are byte-identical across runs with the same inputs and seed;
wall times therefore live in timings.json, not stats.json.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields

from . import corpus as corpus_mod
from . import domset as domset_mod
from . import entities as entities_mod
from . import qgen as qgen_mod
from . import retrieval as retrieval_mod
from . import sentgraph as sentgraph_mod
from .corpus import Document, Sentence
from .entities import EntityMention, RecognizerConfig
from .errors import StageError, ValidationError
from .qgen import RetrievedContext, WhPriors

STYLE_CHOICES = ("wh", "cloze", "both")

WORKERS_ENV = "MINPROMPT_WORKERS"

CONFIG_ECHO_NAME = "effective_config.cfg"


@dataclass
class PipelineConfig:
    input_paths: tuple[str, ...] = ()
    input_format: str = corpus_mod.PLAIN_TEXT
    dataset_id: str = ""
    dedup_contexts: bool = False
    abbreviations_path: str | None = None
    recognizer_mode: str = entities_mod.MODE_BUILTIN
    gazetteer_paths: tuple[str, ...] = ()
    sidecar_path: str | None = None
    service_endpoint: str | None = None
    service_timeout: float = 10.0
    service_batch_size: int = 64
    stoplist_path: str | None = None
    graph_scope: str = sentgraph_mod.SCOPE_CORPUS
    degree_mode: str = domset_mod.DEGREE_RESIDUAL
    retrieval_enabled: bool = False
    support_paths: tuple[str, ...] = ()
    support_format: str = corpus_mod.PLAIN_TEXT
    support_sidecar_path: str | None = None
    retrieval_top_k: int = 50
    require_answer_entity: bool = True
    exclude_source_context: bool = True
    min_extra_shared_entities: int = 1
    question_style: str = "wh"
    template_order: str = qgen_mod.ORDER_WH_B_A
    priors_path: str | None = None
    mask_token: str = qgen_mod.DEFAULT_MASK_TOKEN
    lambda_weight: float = 1.0
    seed: int = 0
    output_dir: str = "out"
    workers: int | None = None

    def styles(self) -> tuple[str, ...]:
        if self.question_style == "both":
            return (qgen_mod.STYLE_CLOZE, qgen_mod.STYLE_WH)
        return (self.question_style,)

    def effective_workers(self) -> int:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise ValidationError(f"{WORKERS_ENV}={env!r} is not an integer") from exc
            if value < 1:
                raise ValidationError(f"{WORKERS_ENV} must be >= 1")
            return value
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1

    def recognizer_config(self) -> RecognizerConfig:
        return RecognizerConfig(
            mode=self.recognizer_mode,
            gazetteer_paths=self.gazetteer_paths,
            sidecar_path=self.sidecar_path,
            service_endpoint=self.service_endpoint,
            service_timeout=self.service_timeout,
            service_batch_size=self.service_batch_size,
            max_in_flight=min(4, self.effective_workers()),
        )

    def validate(self) -> None:
        if self.input_format not in corpus_mod.FORMATS:
            raise ValidationError(f"unknown input_format {self.input_format!r}")
        if self.support_format not in corpus_mod.FORMATS:
            raise ValidationError(f"unknown support_format {self.support_format!r}")
        if self.question_style not in STYLE_CHOICES:
            raise ValidationError(f"question_style must be one of {STYLE_CHOICES}")
        if self.template_order not in qgen_mod.TEMPLATE_ORDERS:
            raise ValidationError(f"unknown template_order {self.template_order!r}")
        if self.graph_scope not in sentgraph_mod.SCOPES:
            raise ValidationError(f"unknown graph_scope {self.graph_scope!r}")
        if self.degree_mode not in (domset_mod.DEGREE_RESIDUAL, domset_mod.DEGREE_STATIC):
            raise ValidationError(f"unknown degree_mode {self.degree_mode!r}")
        if self.lambda_weight <= 0:
            raise ValidationError("lambda_weight must be > 0")
        if self.retrieval_top_k < 1:
            raise ValidationError("retrieval_top_k must be >= 1")
        if self.min_extra_shared_entities < 0:
            raise ValidationError("min_extra_shared_entities must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not self.input_paths:
            raise ValidationError("input_paths is required")
        self.recognizer_config().validate()
        if self.retrieval_enabled and not self.support_paths:
            raise ValidationError("retrieval_enabled requires support_paths")
        for path in self._referenced_paths():
            if not os.path.exists(path):
                raise ValidationError(f"configured path does not exist: {path}")

    def _referenced_paths(self) -> list[str]:
        paths = list(self.input_paths) + list(self.gazetteer_paths) + list(self.support_paths)
        for optional in (
            self.abbreviations_path,
            self.sidecar_path,
            self.stoplist_path,
            self.support_sidecar_path,
            self.priors_path,
        ):
            if optional:
                paths.append(optional)
        return paths


# key -> parse/format kind for the flat config-file syntax
CONFIG_KINDS = {
    "input_paths": "pathlist",
    "input_format": "str",
    "dataset_id": "str",
    "dedup_contexts": "bool",
    "abbreviations_path": "optpath",
    "recognizer_mode": "str",
    "gazetteer_paths": "pathlist",
    "sidecar_path": "optpath",
    "service_endpoint": "optstr",
    "service_timeout": "float",
    "service_batch_size": "int",
    "stoplist_path": "optpath",
    "graph_scope": "str",
    "degree_mode": "str",
    "retrieval_enabled": "bool",
    "support_paths": "pathlist",
    "support_format": "str",
    "support_sidecar_path": "optpath",
    "retrieval_top_k": "int",
    "require_answer_entity": "bool",
    "exclude_source_context": "bool",
    "min_extra_shared_entities": "int",
    "question_style": "str",
    "template_order": "str",
    "priors_path": "optpath",
    "mask_token": "str",
    "lambda_weight": "float",
    "seed": "int",
    "output_dir": "path",
    "workers": "optint",
}


def parse_config_value(key: str, kind: str, raw: str, base_dir: str):
    raw = raw.strip()
    if kind in ("optpath", "optstr", "optint") and raw == "":
        return None
    if kind == "str" or kind == "optstr":
        return raw
    if kind == "bool":
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ValidationError(f"config key {key}: expected true/false, got {raw!r}")
    if kind == "int" or kind == "optint":
        try:
            return int(raw)
        except ValueError as exc:
            raise ValidationError(f"config key {key}: expected integer, got {raw!r}") from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ValidationError(f"config key {key}: expected number, got {raw!r}") from exc
    if kind in ("path", "optpath"):
        return os.path.abspath(os.path.join(base_dir, raw))
    if kind == "pathlist":
        if raw == "":
            return ()
        return tuple(
            os.path.abspath(os.path.join(base_dir, part.strip()))
            for part in raw.split(",")
            if part.strip()
        )
    raise AssertionError(f"unhandled config kind {kind}")


def _format_value(kind: str, value) -> str:
    if value is None:
        return ""
    if kind == "bool":
        return "true" if value else "false"
    if kind == "pathlist":
        return ", ".join(value)
    return str(value)


def load_config(path: str) -> PipelineConfig:
    """Parse the flat `key = value` config file; paths resolve relative to it."""
    base_dir = os.path.dirname(os.path.abspath(path))
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_KINDS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = parse_config_value(key, CONFIG_KINDS[key], raw, base_dir)
    return PipelineConfig(**values)


def write_config_echo(config: PipelineConfig, path: str) -> None:
    """Dump the fully resolved config; re-running from it reproduces outputs."""
    lines = ["# resolved minprompt pipeline configuration"]
    for f in fields(PipelineConfig):
        kind = CONFIG_KINDS[f.name]
        lines.append(f"{f.name} = {_format_value(kind, getattr(config, f.name))}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def expand_input_paths(paths: tuple[str, ...]) -> tuple[str, ...]:
    """Directories expand to their (sorted) regular files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if os.path.isfile(os.path.join(path, name))
            )
            if not entries:
                raise ValidationError(f"input directory {path} contains no files")
            out.extend(entries)
        else:
            out.append(path)
    if not out:
        raise ValidationError("no input files found")
    return tuple(out)


@dataclass
class PipelineStats:
    nodes: int = 0
    edges: int = 0
    dominating_set_size: int = 0
    training_samples: int = 0
    entities: int = 0
    max_degree: int = 0
    bound: float = 2.0
    timings_ms: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "dominating_set": self.dominating_set_size,
            "training_samples": self.training_samples,
            "entities": self.entities,
            "max_degree": self.max_degree,
            "bound": self.bound,
            "timings_ms": dict(self.timings_ms),
        }


def stats_table(stats: PipelineStats) -> str:
    rows = [
        ("# nodes", stats.nodes),
        ("# edges", stats.edges),
        ("# dominating set", stats.dominating_set_size),
        ("# training samples", stats.training_samples),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def stats_report(stats: PipelineStats, out_dir: str) -> str:
    """Write the machine-readable stats files and return the table text."""
    write_stats_files(stats, out_dir)
    return stats_table(stats)


class StageClock:
    """Runs stage bodies, records wall times, and tags failures."""

    def __init__(self):
        self.timings_ms: dict[str, int] = {}

    def run(self, stage: str, func, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            raise StageError(stage, str(exc)) from exc
        self.timings_ms[stage] = int((time.perf_counter() - start) * 1000)
        return result


# ---------------------------------------------------------------------------
# artifact io


def write_jsonl(records, path: str) -> None:
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if lines:
            handle.write("\n".join(lines) + "\n")


def read_jsonl(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped:
                records.append(json.loads(stripped))
    return records


def write_documents(documents: list[Document], path: str) -> None:
    write_jsonl(
        (
            {
                "doc_id": d.doc_id,
                "dataset_id": d.dataset_id,
                "text": d.text,
                "source_path": d.source_path,
            }
            for d in documents
        ),
        path,
    )


def read_documents(path: str) -> list[Document]:
    return [Document(**record) for record in read_jsonl(path)]


def write_sentences(sentences: list[Sentence], path: str) -> None:
    write_jsonl(
        (
            {
                "sentence_id": s.sentence_id,
                "doc_id": s.doc_id,
                "start": s.char_span[0],
                "end": s.char_span[1],
                "text": s.text,
                "origin": s.origin,
            }
            for s in sentences
        ),
        path,
    )


def read_sentences(path: str) -> list[Sentence]:
    return [
        Sentence(
            sentence_id=r["sentence_id"],
            doc_id=r["doc_id"],
            char_span=(r["start"], r["end"]),
            text=r["text"],
            origin=r["origin"],
        )
        for r in read_jsonl(path)
    ]


def write_mentions(mentions: dict[int, list[EntityMention]], path: str) -> None:
    records = []
    for sid in sorted(mentions):
        for m in mentions[sid]:
            records.append(
                {
                    "sentence_id": sid,
                    "start": m.char_span[0],
                    "end": m.char_span[1],
                    "surface": m.surface,
                    "type": m.entity_type,
                }
            )
    write_jsonl(records, path)


def read_mentions(path: str, sentences: list[Sentence]) -> dict[int, list[EntityMention]]:
    # mentions.jsonl is sidecar-compatible, so the sidecar loader validates it
    return entities_mod.load_sidecar(path, sentences)


# ---------------------------------------------------------------------------
# stage bodies


def stage_ingest(config: PipelineConfig) -> tuple[list[Document], list[Sentence]]:
    paths = expand_input_paths(config.input_paths)
    documents = corpus_mod.ingest(
        paths, config.input_format, config.dataset_id, config.dedup_contexts
    )
    abbreviations = (
        corpus_mod.load_abbreviations(config.abbreviations_path)
        if config.abbreviations_path
        else corpus_mod.DEFAULT_ABBREVIATIONS
    )
    sentences = corpus_mod.segment_corpus(documents, abbreviations)
    return documents, sentences


def stage_recognize(
    config: PipelineConfig, sentences: list[Sentence]
) -> dict[int, list[EntityMention]]:
    return entities_mod.recognize(sentences, config.recognizer_config())


def build_doc_key_spans(
    sentences: list[Sentence], mentions: dict[int, list[EntityMention]]
) -> dict[str, dict[str, tuple[int, int]]]:
    """Per document, the first occurrence (byte span) of each entity key."""
    spans: dict[str, dict[str, tuple[int, int]]] = {}
    for sentence in sentences:
        if sentence.origin != corpus_mod.ORIGIN_CORPUS:
            continue
        doc_spans = spans.setdefault(sentence.doc_id, {})
        for m in mentions.get(sentence.sentence_id, ()):
            doc_spans.setdefault(
                m.normalized_key,
                (
                    sentence.char_span[0] + m.char_span[0],
                    sentence.char_span[0] + m.char_span[1],
                ),
            )
    return spans


def stage_retrieve(
    config: PipelineConfig,
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
) -> tuple[list[Sentence], dict[int, list[EntityMention]], dict[int, int]]:
    """Retrieve one support sentence per (sentence, mention); append as nodes.

    Returns the extended sentence list, extended mentions, and a map from
    each retrieved sentence id to the query sentence id that fetched it
    first (context provenance).
    """
    support_paths = expand_input_paths(config.support_paths)
    support_docs = corpus_mod.ingest(
        support_paths, config.support_format, config.dataset_id
    )
    abbreviations = (
        corpus_mod.load_abbreviations(config.abbreviations_path)
        if config.abbreviations_path
        else corpus_mod.DEFAULT_ABBREVIATIONS
    )
    support_sentences = corpus_mod.segment_corpus(support_docs, abbreviations)
    if config.support_sidecar_path:
        support_mentions = entities_mod.load_sidecar(
            config.support_sidecar_path, support_sentences
        )
    else:
        gazetteers = entities_mod.load_gazetteers(config.gazetteer_paths)
        support_mentions = {
            s.sentence_id: entities_mod.recognize_builtin(s, gazetteers)
            for s in support_sentences
        }
    index = retrieval_mod.build_index(support_sentences, support_mentions)
    constraints = retrieval_mod.RetrievalConstraints(
        require_answer_entity=config.require_answer_entity,
        exclude_source_context=config.exclude_source_context,
        min_extra_shared_entities=config.min_extra_shared_entities,
    )
    doc_entities: dict[str, set[str]] = {}
    for sentence in sentences:
        keys = doc_entities.setdefault(sentence.doc_id, set())
        keys.update(m.normalized_key for m in mentions.get(sentence.sentence_id, ()))

    extended = list(sentences)
    extended_mentions = dict(mentions)
    query_of: dict[int, int] = {}
    seen_support: dict[tuple[str, tuple[int, int]], int] = {}
    for sentence in sentences:
        sentence_mentions = mentions.get(sentence.sentence_id, ())
        query_keys = frozenset(m.normalized_key for m in sentence_mentions)
        for mention in sorted(sentence_mentions, key=lambda m: m.char_span):
            hit = retrieval_mod.retrieve_support_sentence(
                index,
                sentence,
                mention,
                context_entities=frozenset(doc_entities[sentence.doc_id]),
                constraints=constraints,
                query_keys=query_keys,
                top_k=config.retrieval_top_k,
            )
            if hit is None:
                continue
            identity = (hit.doc_id, hit.char_span)
            if identity in seen_support:
                continue
            new_id = len(extended)
            seen_support[identity] = new_id
            extended.append(
                Sentence(
                    sentence_id=new_id,
                    doc_id=hit.doc_id,
                    char_span=hit.char_span,
                    text=hit.text,
                    origin=corpus_mod.ORIGIN_RETRIEVED,
                )
            )
            extended_mentions[new_id] = list(support_mentions.get(hit.sentence_id, ()))
            query_of[new_id] = sentence.sentence_id
    return extended, extended_mentions, query_of


def stage_build_graph(
    config: PipelineConfig,
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
) -> sentgraph_mod.SentenceGraph:
    stoplist = (
        entities_mod.load_stoplist(config.stoplist_path)
        if config.stoplist_path
        else frozenset()
    )
    return sentgraph_mod.build_graph(sentences, mentions, stoplist, config.graph_scope)


def build_retrieved_context(
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
    documents: dict[str, Document],
    query_of: dict[int, int],
) -> dict[int, RetrievedContext]:
    """Pair each retrieved sentence with its query's source document."""
    by_id = {s.sentence_id: s for s in sentences}
    doc_key_spans = build_doc_key_spans(sentences, mentions)
    out: dict[int, RetrievedContext] = {}
    for retrieved_id, query_id in query_of.items():
        query_doc = by_id[query_id].doc_id
        out[retrieved_id] = RetrievedContext(
            doc_id=query_doc,
            text=documents[query_doc].text,
            key_spans=doc_key_spans.get(query_doc, {}),
        )
    return out


def stage_generate(
    config: PipelineConfig,
    selected,
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
    documents: dict[str, Document],
    query_of: dict[int, int],
):
    priors = (
        WhPriors.from_file(config.priors_path) if config.priors_path else WhPriors.default()
    )
    retrieved_context = build_retrieved_context(sentences, mentions, documents, query_of)
    return qgen_mod.assemble_dataset(
        selected,
        sentences,
        mentions,
        documents,
        priors,
        styles=config.styles(),
        mask_token=config.mask_token,
        lambda_weight=config.lambda_weight,
        seed=config.seed,
        order=config.template_order,
        retrieved_context=retrieved_context,
        dataset_id=config.dataset_id,
    )


def run_pipeline(config: PipelineConfig) -> PipelineStats:
    """Execute every stage, writing all artifacts into config.output_dir."""
    config.validate()
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    clock = StageClock()

    documents, sentences = clock.run("ingest", stage_ingest, config)
    mentions = clock.run("recognize", stage_recognize, config, sentences)

    query_of: dict[int, int] = {}
    if config.retrieval_enabled:
        sentences, mentions, query_of = clock.run(
            "retrieve", stage_retrieve, config, sentences, mentions
        )

    graph = clock.run("build_graph", stage_build_graph, config, sentences, mentions)
    result = clock.run(
        "dominating_set",
        domset_mod.approx_dominating_set,
        graph,
        config.degree_mode,
    )
    doc_map = {d.doc_id: d for d in documents}
    samples = clock.run(
        "generate",
        stage_generate,
        config,
        result.selected,
        sentences,
        mentions,
        doc_map,
        query_of,
    )

    def write_artifacts():
        write_documents(documents, os.path.join(out_dir, "documents.jsonl"))
        write_sentences(sentences, os.path.join(out_dir, "sentences.jsonl"))
        write_mentions(mentions, os.path.join(out_dir, "mentions.jsonl"))
        if config.retrieval_enabled:
            write_jsonl(
                (
                    {"sentence_id": rid, "query_sentence_id": qid}
                    for rid, qid in sorted(query_of.items())
                ),
                os.path.join(out_dir, "retrieved.jsonl"),
            )
        sentgraph_mod.write_postings_dump(graph, os.path.join(out_dir, "postings.jsonl"))
        graph_stats = graph.stats()
        with open(os.path.join(out_dir, "graph_stats.json"), "w", encoding="utf-8") as fh:
            json.dump(graph_stats.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "selection.json"), "w", encoding="utf-8") as fh:
            json.dump(domset_mod.export_result(result), fh, sort_keys=True)
            fh.write("\n")
        qgen_mod.write_samples_jsonl(samples, os.path.join(out_dir, "samples.jsonl"))
        write_config_echo(config, os.path.join(out_dir, CONFIG_ECHO_NAME))

    clock.run("write", write_artifacts)

    stats = PipelineStats(
        nodes=graph.node_count,
        edges=graph.edge_count(),
        dominating_set_size=len(result.selected),
        training_samples=len(samples),
        entities=len(graph.postings),
        max_degree=result.max_degree,
        bound=domset_mod.approximation_bound(result.max_degree),
        timings_ms=clock.timings_ms,
    )
    write_stats_files(stats, out_dir)
    return stats


def write_stats_files(stats: PipelineStats, out_dir: str) -> None:
    """stats.json holds the deterministic fields; wall times go to
    timings.json so reruns stay byte-identical."""
    payload = stats.to_json_dict()
    timings = payload.pop("timings_ms")
    with open(os.path.join(out_dir, "stats.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out_dir, "timings.json"), "w", encoding="utf-8") as handle:
        json.dump({"timings_ms": timings}, handle, sort_keys=True)
        handle.write("\n")


def read_stats(out_dir: str) -> PipelineStats:
    with open(os.path.join(out_dir, "stats.json"), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    timings = {}
    timings_path = os.path.join(out_dir, "timings.json")
    if os.path.exists(timings_path):
        with open(timings_path, "r", encoding="utf-8") as handle:
            timings = json.load(handle).get("timings_ms", {})
    return PipelineStats(
        nodes=payload["nodes"],
        edges=payload["edges"],
        dominating_set_size=payload["dominating_set"],
        training_samples=payload["training_samples"],
        entities=payload["entities"],
        max_degree=payload["max_degree"],
        bound=payload["bound"],
        timings_ms=timings,
    )
