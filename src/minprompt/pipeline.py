"""End-to-end orchestration: config, the stage table, artifacts, stats.

Each stage is declared once in STAGES by the artifacts it reads, its body
and the artifacts it writes; ARTIFACTS maps each artifact to its file in
the output directory:

    ingest    documents.jsonl   ingested documents
              sentences.jsonl   segmented sentences
    graph     sentences.jsonl   the same, retrieved ones appended
              mentions.jsonl    entity mentions, sidecar-compatible records
              retrieved.jsonl   each retrieved sentence's query sentence (only with retrieval)
              postings.jsonl    entity -> sentence-id posting lists
              graph_stats.json  node/edge/entity counts
    select    selection.json    dominating-set result
    generate  samples.jsonl     the training samples
              stats.json        pipeline statistics (deterministic)
              timings.json      per-stage wall times and peak RSS (not deterministic)

`run_pipeline` keeps every intermediate in memory and writes each file
once, plus effective_config.cfg (the resolved configuration echo). A
per-stage CLI command validates the config as `run` does, reads its
stage's inputs, runs the body and writes its outputs, so a staged chain
leaves the same files as `run`, stats.json included, all but the echo.
Same inputs and seed give byte-identical outputs, so wall times live in
timings.json only.

Each artifact's record is declared once, next to its writer, as fileio
Fields; its reader checks every record, so a malformed file stops a stage
command with `<file>: malformed artifact`, exit 1.

Each config key is declared once, as a field of PipelineConfig: its
annotation decides how a `key = value` line or a CLI flag is parsed and
echoed, and a key ending in `_path`, `_paths` or `_dir` is a path, resolved
against the config file's directory (the working directory for a flag).
A line starting with `#` is a comment; a later `#` is part of the value.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, NamedTuple

from . import corpus as corpus_mod
from . import domset as domset_mod
from . import entities as entities_mod
from . import qgen as qgen_mod
from . import retrieval as retrieval_mod
from . import sentgraph as sentgraph_mod
from .corpus import Document, Sentence
from .entities import EntityMention, RecognizerConfig
from .errors import ParseError, PipelineError, StageError, ValidationError
from .fileio import (
    COUNT,
    Field,
    dense,
    distinct,
    iter_lines,
    read_json,
    read_jsonl,
    read_text,
    write_json,
    write_jsonl,
    write_text,
)
from .qgen import WhPriors

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

    def recognizer_config(self) -> RecognizerConfig:
        return RecognizerConfig(
            mode=self.recognizer_mode,
            gazetteer_paths=self.gazetteer_paths,
            sidecar_path=self.sidecar_path,
            service_endpoint=self.service_endpoint,
            service_timeout=self.service_timeout,
            service_batch_size=self.service_batch_size,
            max_in_flight=min(4, self.workers or os.cpu_count() or 1),
        )

    def validate(self) -> None:
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValidationError(f"{key} must be one of {', '.join(allowed)}; got {value!r}")
        for key, (op, bound) in LOWER_BOUNDS.items():
            value = getattr(self, key)
            if value is not None and not (value > bound if op == ">" else value >= bound):
                raise ValidationError(f"{key} must be {op} {bound}")
        if not self.input_paths:
            raise ValidationError("input_paths is required")
        if not self.mask_token:
            raise ValidationError("mask_token must not be empty")
        _check_list_values(self)
        self.recognizer_config().validate()
        if self.retrieval_enabled and not self.support_paths:
            raise ValidationError("retrieval_enabled requires support_paths")
        if (
            self.retrieval_enabled
            and self.recognizer_mode == entities_mod.MODE_SIDECAR
            and not self.support_sidecar_path
        ):
            # the query sidecar's sentence ids name query sentences only
            raise ValidationError(
                "recognizer_mode = sidecar with retrieval requires support_sidecar_path"
            )
        for key in INPUT_PATH_KEYS:
            value = getattr(self, key)
            for path in value if isinstance(value, tuple) else (value,):
                if path and not os.path.exists(path):
                    raise ValidationError(
                        f"configured path does not exist: {path}"
                        + (_comma_hint(path) if isinstance(value, tuple) else "")
                    )


def _check_list_values(config: PipelineConfig) -> None:
    """A list element with a comma in it would be read back as several."""
    for key, kind in CONFIG_TYPES.items():
        value = getattr(config, key)
        if kind == "tuple[str, ...]" and any("," in part for part in value):
            raise ValidationError(f"{key}: commas separate list values; got {value!r}")


def _comma_hint(path: str) -> str:
    """A note for a missing list element that is the head of an existing
    path with a comma in it: the list split that path."""
    parent, name = os.path.split(path)
    try:
        joined = min(entry for entry in os.listdir(parent) if entry.startswith(name + ","))
    except (OSError, ValueError):
        return ""
    return f" ({os.path.join(parent, joined)!r} exists, but commas separate list values)"


# Each PipelineConfig field is one config key: its annotation picks the parse
# rule below, and its name ending in one of PATH_SUFFIXES makes it a path.
CONFIG_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
PATH_SUFFIXES = ("_path", "_paths", "_dir")
# the paths validate requires to exist: every one but the output directory
INPUT_PATH_KEYS = tuple(k for k in CONFIG_TYPES if k.endswith(PATH_SUFFIXES) and k != "output_dir")

# key -> its allowed values (recognizer_mode is checked by RecognizerConfig)
CHOICES = {
    "input_format": corpus_mod.FORMATS,
    "support_format": corpus_mod.FORMATS,
    "graph_scope": sentgraph_mod.SCOPES,
    "degree_mode": domset_mod.DEGREE_MODES,
    "question_style": ("wh", "cloze", "both"),
    "template_order": qgen_mod.TEMPLATE_ORDERS,
}

# key -> (comparison, bound) its value must satisfy; an unset (None) value passes
LOWER_BOUNDS = {
    "lambda_weight": (">", 0),
    "retrieval_top_k": (">=", 1),
    "min_extra_shared_entities": (">=", 0),
    "workers": (">=", 1),
}


def _finite(raw: str) -> float:
    # inf or nan would pass on into the stages and into non-JSON artifacts
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# field annotation, less " | None" (an empty value is None) -> (parse, expected);
# parse raises KeyError or ValueError on a bad value
CONFIG_PARSERS = {
    "str": (str, "text"),
    "bool": (lambda raw: {"true": True, "false": False}[raw.lower()], "true/false"),
    "int": (int, "integer"),
    "float": (_finite, "a finite number"),
    "tuple[str, ...]": (lambda raw: tuple(filter(None, map(str.strip, raw.split(",")))), "list"),
}


def parse_config_value(key: str, raw: str, base_dir: str):
    """The value of `key` in its field's type; a path resolves against base_dir."""
    kind = CONFIG_TYPES[key]
    raw = raw.strip()
    if kind.endswith(" | None") and raw == "":
        return None
    parse, expected = CONFIG_PARSERS[kind.removesuffix(" | None")]
    try:
        value = parse(raw)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"config key {key}: expected {expected}, got {raw!r}") from exc
    if not key.endswith(PATH_SUFFIXES):
        return value
    if isinstance(value, tuple):
        return tuple(os.path.abspath(os.path.join(base_dir, part)) for part in value)
    return os.path.abspath(os.path.join(base_dir, value))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(value)
    return "" if value is None else str(value)


def load_config(path: str) -> PipelineConfig:
    """Parse the flat `key = value` config file; paths resolve relative to it."""
    if not os.path.isfile(path):
        raise ValidationError(f"config file {path} does not exist or is not a regular file")
    base_dir = os.path.dirname(os.path.abspath(path))
    values = {}
    for lineno, line in iter_lines(path, comments=True):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in CONFIG_TYPES:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_config_value(key, raw, base_dir)
    return PipelineConfig(**values)


def write_config_echo(config: PipelineConfig, path: str) -> None:
    """Dump the fully resolved config; re-running from it reproduces outputs."""
    _check_list_values(config)
    lines = ["# resolved minprompt pipeline configuration"]
    lines += [f"{key} = {_format_value(getattr(config, key))}" for key in CONFIG_TYPES]
    write_text("\n".join(lines) + "\n", path)


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
    """The deterministic run statistics; its fields are stats.json's keys."""

    nodes: int = 0
    edges: int = 0
    dominating_set: int = 0
    training_samples: int = 0
    entities: int = 0
    max_degree: int = 0
    bound: float = 2.0


def stats_table(stats: PipelineStats) -> str:
    rows = [
        ("# nodes", stats.nodes),
        ("# edges", stats.edges),
        ("# dominating set", stats.dominating_set),
        ("# training samples", stats.training_samples),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


_PROC_STATUS = "/proc/self/status"


def peak_rss_kib() -> int | None:
    """The process's peak resident set size so far, in KiB: VmHWM from
    /proc, else ru_maxrss, which on Linux also counts the peak of the
    process this one was forked from; None where neither exists."""
    if os.path.exists(_PROC_STATUS):
        for line in read_text(_PROC_STATUS).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak  # macOS counts bytes


class StageClock:
    """Runs stage bodies, records each one's wall time and the peak RSS
    after it, and tags failures. `timings` is the timings.json object."""

    def __init__(self):
        self.timings: dict[str, dict[str, int]] = {"timings_ms": {}, "peak_rss_kib": {}}

    def run(self, stage: str, func, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            raise StageError(stage, str(exc)) from exc
        self.timings["timings_ms"][stage] = int((time.perf_counter() - start) * 1000)
        peak = peak_rss_kib()
        if peak is not None:
            self.timings["peak_rss_kib"][stage] = peak
        return result


# ---------------------------------------------------------------------------
# artifact io: each record is declared once, next to its writer, and read
# through fileio's checker. A declaration whose rules name another artifact
# (documents, sentences, the node count) or keep state (ids dense, doc_ids
# distinct) is made per read.


def write_documents(documents: list[Document], path: str) -> None:
    # a Document's fields are the record's keys, in order
    write_jsonl(map(vars, documents), path)


def read_documents(path: str) -> list[Document]:
    fields = {
        "doc_id": Field(str, distinct(), "a string no earlier line holds"),
        "dataset_id": Field(str),
        "text": Field(str),
    }
    return [Document(r["doc_id"], r["dataset_id"], r["text"]) for r in read_jsonl(path, fields)]


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


def read_sentences(path: str, documents: list[Document] | None = None) -> list[Sentence]:
    """sentences.jsonl; with `documents`, each corpus sentence is one's bytes."""
    docs = None if documents is None else {d.doc_id: d.text.encode("utf-8") for d in documents}
    fields = {
        "sentence_id": Field(int, dense(), "the next id: ids run 0, 1, 2, ..."),
        "origin": Field(
            str, lambda v, r: v in corpus_mod.ORIGINS, f"one of {', '.join(corpus_mod.ORIGINS)}"
        ),
        "doc_id": Field(
            str,
            lambda v, r: docs is None or r["origin"] != corpus_mod.ORIGIN_CORPUS or v in docs,
            "the doc_id of a document of documents.jsonl",
        ),
        "start": COUNT,
        "text": Field(
            str,
            lambda v, r: docs is None or r["origin"] != corpus_mod.ORIGIN_CORPUS
            or docs[r["doc_id"]].startswith(v.encode("utf-8"), r["start"]),
            "its document's bytes from start",
        ),
        "end": Field(
            int,
            lambda v, r: v - r["start"] == len(r["text"].encode("utf-8")),
            "start plus the UTF-8 length of text",
        ),
    }
    return [
        Sentence(
            sentence_id=r["sentence_id"],
            doc_id=r["doc_id"],
            char_span=(r["start"], r["end"]),
            text=r["text"],
            origin=r["origin"],
        )
        for r in read_jsonl(path, fields)
    ]


def write_mentions(mentions: dict[int, list[EntityMention]], path: str) -> None:
    write_jsonl(
        (
            {
                "sentence_id": sid,
                "start": m.char_span[0],
                "end": m.char_span[1],
                "surface": m.surface,
                "type": m.entity_type,
            }
            for sid in sorted(mentions)
            for m in mentions[sid]
        ),
        path,
    )


def read_mentions(path: str, sentences: list[Sentence]) -> dict[int, list[EntityMention]]:
    # mentions.jsonl is sidecar-compatible, so the sidecar loader validates it
    return entities_mod.load_sidecar(path, sentences)


# ---------------------------------------------------------------------------
# stage bodies


def ingest_and_segment(
    config: PipelineConfig,
    paths: tuple[str, ...],
    input_format: str,
    dedup_contexts: bool = False,
) -> tuple[list[Document], list[Sentence]]:
    """Ingest one corpus (the input or the support corpus) and segment it."""
    documents = corpus_mod.ingest(
        expand_input_paths(paths), input_format, config.dataset_id, dedup_contexts
    )
    abbreviations = (
        corpus_mod.load_abbreviations(config.abbreviations_path)
        if config.abbreviations_path
        else corpus_mod.DEFAULT_ABBREVIATIONS
    )
    return documents, corpus_mod.segment_corpus(documents, abbreviations)


def stage_retrieve(
    config: PipelineConfig,
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
    recognizer: RecognizerConfig,
) -> tuple[list[Sentence], dict[int, list[EntityMention]], dict[int, int]]:
    """Retrieve one support sentence per (sentence, mention); append as nodes.

    The support corpus is recognized with `recognizer`, the one the input
    corpus used, so the two share its gazetteer; it is dropped once both
    corpora are recognized.
    Returns the extended sentence list, extended mentions, and a map from
    each retrieved sentence id to the query sentence id that fetched it
    first; qgen trains the retrieved sentence on that query's document.
    """
    _, support_sentences = ingest_and_segment(
        config, config.support_paths, config.support_format
    )
    support_recognizer = recognizer
    if config.support_sidecar_path:
        support_recognizer = replace(
            recognizer, mode=entities_mod.MODE_SIDECAR, sidecar_path=config.support_sidecar_path
        )
    support_mentions = entities_mod.recognize(support_sentences, support_recognizer)
    # clear the cached gazetteer, so that it is not held while the index is
    # built and ranked (the run's peak memory)
    vars(recognizer).pop("gazetteer", None)
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
    seen_support: set[int] = set()
    for sentence in sentences:
        sentence_mentions = mentions.get(sentence.sentence_id, ())
        if not sentence_mentions:
            continue
        # the ranking depends on the sentence only, so every mention shares it
        ranking = retrieval_mod.rank(
            index, retrieval_mod.tokenize(sentence.text), limit=config.retrieval_top_k
        )
        for mention in sorted(sentence_mentions, key=lambda m: m.char_span):
            hit = retrieval_mod.retrieve_support_sentence(
                index,
                sentence,
                mention,
                context_entities=doc_entities[sentence.doc_id],
                ranking=ranking,
                constraints=constraints,
            )
            if hit is None or hit.sentence_id in seen_support:
                continue
            seen_support.add(hit.sentence_id)
            new_id = len(extended)
            extended.append(replace(hit, sentence_id=new_id, origin=corpus_mod.ORIGIN_RETRIEVED))
            extended_mentions[new_id] = list(support_mentions.get(hit.sentence_id, ()))
            query_of[new_id] = sentence.sentence_id
    return extended, extended_mentions, query_of


# ---------------------------------------------------------------------------
# the stage table


@dataclass
class PipelineState:
    """The values stages hand each other; each field is one entry of ARTIFACTS."""

    documents: list[Document] | None = None
    sentences: list[Sentence] | None = None
    mentions: dict[int, list[EntityMention]] | None = None
    query_of: dict[int, int] | None = None  # retrieved id -> query id; None without retrieval
    graph: sentgraph_mod.SentenceGraph | None = None
    graph_stats: dict | None = None
    selection: dict | None = None
    samples: list | None = None
    stats: PipelineStats | None = None
    timings: dict[str, dict[str, int]] | None = None  # StageClock.timings


def _write_retrieved(query_of: dict[int, int] | None, path: str) -> None:
    if query_of is not None:
        records = ({"sentence_id": r, "query_sentence_id": q} for r, q in sorted(query_of.items()))
        write_jsonl(records, path)
    elif os.path.exists(path):
        os.remove(path)  # a graph built without retrieval must not keep an earlier provenance


def _read_retrieved(state: PipelineState, path: str) -> dict[int, int] | None:
    """retrieved.jsonl: one line per retrieved sentence of sentences.jsonl, in
    id order, pairing it with the corpus sentence whose query fetched it. It
    is missing only after a graph built without retrieval, so with none."""
    origin = {s.sentence_id: s.origin for s in state.sentences}
    retrieved = [sid for sid, o in origin.items() if o == corpus_mod.ORIGIN_RETRIEVED]
    if not os.path.exists(path):
        if retrieved:
            raise ValidationError(f"{path}: missing, but sentences.jsonl holds retrieved sentences")
        return None
    expected = iter(retrieved)
    fields = {
        "sentence_id": Field(
            int, lambda v, r: v == next(expected, None), "the next retrieved id of sentences.jsonl"
        ),
        "query_sentence_id": Field(
            int, lambda v, r: origin.get(v) == corpus_mod.ORIGIN_CORPUS, "a corpus sentence id"
        ),
    }
    query_of = {r["sentence_id"]: r["query_sentence_id"] for r in read_jsonl(path, fields)}
    if len(query_of) < len(retrieved):
        raise ValidationError(f"{path}: {len(query_of)} lines, {len(retrieved)} retrieved sentences")
    return query_of


# graph.stats() as written; a file written for `select` alone holds no edges
GRAPH_STATS = {
    f.name: COUNT._replace(optional=f.name != "nodes") for f in fields(sentgraph_mod.GraphStats)
}
STATS = {f.name: COUNT if f.type == "int" else Field(float) for f in fields(PipelineStats)}
_INT_VALUES = Field(dict, lambda v, r: {int}.issuperset(map(type, v.values())))
TIMINGS = {
    "timings_ms": _INT_VALUES._replace(says="an object of int milliseconds"),
    # a timings.json written before peaks were recorded has none
    "peak_rss_kib": _INT_VALUES._replace(says="an object of int KiB", optional=True),
}


# field of PipelineState -> (file in the output directory, writer(value, path),
# reader(state, path)); a reader may use the fields read before it. The lambdas
# look functions up at call time, so wrappers installed on them see every call.
ARTIFACTS = {
    "documents": (
        "documents.jsonl", lambda v, p: write_documents(v, p), lambda st, p: read_documents(p)
    ),
    "sentences": (
        "sentences.jsonl",
        lambda v, p: write_sentences(v, p),
        lambda st, p: read_sentences(p, st.documents),
    ),
    "mentions": (
        "mentions.jsonl",
        lambda v, p: write_mentions(v, p),
        lambda st, p: read_mentions(p, st.sentences),
    ),
    "query_of": ("retrieved.jsonl", _write_retrieved, _read_retrieved),
    "graph_stats": (
        "graph_stats.json",
        lambda v, p: write_json(v, p, indent=2),
        lambda st, p: read_json(p, GRAPH_STATS),
    ),
    "graph": (
        "postings.jsonl",
        lambda v, p: sentgraph_mod.write_postings_dump(v, p),
        lambda st, p: sentgraph_mod.read_postings_dump(p, st.graph_stats["nodes"]),
    ),
    "selection": (
        "selection.json",
        write_json,
        lambda st, p: read_json(p, domset_mod.selection_fields(st.graph_stats["nodes"])),
    ),
    "samples": ("samples.jsonl", lambda v, p: qgen_mod.write_samples_jsonl(v, p), None),
    "stats": (
        "stats.json",
        lambda v, p: write_json(asdict(v), p),
        lambda st, p: PipelineStats(**read_json(p, STATS)),
    ),
    # wall times and peak RSS, kept out of stats.json so that reruns stay
    # byte-identical
    "timings": (
        "timings.json",
        write_json,
        lambda st, p: read_json(p, TIMINGS) if os.path.exists(p) else {"timings_ms": {}},
    ),
}


def load_artifacts(out_dir: str, names: tuple[str, ...]) -> PipelineState:
    """Read the named artifacts; a malformed one is a PipelineError naming its file."""
    state = PipelineState()
    for name in names:
        file_name, _, read = ARTIFACTS[name]
        try:
            value = read(state, os.path.join(out_dir, file_name))
        except (KeyError, TypeError, ValueError, ParseError, ValidationError) as exc:
            raise PipelineError(
                f"{file_name}: malformed artifact ({type(exc).__name__}: {exc})"
            ) from exc
        setattr(state, name, value)
    return state


def save_artifacts(state: PipelineState, out_dir: str, names) -> None:
    for name in names:
        file_name, write, _ = ARTIFACTS[name]
        write(getattr(state, name), os.path.join(out_dir, file_name))


def _ingest_body(config: PipelineConfig, clock: StageClock, state: PipelineState) -> str:
    state.documents, state.sentences = clock.run(
        "ingest",
        ingest_and_segment,
        config,
        config.input_paths,
        config.input_format,
        config.dedup_contexts,
    )
    return f"ingested {len(state.documents)} documents, {len(state.sentences)} sentences"


def _graph_body(config: PipelineConfig, clock: StageClock, state: PipelineState) -> str:
    # Rebuilding from the ingested sentences keeps this stage idempotent.
    sentences = [s for s in state.sentences if s.origin == corpus_mod.ORIGIN_CORPUS]
    # one recognizer config for both corpora: they share its gazetteer
    recognizer = config.recognizer_config()
    mentions = clock.run("recognize", entities_mod.recognize, sentences, recognizer)
    query_of = None
    if config.retrieval_enabled:
        sentences, mentions, query_of = clock.run(
            "retrieve", stage_retrieve, config, sentences, mentions, recognizer
        )
    # the stoplist loads inside the timed call, so a bad file fails tagged build_graph
    graph = clock.run(
        "build_graph",
        lambda: sentgraph_mod.build_graph(
            sentences,
            mentions,
            entities_mod.load_stoplist(config.stoplist_path)
            if config.stoplist_path
            else frozenset(),
            config.graph_scope,
        ),
    )
    state.sentences, state.mentions, state.query_of, state.graph = (
        sentences, mentions, query_of, graph
    )
    stats = state.graph_stats = graph.stats().__dict__
    return f"graph: {stats['nodes']} nodes, {stats['edges']} edges, {stats['entities']} entities"


def _select_body(config: PipelineConfig, clock: StageClock, state: PipelineState) -> str:
    result = clock.run(
        "dominating_set", domset_mod.approx_dominating_set, state.graph, config.degree_mode
    )
    state.selection = domset_mod.export_result(result)
    return f"selected {state.selection['size']} of {state.graph.node_count} sentences"


def _generate_body(config: PipelineConfig, clock: StageClock, state: PipelineState) -> str:
    graph_stats, selection = state.graph_stats, state.selection
    missing = [key for key in ("edges", "entities") if key not in graph_stats]
    if missing:
        raise PipelineError(
            f"graph_stats.json: malformed artifact, missing {', '.join(map(repr, missing))}"
        )
    # the priors load inside the timed call, so a bad file fails tagged generate
    state.samples = clock.run(
        "generate",
        lambda: qgen_mod.assemble_dataset(
            selection["selected"],
            state.sentences,
            state.mentions,
            {d.doc_id: d for d in state.documents},
            WhPriors.from_file(config.priors_path) if config.priors_path else WhPriors.default(),
            styles=qgen_mod.STYLES if config.question_style == "both" else (config.question_style,),
            mask_token=config.mask_token,
            lambda_weight=config.lambda_weight,
            seed=config.seed,
            order=config.template_order,
            query_of=state.query_of,
            dataset_id=config.dataset_id,
        ),
    )
    state.stats = PipelineStats(
        nodes=graph_stats["nodes"],
        edges=graph_stats["edges"],
        dominating_set=selection["size"],
        training_samples=len(state.samples),
        entities=graph_stats["entities"],
        max_degree=selection["max_degree"],
        bound=selection["bound"],
    )
    state.timings = clock.timings  # shared, so later stages still land in timings.json
    return f"wrote {len(state.samples)} samples"


class Stage(NamedTuple):
    help: str
    reads: tuple[str, ...]  # ARTIFACTS loaded from the output directory, in order
    body: Callable  # (config, clock, state) -> summary line; times itself on the clock
    writes: tuple[str, ...]  # ARTIFACTS the stage produces


STAGES = {
    "ingest": Stage("ingest and segment the corpus", (), _ingest_body, ("documents", "sentences")),
    "graph": Stage(
        "recognize entities, retrieve support sentences, build the graph",
        ("sentences",),
        _graph_body,
        ("sentences", "mentions", "query_of", "graph", "graph_stats"),
    ),
    "select": Stage(
        "compute the dominating set over a built graph",
        ("graph_stats", "graph"),
        _select_body,
        ("selection",),
    ),
    "generate": Stage(
        "assemble training samples from a selection",
        ("documents", "sentences", "mentions", "query_of", "graph_stats", "selection"),
        _generate_body,
        ("samples", "stats", "timings"),
    ),
}


def run_pipeline(config: PipelineConfig) -> PipelineStats:
    """Run every stage in memory, then write all artifacts into config.output_dir."""
    config.validate()
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    clock = StageClock()
    state = PipelineState()
    for stage in STAGES.values():
        stage.body(config, clock, state)

    def write_artifacts():
        # sentences.jsonl is written once, with the graph stage's extended table
        save_artifacts(state, out_dir, [n for n in ARTIFACTS if n not in ("stats", "timings")])
        write_config_echo(config, os.path.join(out_dir, CONFIG_ECHO_NAME))

    clock.run("write", write_artifacts)
    # last, so that timings.json includes the write stage
    save_artifacts(state, out_dir, ("stats", "timings"))
    return state.stats
