"""Command-line entry point.

Subcommands mirror the pipeline stages; each one can pick up where the
previous left off by reading the artifacts in the output directory:

    minprompt run      --config pipeline.cfg [--seed N] [--out DIR]
    minprompt ingest   --config pipeline.cfg [--out DIR]
    minprompt graph    --config pipeline.cfg [--out DIR]
    minprompt select   --config pipeline.cfg [--out DIR]
    minprompt generate --config pipeline.cfg [--out DIR]
    minprompt stats    --out DIR
    minprompt eval     --pred predictions.jsonl --gold answers.jsonl

Exit codes: 0 success, 2 configuration/validation problems, 1 stage
failures. Diagnostics go to stderr tagged with the failing stage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import domset as domset_mod
from . import pipeline as pipeline_mod
from . import sentgraph as sentgraph_mod
from .errors import MinpromptError, ParseError, StageError, ValidationError
from .evaluation import evaluate_files
from .pipeline import PipelineConfig
from .qgen import write_samples_jsonl


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minprompt",
        description="Build few-shot QA training data from raw text via a "
        "sentence graph and a greedy dominating set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline config file")
        cmd.add_argument("--out", default=None, help="shorthand for --output-dir")
        # every config key gets a flag; flags win over the config file
        for key in pipeline_mod.CONFIG_KINDS:
            cmd.add_argument(
                f"--{key.replace('_', '-')}",
                dest=f"cfg_{key}",
                default=None,
                metavar="VALUE",
                help=f"override config key {key}",
            )
        return cmd

    add_config_command("run", "execute the whole pipeline")
    add_config_command("ingest", "ingest and segment the corpus")
    add_config_command("graph", "recognize entities, retrieve support sentences, build the graph")
    add_config_command("select", "compute the dominating set over a built graph")
    add_config_command("generate", "assemble training samples from a selection")

    stats_cmd = sub.add_parser("stats", help="print pipeline statistics for an output directory")
    stats_cmd.add_argument("--out", required=True, help="output directory of a previous run")

    eval_cmd = sub.add_parser("eval", help="token-level F1 between predictions and gold answers")
    eval_cmd.add_argument("--pred", required=True, help='JSONL of {"prediction": str}')
    eval_cmd.add_argument("--gold", required=True, help='JSONL of {"answers": [str, ...]}')

    return parser


def _load_config(args) -> PipelineConfig:
    config = pipeline_mod.load_config(args.config)
    cwd = os.getcwd()
    for key, kind in pipeline_mod.CONFIG_KINDS.items():
        raw = getattr(args, f"cfg_{key}", None)
        if raw is None:
            continue
        config = replace(config, **{key: pipeline_mod.parse_config_value(key, kind, raw, cwd)})
    if args.out is not None:
        config = replace(config, output_dir=os.path.abspath(args.out))
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    stats = pipeline_mod.run_pipeline(config)
    print(pipeline_mod.stats_table(stats))
    if stats.training_samples == 0:
        print("warning: no training samples were generated", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    config = _load_config(args)
    config.validate()
    os.makedirs(config.output_dir, exist_ok=True)
    clock = pipeline_mod.StageClock()
    documents, sentences = clock.run("ingest", pipeline_mod.stage_ingest, config)
    pipeline_mod.write_documents(documents, os.path.join(config.output_dir, "documents.jsonl"))
    pipeline_mod.write_sentences(sentences, os.path.join(config.output_dir, "sentences.jsonl"))
    print(f"ingested {len(documents)} documents, {len(sentences)} sentences")
    return 0


def _cmd_graph(args) -> int:
    config = _load_config(args)
    config.validate()
    out = config.output_dir
    sentences = pipeline_mod.read_sentences(os.path.join(out, "sentences.jsonl"))
    # Rebuilding from the ingest artifacts keeps this stage idempotent.
    sentences = [s for s in sentences if s.origin == "corpus"]
    clock = pipeline_mod.StageClock()
    mentions = clock.run("recognize", pipeline_mod.stage_recognize, config, sentences)
    query_of: dict[int, int] = {}
    if config.retrieval_enabled:
        sentences, mentions, query_of = clock.run(
            "retrieve", pipeline_mod.stage_retrieve, config, sentences, mentions
        )
    graph = clock.run("build_graph", pipeline_mod.stage_build_graph, config, sentences, mentions)
    pipeline_mod.write_sentences(sentences, os.path.join(out, "sentences.jsonl"))
    pipeline_mod.write_mentions(mentions, os.path.join(out, "mentions.jsonl"))
    if config.retrieval_enabled:
        pipeline_mod.write_jsonl(
            (
                {"sentence_id": rid, "query_sentence_id": qid}
                for rid, qid in sorted(query_of.items())
            ),
            os.path.join(out, "retrieved.jsonl"),
        )
    sentgraph_mod.write_postings_dump(graph, os.path.join(out, "postings.jsonl"))
    with open(os.path.join(out, "graph_stats.json"), "w", encoding="utf-8") as handle:
        json.dump(graph.stats().__dict__, handle, indent=2, sort_keys=True)
        handle.write("\n")
    stats = graph.stats()
    print(f"graph: {stats.nodes} nodes, {stats.edges} edges, {stats.entities} entities")
    return 0


def _cmd_select(args) -> int:
    config = _load_config(args)
    out = config.output_dir
    with open(os.path.join(out, "graph_stats.json"), "r", encoding="utf-8") as handle:
        node_count = json.load(handle)["nodes"]
    graph = sentgraph_mod.read_postings_dump(os.path.join(out, "postings.jsonl"), node_count)
    clock = pipeline_mod.StageClock()
    result = clock.run(
        "dominating_set", domset_mod.approx_dominating_set, graph, config.degree_mode
    )
    with open(os.path.join(out, "selection.json"), "w", encoding="utf-8") as handle:
        json.dump(domset_mod.export_result(result), handle, sort_keys=True)
        handle.write("\n")
    print(f"selected {len(result.selected)} of {node_count} sentences")
    return 0


def _cmd_generate(args) -> int:
    config = _load_config(args)
    out = config.output_dir
    documents = pipeline_mod.read_documents(os.path.join(out, "documents.jsonl"))
    sentences = pipeline_mod.read_sentences(os.path.join(out, "sentences.jsonl"))
    mentions = pipeline_mod.read_mentions(os.path.join(out, "mentions.jsonl"), sentences)
    with open(os.path.join(out, "selection.json"), "r", encoding="utf-8") as handle:
        selected = json.load(handle)["selected"]
    query_of: dict[int, int] = {}
    retrieved_path = os.path.join(out, "retrieved.jsonl")
    if os.path.exists(retrieved_path):
        for record in pipeline_mod.read_jsonl(retrieved_path):
            query_of[record["sentence_id"]] = record["query_sentence_id"]
    doc_map = {d.doc_id: d for d in documents}
    clock = pipeline_mod.StageClock()
    samples = clock.run(
        "generate",
        pipeline_mod.stage_generate,
        config,
        selected,
        sentences,
        mentions,
        doc_map,
        query_of,
    )
    write_samples_jsonl(samples, os.path.join(out, "samples.jsonl"))
    print(f"wrote {len(samples)} samples")
    return 0


def _cmd_stats(args) -> int:
    stats = pipeline_mod.read_stats(os.path.abspath(args.out))
    print(pipeline_mod.stats_table(stats))
    if stats.training_samples == 0:
        print("warning: no training samples were generated", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    result = evaluate_files(args.pred, args.gold)
    print(json.dumps(result, sort_keys=True))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ingest": _cmd_ingest,
    "graph": _cmd_graph,
    "select": _cmd_select,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StageError as exc:
        print(f"minprompt: error in stage '{exc.stage}': {exc}", file=sys.stderr)
        # Bad inputs keep the validation exit code even when a stage hit them.
        return 2 if isinstance(exc.__cause__, (ValidationError, ParseError)) else 1
    except (ValidationError, ParseError) as exc:
        print(f"minprompt: error [config]: {exc}", file=sys.stderr)
        return 2
    except MinpromptError as exc:
        print(f"minprompt: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"minprompt: error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
