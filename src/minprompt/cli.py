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

`ingest`, `graph`, `select` and `generate` run one entry of the pipeline's
stage table each: they validate the config as `run` does and write the same
artifacts `run` writes (all but the resolved-config echo), so `stats` also
works after a staged chain. Only the pipeline module knows which files those
are.

Exit codes: 0 success, 2 configuration/validation problems, 1 stage
failures. Diagnostics go to stderr tagged with the failing stage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import pipeline as pipeline_mod
from .errors import MinpromptError, ParseError, StageError, ValidationError
from .evaluation import evaluate_files
from .pipeline import PipelineConfig


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
        for f in fields(PipelineConfig):
            cmd.add_argument(
                f"--{f.name.replace('_', '-')}",
                dest=f"cfg_{f.name}",
                default=None,
                metavar="VALUE",
                help=f"override config key {f.name}",
            )
        return cmd

    add_config_command("run", "execute the whole pipeline")
    for name, stage in pipeline_mod.STAGES.items():
        add_config_command(name, stage.help)

    stats_cmd = sub.add_parser("stats", help="print pipeline statistics for an output directory")
    stats_cmd.add_argument("--out", required=True, help="output directory of a previous run")

    eval_cmd = sub.add_parser("eval", help="token-level F1 between predictions and gold answers")
    eval_cmd.add_argument("--pred", required=True, help='JSONL of {"prediction": str}')
    eval_cmd.add_argument("--gold", required=True, help='JSONL of {"answers": [str, ...]}')

    return parser


def _load_config(args) -> PipelineConfig:
    config = pipeline_mod.load_config(args.config)
    cwd = os.getcwd()
    for f in fields(PipelineConfig):
        raw = getattr(args, f"cfg_{f.name}", None)
        if raw is not None:
            config = replace(config, **{f.name: pipeline_mod.parse_config_value(f.name, raw, cwd)})
    if args.out is not None:
        config = replace(config, output_dir=os.path.abspath(args.out))
    return config


def _print_stats(stats: pipeline_mod.PipelineStats) -> int:
    print(pipeline_mod.stats_table(stats))
    if stats.training_samples == 0:
        print("warning: no training samples were generated", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    return _print_stats(pipeline_mod.run_pipeline(_load_config(args)))


def _cmd_stage(args) -> int:
    config = _load_config(args)
    config.validate()
    stage = pipeline_mod.STAGES[args.command]
    os.makedirs(config.output_dir, exist_ok=True)
    state = pipeline_mod.load_artifacts(config.output_dir, stage.reads)
    summary = stage.body(config, pipeline_mod.StageClock(), state)
    pipeline_mod.save_artifacts(state, config.output_dir, stage.writes)
    print(summary)
    return 0


def _cmd_stats(args) -> int:
    state = pipeline_mod.load_artifacts(os.path.abspath(args.out), ("stats", "timings"))
    return _print_stats(state.stats)


def _cmd_eval(args) -> int:
    result = evaluate_files(args.pred, args.gold)
    print(json.dumps(result, sort_keys=True))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    **{name: _cmd_stage for name in pipeline_mod.STAGES},
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
