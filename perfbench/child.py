"""One measured process: the set-up alone, or one CLI command.

    python3 perfbench/child.py setup -- <minprompt argv>
        prints {"setup_s": ...}: import minprompt, build the CLI parser,
        load and validate the config, in this fresh interpreter.
    python3 perfbench/child.py run RESULT.json TRACE PROGRAM -- <minprompt argv>
        times `minprompt.cli.main(argv)` and writes its exit code, wall time,
        peak RSS and, with TRACE=1, the spans of the traced run to RESULT.json.

PROGRAM `src` imports minprompt from the `src` directory of the checkout
holding this file, `reference` from the frozen copy in `reference/`; the
set-up always times `src`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAMS = {
    "src": os.path.join(os.path.dirname(HERE), "src"),
    "reference": os.path.join(HERE, "reference"),
}


def _import_minprompt(program: str = "src"):
    path = PROGRAMS[program]
    sys.path.insert(0, path)
    import minprompt
    from minprompt import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(minprompt.__file__))) != path:
        raise SystemExit(f"minprompt imported from {minprompt.__file__}, not {path}")
    return minprompt, cli


def setup(argv: list[str]) -> float:
    start = time.perf_counter()
    _, cli = _import_minprompt()
    # the steps cli.main takes before it runs the first stage
    args = cli._build_parser().parse_args(argv)
    cli._load_config(args).validate()
    return time.perf_counter() - start


def run(argv: list[str], trace: bool, program: str) -> dict:
    minprompt, cli = _import_minprompt(program)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(minprompt)
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a raising run is a failed run, reported with its traceback
        rc, error = 1, traceback.format_exc()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
        "counts": tracer.counts if tracer else {},
    }


def main() -> int:
    split = sys.argv.index("--")
    head, argv = sys.argv[1:split], sys.argv[split + 1 :]
    if head[0] == "setup":
        print(json.dumps({"setup_s": setup(argv)}))
        return 0
    result_path, trace, program = head[1], head[2] == "1", head[3]
    result = run(argv, trace, program)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
