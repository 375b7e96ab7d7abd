"""minprompt benchmark: generate a workload, run it, check it, print metrics.

    python3 perfbench/run.py --workload corpus_retrieval --seed 1 --seconds 50 --trace 0

Run from any directory; the checkout is the parent of this file's
directory, and all files go under its `.perfbench_work/`. Each sample is
the workload's CLI command in a fresh `child.py` process, one at a time,
taken in pairs until the samples' processes have run for about --seconds
(at least one pair; the output checks between samples do not count).
Before each pair, SETUP_PER_PAIR fresh interpreters time the set-up alone,
so the set-up samples spread over the whole run.

With --trace 0 a pair is the program under `src/` and the frozen
reference copy in `reference/` on the same inputs, in alternating order,
and the last stdout line holds the end-to-end metrics: the times are the
program's, scaled by how fast the reference ran beside it (see
`end_to_end`). With --trace 1 a pair is an untraced and a traced run of
the program, and the last line holds the per-layer metrics of the traced
samples, with the tracing overhead from the pairs. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from check import CheckFailed, OutputCheck, record_digests
from tracing import layer_metrics, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
SETUP_PER_PAIR = 2
# samples take 4-10 s on a 2.1 GHz Xeon; even a timed-out pair leaves a
# run well under three minutes
CHILD_TIMEOUT_S = 60
# Wall time of the reference program (the seed code, frozen in
# `reference/`) per workload: the median `wall_s` over seeds 1-10 of the
# first baseline, measured on a 2-vCPU Intel Xeon 2.1 GHz virtual machine
# (baseline.json). `wall_s` is reported at this speed of the machine.
REFERENCE_WALL_S = {
    "corpus_plain": 8.734,
    "corpus_retrieval": 5.037,
    "select_hubs": 7.582,
}


def _child(args: list[str], stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    """Run child.py to completion; on timeout it is killed and waited for."""
    return subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=ROOT,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def measure_setup(workload) -> float:
    """Set-up time of one fresh interpreter."""
    done = _child(["setup", "--", *workload.argv()], stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return json.loads(done.stdout)["setup_s"]


def _prepare(workload) -> None:
    if workload.command == "select":
        selection = os.path.join(workload.out_dir, "selection.json")
        if os.path.exists(selection):
            os.remove(selection)
    else:
        shutil.rmtree(workload.out_dir, ignore_errors=True)


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def run_sample(workload, check: OutputCheck | None, trace: bool, program: str = "src") -> dict:
    """One CLI run of `program` in a fresh child; `ok` is False when it
    raised, exited non-zero or failed the output check. A `check` of None
    (the reference program) checks the exit code only."""
    _prepare(workload)
    before = _dir_bytes(workload.out_dir)
    result_path = os.path.join(WORK, "sample.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    start = time.perf_counter()
    try:
        done = _child(["run", result_path, "1" if trace else "0", program, "--", *workload.argv()])
    except subprocess.TimeoutExpired:
        return {"ok": False, "child_s": CHILD_TIMEOUT_S, "reason": "no result in time"}
    child_s = time.perf_counter() - start
    if done.returncode != 0 or not os.path.exists(result_path):
        reason = f"child exited {done.returncode}: {done.stderr[-2000:]}"
        return {"ok": False, "child_s": child_s, "reason": reason}
    with open(result_path, "r", encoding="utf-8") as handle:
        sample = json.load(handle)
    sample["child_s"] = child_s
    if sample["rc"] != 0:
        reason = sample["error"] or done.stderr[-2000:]
        return {**sample, "ok": False, "reason": f"{program} minprompt exited {sample['rc']}: {reason}"}
    if check is None:
        return {**sample, "ok": True}
    try:
        _, sample["selected_frac"] = check()
    except CheckFailed as exc:
        return {**sample, "ok": False, "reason": f"output check: {exc}"}
    sample["bytes_written"] = _dir_bytes(workload.out_dir) - before
    return {**sample, "ok": True}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(workload, setups, pairs) -> dict[str, float]:
    """`pairs` holds (program, reference) samples run one after the other.
    On a shared host the machine's speed drifts by tens of percent over
    minutes, far more than within a pair, so the program's time is taken
    relative to the reference run beside it: the program's summed wall time
    over the reference's, times the reference's fixed REFERENCE_WALL_S
    (README, "Bounds and noise")."""
    samples = [program for program, _ in pairs]
    ratio = sum(p["wall_s"] for p, _ in pairs) / sum(r["wall_s"] for _, r in pairs)
    wall_s = REFERENCE_WALL_S[workload.name] * ratio
    return {
        "wall_s": wall_s,
        "sentences_per_s": workload.sentences / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
        "selected_frac": statistics.median(s["selected_frac"] for s in samples),
    }


def per_layer(workload, pairs) -> tuple[dict[str, float], list[float]]:
    """`pairs` holds (untraced, traced) samples of the program."""
    traced = [t for _, t in pairs]
    rows = []
    accounted = []
    for sample in traced:
        spans = [tuple(span) for span in sample["spans"]]
        row = layer_metrics(spans, sample["counts"], workload.sentences)
        row["pipeline.bytes_written"] = sample["bytes_written"]
        own = self_times(spans)
        layers_s = sum(t for t, span in zip(own, spans) if span[0] != "cli.main")
        row["trace.unaccounted_frac"] = 1.0 - layers_s / sample["wall_s"]
        accounted.append(layers_s)
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # comparing the two samples of a pair keeps the machine's slower drifts
    # out of the ratio
    metrics["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in pairs
    ) - 1.0
    return metrics, accounted


def measure(workload, check, seconds: float, trace: bool):
    """Pairs of samples one after another, each pair preceded by
    SETUP_PER_PAIR set-up children (after one warm-up set-up whose time is
    dropped), until the pairs' child processes have run for about `seconds`:
    a further pair starts only if it would end nearer to `seconds` than the
    last one did. Output checks and set-up children do not count. A pair is
    (program, reference), or with `trace` (untraced, traced); which of the
    two runs first alternates. Returns the pairs whose samples both passed,
    the failures, the set-up times and the number of samples run."""
    pairs, failures, setups = [], [], []
    measured_s = 0.0
    measure_setup(workload)
    for count in itertools.count(1):
        setups += [measure_setup(workload) for _ in range(SETUP_PER_PAIR)]
        runs = [lambda: run_sample(workload, check, False)]
        if trace:
            runs.append(lambda: run_sample(workload, check, True))
        else:
            runs.append(lambda: run_sample(workload, None, False, "reference"))
        order = (0, 1) if count % 2 else (1, 0)
        pair = [None, None]
        for index in order:
            pair[index] = runs[index]()
        for sample in pair:
            if not sample["ok"]:
                failures.append(sample["reason"])
                print(f"perfbench: failed run: {sample['reason']}", file=sys.stderr)
        if all(sample["ok"] for sample in pair):
            pairs.append(tuple(pair))
        measured_s += sum(sample["child_s"] for sample in pair)
        if measured_s + 0.5 * measured_s / count >= seconds:
            return pairs, failures, setups, 2 * count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="run once, check invariants only, and store the output digests for this seed",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "minprompt", "cli.py")):
        print(f"perfbench: no minprompt sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    inputs = os.path.join(WORK, "inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    workload = workloads.generate(args.workload, args.seed, inputs)
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the output check imports minprompt
    check = OutputCheck(workload)
    if args.record:
        check.reference = None
        sample = run_sample(workload, check, trace=False)
        shutil.rmtree(inputs, ignore_errors=True)
        if not sample["ok"]:
            print(f"perfbench: {sample['reason']}", file=sys.stderr)
            return 1
        record_digests(workload, check.reference)
        print(f"recorded digests for {workload.name} seed {workload.seed}")
        return 0
    if not check.recorded:
        print(
            f"perfbench: no recorded digests for {workload.name} seed {workload.seed}; "
            "checking invariants and run-to-run identity only",
            file=sys.stderr,
        )

    pairs, failures, setups, attempted = measure(workload, check, args.seconds, bool(args.trace))
    first = [a["wall_s"] for a, _ in pairs]
    second = [b["wall_s"] for _, b in pairs]
    if args.trace:
        expected = [m["name"] for m in spec["per_layer"]]
        metrics, accounted = per_layer(workload, pairs) if pairs else ({}, [])
        counts = dict.fromkeys(metrics, len(pairs))
        if accounted:
            print(
                f"traced wall_s {statistics.median(second):.4f} s, "
                f"of which layer self times {statistics.median(accounted):.4f} s; "
                f"untraced wall_s - setup_s "
                f"{statistics.median(first) - statistics.median(setups):.4f} s"
            )
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(WORK, "traces", f"{workload.name}-{workload.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump([t["spans"] for _, t in pairs], handle)
    else:
        expected = [m["name"] for m in spec["end_to_end"]]
        metrics = end_to_end(workload, setups, pairs) if pairs else {}
        counts = dict.fromkeys(metrics, len(pairs))
        counts["setup_s"] = len(setups)
        if pairs:
            print(
                f"measured wall time, median of {len(pairs)}: program {statistics.median(first):.4f} s, "
                f"reference {statistics.median(second):.4f} s; program/reference per pair: "
                + " ".join(f"{p / r:.4f}" for p, r in zip(first, second))
            )
    if metrics and set(metrics) != set(expected):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(expected))} disagree with BENCHMARK.json")
    shutil.rmtree(inputs, ignore_errors=True)

    print(f"workload {workload.name}, seed {workload.seed}, {workload.sentences} input sentences")
    for name in expected:
        if name in metrics:
            print(f"{name:40s} {metrics[name]:16.6f} {units[name]}  (median of {counts[name]})")
    print(f"{'error_rate':40s} {len(failures) / attempted:16.6f} 1  ({len(failures)} of {attempted} runs failed)")
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in expected if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
