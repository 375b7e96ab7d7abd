"""Summarize benchmark result lines, and compare two sets of them.

    python3 perfbench/summarize.py parent.jsonl [change.jsonl]

Each file holds the last stdout lines of several `run.py` runs of one
workload (one JSON object per line). For each metric it prints the median,
the quartiles and the spread (Q3 - Q1) / median. Given a second file, it
also prints the change of the median in the metric's worse direction, as a
share of the first file's median, next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            if not result["correct"]:
                raise SystemExit(f"{path}: a run was not correct: {line.strip()}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    sets = [load(path) for path in argv]
    for name in sets[0]:
        cells = []
        for values in sets:
            q1, median, q3 = quartiles(values[name])
            spread = (q3 - q1) / median if median else float("nan")
            cells.append(f"median {median:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f} (n={len(values[name])})")
        line = f"{name:24s} " + " | ".join(cells)
        if len(sets) == 2 and name in spec:
            before = statistics.median(sets[0][name])
            after = statistics.median(sets[1][name])
            sign = 1.0 if spec[name]["better"] == "lower" else -1.0
            worse = sign * (after - before) / before
            line += f" | worse by {worse:+.3f} (bound {spec[name]['bound']})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
