"""Output check of one benchmark run: digests plus a domination re-check.

A run passes when the files in CHECKED_FILES hash to the digests recorded
for its (workload, seed) in digests.json, or, for a seed with no recorded
digests, to those of the run's first sample; when stats.json and
samples.jsonl agree with selection.json; and when the selection dominates
the rebuilt graph (`minprompt.domset.is_dominating_set`). The graph of
select_hubs is rebuilt from the generator's postings, the graph of a
corpus run from the postings.jsonl that run wrote.
"""

from __future__ import annotations

import hashlib
import json
import os

CHECKED_FILES = {
    "run": ("selection.json", "samples.jsonl", "stats.json"),
    "select": ("selection.json",),
}
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class CheckFailed(Exception):
    pass


def file_digests(workload) -> dict[str, str]:
    out = {}
    for name in CHECKED_FILES[workload.command]:
        path = os.path.join(workload.out_dir, name)
        if not os.path.isfile(path):
            raise CheckFailed(f"{name} was not written")
        with open(path, "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def recorded_digests(workload, path: str = DIGESTS_PATH) -> dict[str, str] | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload.name, {}).get(str(workload.seed))


def record_digests(workload, digests: dict[str, str], path: str = DIGESTS_PATH) -> None:
    table = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    table.setdefault(workload.name, {})[str(workload.seed)] = digests
    table[workload.name] = dict(sorted(table[workload.name].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _read_json(workload, name: str):
    with open(os.path.join(workload.out_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def selection_nodes(workload) -> tuple[list[int], int]:
    """The selected ids and the node count of the run's graph."""
    selection = _read_json(workload, "selection.json")
    if selection["size"] != len(selection["selected"]):
        raise CheckFailed("selection.json size disagrees with its id list")
    if workload.command == "select":
        return selection["selected"], workload.sentences
    stats = _read_json(workload, "stats.json")
    if stats["dominating_set"] != selection["size"]:
        raise CheckFailed("stats.json dominating_set disagrees with selection.json")
    selected = set(selection["selected"])
    samples = 0
    with open(os.path.join(workload.out_dir, "samples.jsonl"), "r", encoding="utf-8") as handle:
        for line in handle:
            samples += 1
            if json.loads(line)["sentence_id"] not in selected:
                raise CheckFailed("a sample comes from a sentence outside the selection")
    if stats["training_samples"] != samples:
        raise CheckFailed("stats.json training_samples disagrees with samples.jsonl")
    if stats["nodes"] < workload.sentences:
        raise CheckFailed(f"graph has {stats['nodes']} nodes for {workload.sentences} sentences")
    return selection["selected"], stats["nodes"]


def is_dominating(workload, selected: list[int], nodes: int) -> bool:
    from minprompt import domset, sentgraph

    if workload.postings is not None:
        graph = sentgraph.SentenceGraph.from_postings(nodes, workload.postings)
    else:
        graph = sentgraph.read_postings_dump(os.path.join(workload.out_dir, "postings.jsonl"), nodes)
    return domset.is_dominating_set(graph, selected)


class OutputCheck:
    """Checks every sample of one run against the same reference digests."""

    def __init__(self, workload, digests_path: str = DIGESTS_PATH):
        self.workload = workload
        self.reference = recorded_digests(workload, digests_path)
        self.recorded = self.reference is not None
        self._dominates: bool | None = None  # all passing samples share one selection

    def __call__(self) -> tuple[dict[str, str], float]:
        """Raise CheckFailed unless the run's outputs are right; return the
        digests and the selected fraction of nodes."""
        digests = file_digests(self.workload)
        if self.reference is None:
            self.reference = digests
        for name, digest in self.reference.items():
            if digests.get(name) != digest:
                raise CheckFailed(f"{name} differs from the reference digest")
        selected, nodes = selection_nodes(self.workload)
        if self._dominates is None:
            self._dominates = is_dominating(self.workload, selected, nodes)
        if not self._dominates:
            raise CheckFailed("the selection does not dominate the graph")
        return digests, len(selected) / nodes
