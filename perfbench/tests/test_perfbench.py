"""Tests of the benchmark's own code: generator, tracing, output check.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import check
import minprompt
import tracing
import workloads
from minprompt import cli
from minprompt.corpus import Sentence

from conftest import BENCH, ROOT

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    first = _tree_bytes(workloads.generate(name, 3, str(tmp_path / "a")).root)
    again = _tree_bytes(workloads.generate(name, 3, str(tmp_path / "b")).root)
    other = _tree_bytes(workloads.generate(name, 4, str(tmp_path / "c")).root)
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def test_every_metric_name_is_well_formed_and_listed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    produced = set(tracing.layer_metrics([], {}, 0))
    produced |= {"pipeline.bytes_written", "trace.overhead_frac", "trace.unaccounted_frac"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _traced_attributes():
    for module_name, owner_name, attr, _name, _hook in tracing.TRACED:
        module = getattr(minprompt, module_name)
        owner = getattr(module, owner_name) if owner_name else module
        yield owner, attr


def test_tracer_records_nested_spans_and_restores_originals():
    before = [owner.__dict__[attr] for owner, attr in _traced_attributes()]
    tracer = tracing.Tracer()
    tracer.install(minprompt)
    try:
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(_traced_attributes(), before)
        )
        sentences = [Sentence(0, "d", (0, 26), "The Lakers won it in 1987.")]
        config = minprompt.RecognizerConfig(gazetteer_paths=())
        minprompt.entities.recognize(sentences, config)
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in _traced_attributes()] == before
    names = [span[0] for span in tracer.spans]
    assert names == ["entities.recognize", "entities.load_gazetteers", "entities.recognize_builtin"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    own = tracing.self_times(tracer.spans)
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(whole)
    assert tracer.counts["entities.mentions"] == 2


def _small_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PLAIN_DOCS", 4)
    workload = workloads.generate("corpus_plain", 5, str(tmp_path / "inputs"))
    assert cli.main(workload.argv()) == 0
    return workload


def test_output_check_flags_a_tampered_samples_file(tmp_path, monkeypatch):
    workload = _small_run(tmp_path, monkeypatch)
    output_check = check.OutputCheck(workload, str(tmp_path / "digests.json"))
    assert not output_check.recorded
    digests, selected_frac = output_check()
    assert 0 < selected_frac <= 1
    check.record_digests(workload, digests, str(tmp_path / "digests.json"))
    recorded = check.OutputCheck(workload, str(tmp_path / "digests.json"))
    assert recorded.recorded
    recorded()

    samples = os.path.join(workload.out_dir, "samples.jsonl")
    with open(samples, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    record = json.loads(lines[0])
    record["target"] += " "
    lines[0] = json.dumps(record, ensure_ascii=False) + "\n"
    with open(samples, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    for output_check in (recorded, check.OutputCheck(workload, str(tmp_path / "digests.json"))):
        with pytest.raises(check.CheckFailed, match="samples.jsonl"):
            output_check()


def test_domination_recheck_rejects_an_empty_selection(tmp_path, monkeypatch):
    workload = _small_run(tmp_path, monkeypatch)
    selected, nodes = check.selection_nodes(workload)
    assert check.is_dominating(workload, selected, nodes)
    assert not check.is_dominating(workload, [], nodes)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_program_runs_from_its_frozen_copy(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PLAIN_DOCS", 4)
    workload = workloads.generate("corpus_plain", 5, str(tmp_path / "inputs"))
    result = tmp_path / "sample.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "run", str(result), "0", "reference",
         "--", *workload.argv()],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(result.read_text(encoding="utf-8"))["rc"] == 0
    assert os.path.isfile(os.path.join(workload.out_dir, "selection.json"))
