from __future__ import annotations

import json
import os
import re
import shutil
import time

from dataclasses import fields
from unittest import mock

import pytest

import oracles
from conftest import FIXTURE_DIR, RecognizerHandler, mention_at
from minprompt import entities as entities_mod
from minprompt import pipeline as pipeline_mod
from minprompt import retrieval as retrieval_mod
from minprompt.cli import _build_parser, _load_config, main
from minprompt.corpus import Sentence
from minprompt.errors import ValidationError
from minprompt.pipeline import (
    PipelineConfig,
    PipelineState,
    PipelineStats,
    expand_input_paths,
    load_artifacts,
    load_config,
    run_pipeline,
    save_artifacts,
    stats_table,
    write_config_echo,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
DOCS_DIR = os.path.join(FIXTURE_DIR, "docs")
GAZETTEER = os.path.join(FIXTURE_DIR, "gazetteer.tsv")
RETRIEVAL = {"retrieval_enabled": "true", "support_paths": DOCS_DIR}
# config overrides that between them write every artifact and every record shape
FIXTURE_CONFIGS = {
    "plain": {},
    "retrieval": RETRIEVAL,
    "retrieval_both_top3": {**RETRIEVAL, "question_style": "both", "retrieval_top_k": "3"},
    "retrieval_cloze_relaxed": {
        **RETRIEVAL,
        "question_style": "cloze",
        "require_answer_entity": "false",
        "exclude_source_context": "false",
        "min_extra_shared_entities": "0",
    },
    "document_static": {"graph_scope": "document", "degree_mode": "static"},
}
STAGE_COMMANDS = ("ingest", "graph", "select", "generate")
# every file both `run` and a staged chain write (effective_config.cfg and
# the non-deterministic timings.json left out)
ARTIFACT_FILES = (
    "documents.jsonl",
    "sentences.jsonl",
    "mentions.jsonl",
    "retrieved.jsonl",
    "postings.jsonl",
    "graph_stats.json",
    "selection.json",
    "samples.jsonl",
    "stats.json",
)


# a value for every config key, none of them its default
EVERY_KEY = {
    "input_paths": "docs, more",
    "input_format": "mrqa_jsonl",
    "dataset_id": "squad",
    "dedup_contexts": "true",
    "abbreviations_path": "abbreviations.txt",
    "recognizer_mode": "service",
    "gazetteer_paths": "a.tsv, b.tsv",
    "sidecar_path": "mentions.jsonl",
    "service_endpoint": "http://127.0.0.1:8080/ner",
    "service_timeout": "2.5",
    "service_batch_size": "16",
    "stoplist_path": "stop.txt",
    "graph_scope": "document",
    "degree_mode": "static",
    "retrieval_enabled": "true",
    "support_paths": "support",
    "support_format": "mrqa_jsonl",
    "support_sidecar_path": "support_mentions.jsonl",
    "retrieval_top_k": "5",
    "require_answer_entity": "false",
    "exclude_source_context": "false",
    "min_extra_shared_entities": "0",
    "question_style": "both",
    "template_order": "wh_a_b",
    "priors_path": "priors.json",
    "mask_token": "[MASK]",
    "lambda_weight": "0.5",
    "seed": "3",
    "output_dir": "elsewhere",
    "workers": "2",
}


def fixture_config_text(out_dir: str, **overrides) -> str:
    values = {
        "input_paths": DOCS_DIR,
        "input_format": "plain_text",
        "dataset_id": "fixture",
        "recognizer_mode": "builtin",
        "gazetteer_paths": GAZETTEER,
        "question_style": "wh",
        "seed": "7",
        "output_dir": out_dir,
    }
    values.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n"


def write_fixture_config(tmp_path, name: str = "pipeline", out: str = "out", **overrides) -> str:
    path = tmp_path / f"{name}.cfg"
    path.write_text(fixture_config_text(str(tmp_path / out), **overrides), encoding="utf-8")
    return str(path)


def write_every_key_config(tmp_path) -> str:
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in EVERY_KEY.items()), encoding="utf-8")
    return str(path)


def read_artifacts(out_dir) -> dict[str, bytes]:
    """The bytes of each file of ARTIFACT_FILES present in out_dir."""
    found = {}
    for name in ARTIFACT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                found[name] = handle.read()
    return found


class TestConfig:
    def test_parse_types_and_relative_paths(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        (tmp_path / "docs").mkdir()
        cfg.write_text(
            "input_paths = docs\nseed = 42\nlambda_weight = 0.5\n"
            "retrieval_enabled = false\nworkers = \n",
            encoding="utf-8",
        )
        config = load_config(str(cfg))
        assert config.input_paths == (str(tmp_path / "docs"),)
        assert config.seed == 42
        assert config.lambda_weight == 0.5
        assert config.retrieval_enabled is False
        assert config.workers is None

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("not_a_key = 1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="not_a_key"):
            load_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("seed = seven\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="seed"):
            load_config(str(cfg))

    def test_lambda_must_be_positive(self, tmp_path):
        for value in ("0", "-1", "nan", "inf", "1e999"):
            path = write_fixture_config(tmp_path, lambda_weight=value)
            with pytest.raises(ValidationError, match="lambda"):
                load_config(path).validate()

    def test_mask_token_must_not_be_empty(self, tmp_path, capsys):
        # an empty token would leave the answer slot blank and delete the
        # answer from the context
        path = write_fixture_config(tmp_path, mask_token="")
        with pytest.raises(ValidationError, match="mask_token"):
            load_config(path).validate()
        for command in ("run", *STAGE_COMMANDS):
            assert main([command, "--config", path]) == 2, command
            assert "mask_token" in capsys.readouterr().err
        # a flag value of blanks is stripped to the same empty token
        blank = write_fixture_config(tmp_path, "blank")
        assert main(["run", "--config", blank, "--mask-token", "  "]) == 2
        assert "mask_token" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_missing_path_rejected(self, tmp_path):
        path = write_fixture_config(tmp_path, stoplist_path="/nowhere/stop.txt")
        with pytest.raises(ValidationError, match="does not exist"):
            load_config(path).validate()

    def test_list_path_with_a_comma(self, tmp_path):
        # a list value splits on every comma, so '<dir>/a,b' cannot be named
        (tmp_path / "a,b").mkdir()
        (tmp_path / "a,b" / "doc.txt").write_text("One sentence here.\n", encoding="utf-8")
        config = PipelineConfig(input_paths=(str(tmp_path / "a,b"),))
        with pytest.raises(ValidationError, match="commas separate list values"):
            write_config_echo(config, str(tmp_path / "echo.cfg"))
        assert not (tmp_path / "echo.cfg").exists()
        with pytest.raises(ValidationError, match="commas separate list values"):
            config.validate()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"input_paths = {tmp_path / 'a,b'}\n", encoding="utf-8")
        loaded = load_config(str(cfg))
        assert loaded.input_paths == (str(tmp_path / "a"), str(tmp_path / "b"))
        with pytest.raises(ValidationError) as caught:
            loaded.validate()
        message = str(caught.value)
        assert f"does not exist: {tmp_path / 'a'}" in message
        assert f"{str(tmp_path / 'a,b')!r} exists, but commas separate list values" in message

    def test_echo_round_trip(self, tmp_path):
        every_key = load_config(write_every_key_config(tmp_path))
        defaults = PipelineConfig()
        assert [f.name for f in fields(PipelineConfig)] == list(EVERY_KEY)
        assert all(getattr(every_key, k) != getattr(defaults, k) for k in EVERY_KEY)
        for config in (load_config(write_fixture_config(tmp_path)), every_key):
            echo_path = tmp_path / "echo.cfg"
            write_config_echo(config, str(echo_path))
            assert load_config(str(echo_path)) == config

    def test_every_annotation_has_a_parse_rule(self):
        for f in fields(PipelineConfig):
            assert f.type.removesuffix(" | None") in pipeline_mod.CONFIG_PARSERS, f.name

    def test_every_key_has_a_flag(self, tmp_path, monkeypatch):
        path = write_every_key_config(tmp_path)
        empty = tmp_path / "empty.cfg"
        empty.write_text("", "utf-8")
        # flags resolve relative paths against the working directory
        monkeypatch.chdir(tmp_path)
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in EVERY_KEY.items()]
        args = _build_parser().parse_args(["run", "--config", str(empty), *flags])
        assert _load_config(args) == load_config(path)

    def test_readme_config_block_sets_every_key(self, tmp_path):
        with open(README, encoding="utf-8") as handle:
            block = re.search(r"### Config file\n.*?```\n(.*?)```", handle.read(), re.S).group(1)
        keys = [
            line.partition("=")[0].strip()
            for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        load_config(str(path))  # an inline comment would be read as part of its value

    @pytest.mark.parametrize(
        "key, value",
        [("service_batch_size", "0"), ("service_timeout", "0"), ("service_timeout", "-1")],
    )
    def test_service_bounds_are_config_errors(self, tmp_path, capsys, key, value):
        service = {"recognizer_mode": "service", "service_endpoint": "http://127.0.0.1:9/ner"}
        path = write_fixture_config(tmp_path, **service, **{key: value})
        config = load_config(path)
        with pytest.raises(ValidationError, match=key):
            config.validate()
        with pytest.raises(ValidationError, match=key):
            entities_mod.recognize([], config.recognizer_config())
        assert main(["run", "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(config.output_dir)

    @pytest.mark.parametrize("key, value", [("service_timeout", "inf"), ("lambda_weight", "1e999")])
    def test_non_finite_float_flag_exits_2(self, tmp_path, capsys, key, value):
        service = {"recognizer_mode": "service", "service_endpoint": "http://127.0.0.1:9/ner"}
        path = write_fixture_config(tmp_path, **service)
        out = str(tmp_path / "never")
        flag = "--" + key.replace("_", "-")
        assert main(["run", "--config", path, flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}: expected a finite number, got {value!r}" in err
        assert not os.path.exists(out)

    def test_sidecar_mode_with_retrieval_needs_a_support_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "mentions.jsonl"
        sidecar.write_text("", encoding="utf-8")
        sidecar_mode = {"recognizer_mode": "sidecar", "sidecar_path": str(sidecar), **RETRIEVAL}
        path = write_fixture_config(tmp_path, **sidecar_mode)
        # the query sidecar's sentence ids cannot name support sentences
        with pytest.raises(ValidationError, match="support_sidecar_path"):
            load_config(path).validate()
        assert main(["run", "--config", path]) == 2
        assert "support_sidecar_path" in capsys.readouterr().err
        with_support = write_fixture_config(
            tmp_path, "support", support_sidecar_path=str(sidecar), **sidecar_mode
        )
        load_config(with_support).validate()

    @pytest.mark.parametrize(
        "bad",
        [{"sentence_id": True}, {"start": False}, {"end": True, "surface": "T"}],
        ids=["sentence_id", "start", "end"],
    )
    def test_sidecar_bool_id_or_offset_names_its_line(self, tmp_path, capsys, bad):
        # sentence 1 is "The Lakers moved to Los Angeles in 1960.": true would
        # pass as sentence 1, false as offset 0 and true as offset 1
        records = [
            {"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"},
            {"sentence_id": 1, "start": 0, "end": 3, "surface": "The", "type": "MISC", **bad},
        ]
        sidecar = tmp_path / "mentions.jsonl"
        sidecar.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        path = write_fixture_config(tmp_path, recognizer_mode="sidecar", sidecar_path=str(sidecar))
        assert main(["run", "--config", path]) == 2
        assert f"{sidecar}:2: " in capsys.readouterr().err

    def test_workers_caps_service_batches_in_flight(self, tmp_path):
        path = write_fixture_config(tmp_path, workers="2")
        assert load_config(path).recognizer_config().max_in_flight == 2
        # the flag wins over the file, and at most 4 batches are in flight
        out = str(tmp_path / "flagged")
        assert main(["run", "--config", path, "--workers", "6", "--out", out]) == 0
        echoed = load_config(os.path.join(out, "effective_config.cfg"))
        assert echoed.workers == 6
        assert echoed.recognizer_config().max_in_flight == 4
        with pytest.raises(ValidationError, match="workers"):
            load_config(write_fixture_config(tmp_path, workers="0")).validate()

    def test_expand_input_paths_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValidationError, match="no files"):
            expand_input_paths((str(empty),))


class TestRunPipeline:
    def test_fixture_run_artifacts_and_consistency(self, tmp_path):
        config = load_config(write_fixture_config(tmp_path))
        stats = run_pipeline(config)
        out = config.output_dir
        for name in (
            "documents.jsonl",
            "sentences.jsonl",
            "mentions.jsonl",
            "postings.jsonl",
            "graph_stats.json",
            "selection.json",
            "samples.jsonl",
            "stats.json",
            "timings.json",
            "effective_config.cfg",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        assert stats.nodes > 0
        assert stats.dominating_set <= stats.nodes
        assert stats.training_samples >= stats.dominating_set
        with open(os.path.join(out, "selection.json"), encoding="utf-8") as fh:
            selection = json.load(fh)
        assert selection["size"] == stats.dominating_set
        samples = [
            json.loads(line)
            for line in open(os.path.join(out, "samples.jsonl"), encoding="utf-8")
        ]
        assert len(samples) == stats.training_samples
        selected = set(selection["selected"])
        assert all(s["sentence_id"] in selected for s in samples)
        assert all(s["lambda"] == 1.0 for s in samples)

    def test_stats_json_schema_round_trip(self, tmp_path):
        config = load_config(write_fixture_config(tmp_path))
        stats = run_pipeline(config)
        payload = json.loads((tmp_path / "out" / "stats.json").read_text(encoding="utf-8"))
        assert set(payload) == {
            "nodes", "edges", "dominating_set", "training_samples",
            "entities", "max_degree", "bound",
        }
        reread = load_artifacts(config.output_dir, ("stats", "timings"))
        assert reread.stats == stats
        assert set(reread.timings) == {
            "ingest", "recognize", "build_graph", "dominating_set", "generate", "write"
        }

    @pytest.mark.parametrize("overrides", FIXTURE_CONFIGS.values(), ids=FIXTURE_CONFIGS)
    def test_every_artifact_reads_back_to_its_bytes(self, tmp_path, overrides):
        # each reader checks its file against the declaration its writer
        # follows, so a writer that emits a record its declaration rejects fails here
        config = load_config(write_fixture_config(tmp_path, **overrides))
        run_pipeline(config)
        names = [name for name, (_, _, read) in pipeline_mod.ARTIFACTS.items() if read]
        again = tmp_path / "again"
        again.mkdir()
        save_artifacts(load_artifacts(config.output_dir, names), str(again), names)
        written = sorted(os.listdir(config.output_dir))
        assert sorted(os.listdir(again)) == [
            name for name in written if name not in ("samples.jsonl", "effective_config.cfg")
        ]
        for name in os.listdir(again):
            assert (again / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name

    def test_rerun_reproduces_outputs_from_echo(self, tmp_path):
        config = load_config(write_fixture_config(tmp_path))
        run_pipeline(config)
        first = open(os.path.join(config.output_dir, "samples.jsonl"), "rb").read()
        echoed = load_config(os.path.join(config.output_dir, "effective_config.cfg"))
        echoed.output_dir = str(tmp_path / "out2")
        run_pipeline(echoed)
        second = open(os.path.join(echoed.output_dir, "samples.jsonl"), "rb").read()
        assert first == second

    def test_zero_sample_run(self, tmp_path):
        doc = tmp_path / "docs" / "plain.txt"
        doc.parent.mkdir()
        doc.write_text("nothing here matches any rule. truly nothing does.", encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"input_paths = {doc}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        stats = run_pipeline(load_config(str(cfg)))
        assert stats.training_samples == 0
        assert stats.dominating_set == stats.nodes  # isolated nodes all selected

    def test_retrieval_end_to_end(self, tmp_path):
        # support corpus = the fixture docs themselves; different documents
        # supply support sentences for each other
        path = write_fixture_config(
            tmp_path,
            retrieval_enabled="true",
            support_paths=DOCS_DIR,
            question_style="cloze",
        )
        config = load_config(path)
        stats = run_pipeline(config)
        sentences = [
            json.loads(line)
            for line in open(os.path.join(config.output_dir, "sentences.jsonl"), encoding="utf-8")
        ]
        retrieved = [s for s in sentences if s["origin"] == "retrieved"]
        assert retrieved, "fixture cross-references should yield retrieved sentences"
        ids = [s["sentence_id"] for s in sentences]
        assert ids == list(range(len(ids)))  # dense after appending
        corpus_count = len(sentences) - len(retrieved)
        assert all(s["sentence_id"] >= corpus_count for s in retrieved)
        assert stats.nodes == len(sentences)
        with open(os.path.join(config.output_dir, "retrieved.jsonl"), encoding="utf-8") as fh:
            provenance = [json.loads(line) for line in fh]
        assert {p["sentence_id"] for p in provenance} == {s["sentence_id"] for s in retrieved}

    def test_support_corpus_follows_service_mode(self, tmp_path, recognizer_service):
        RecognizerHandler.behavior = "lakers"
        support = tmp_path / "support"
        support.mkdir()
        (support / "s.txt").write_text(
            "The Lakers signed a coach. Fans of the Lakers cheered.", encoding="utf-8"
        )
        config = load_config(
            write_fixture_config(
                tmp_path,
                recognizer_mode="service",
                service_endpoint=recognizer_service,
                retrieval_enabled="true",
                support_paths=str(support),
            )
        )
        run_pipeline(config)
        posted = RecognizerHandler.posted_texts
        assert "The Lakers signed a coach." in posted
        assert "Fans of the Lakers cheered." in posted

    def test_artifacts_do_not_depend_on_the_input_directory(self, tmp_path):
        runs = []
        for name in ("a", "a_much_longer_directory_name"):
            root = tmp_path / name
            shutil.copytree(FIXTURE_DIR, root / "fixtures")
            config_path = root / "pipeline.cfg"
            config_path.write_text(
                fixture_config_text(
                    str(root / "out"),
                    input_paths="fixtures/docs",
                    gazetteer_paths="fixtures/gazetteer.tsv",
                    retrieval_enabled="true",
                    support_paths="fixtures/docs",
                ),
                encoding="utf-8",
            )
            run_pipeline(load_config(str(config_path)))
            out = root / "out"
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        # the echo holds absolute paths by design; timings are wall times
        for files in runs:
            del files["effective_config.cfg"], files["timings.json"]
        assert set(runs[0]) == set(ARTIFACT_FILES)
        assert runs[0] == runs[1]

    def test_retrieval_run_loads_the_gazetteer_once(self, tmp_path):
        # the input and the support corpus share one loaded gazetteer
        config = load_config(write_fixture_config(tmp_path, **RETRIEVAL))
        with mock.patch.object(
            entities_mod, "load_gazetteers", side_effect=entities_mod.load_gazetteers
        ) as load:
            run_pipeline(config)
        assert load.call_count == 1
        assert load.call_args.args == ((GAZETTEER,),)

    @pytest.mark.parametrize("top_k", [1, 3, 50])
    def test_stage_retrieve_matches_per_mention_ranking(self, tmp_path, top_k):
        config = load_config(
            write_fixture_config(tmp_path, retrieval_top_k=str(top_k), **RETRIEVAL)
        )
        _, sentences = pipeline_mod.ingest_and_segment(
            config, config.input_paths, config.input_format
        )
        recognizer = config.recognizer_config()
        mentions = entities_mod.recognize(sentences, recognizer)
        with mock.patch.object(
            retrieval_mod, "rank", side_effect=retrieval_mod.rank
        ) as rank_spy:
            got = pipeline_mod.stage_retrieve(config, sentences, mentions, recognizer)
        assert rank_spy.call_count == sum(1 for s in sentences if mentions[s.sentence_id])

        original = retrieval_mod.retrieve_support_sentence

        def per_mention(index, query, *args, ranking, **kwargs):
            # the reference ignores the shared ranking and ranks each mention
            # anew with the dict loop
            ranking = oracles.dict_rank(
                oracles.DictBm25Index.like(index), retrieval_mod.tokenize(query.text), top_k
            )
            return original(index, query, *args, ranking=ranking, **kwargs)

        with mock.patch.object(retrieval_mod, "retrieve_support_sentence", per_mention):
            expected = pipeline_mod.stage_retrieve(config, sentences, mentions, recognizer)
        assert got == expected
        if top_k > 1:  # the top candidate never qualifies on the fixture
            assert got[2], "the fixture should retrieve support sentences"

    def test_stage_retrieve_is_linear_in_document_length(self, tmp_path):
        # one document whose sentences each bring two new keys, against a
        # fixed 200-sentence support corpus: copying the document's key set
        # per sentence or per mention would make 4x the sentences take 16x the time
        for k in range(20):
            texts = (f"The Home Park hosted Alpha{j} and Gamma{j}." for j in range(k, 200, 20))
            (tmp_path / f"support{k:02d}.txt").write_text(" ".join(texts), encoding="utf-8")
        config = PipelineConfig(
            input_paths=(str(tmp_path),), retrieval_enabled=True, support_paths=(str(tmp_path),)
        )
        recognizer = config.recognizer_config()

        def long_document(n):
            sentences, mentions, start = [], {}, 0
            for i in range(n):
                text = f"The Home Park hosted Alpha{i} and Beta{i} today."
                sentences.append(Sentence(i, "long", (start, start + len(text)), text))
                surfaces = ("Home Park", f"Alpha{i}", f"Beta{i}")
                mentions[i] = [mention_at(text, surface, "MISC") for surface in surfaces]
                start += len(text) + 1
            return sentences, mentions

        documents = [long_document(n) for n in (1000, 4000)]
        best = [float("inf")] * 2
        for _ in range(3):
            for i, (sentences, mentions) in enumerate(documents):
                begin = time.perf_counter()
                *_, query_of = pipeline_mod.stage_retrieve(config, sentences, mentions, recognizer)
                best[i] = min(best[i], time.perf_counter() - begin)
        assert len(query_of) == 200  # every support sentence is retrieved once
        # linear: 4x the sentences take well under the 16x of a quadratic pass
        assert best[1] / best[0] < 8, f"times={best}"


class TestStatsTable:
    def test_row_labels(self):
        stats = PipelineStats(nodes=4, edges=4, dominating_set=1, training_samples=3)
        table = stats_table(stats)
        for label in ("# nodes", "# edges", "# dominating set", "# training samples"):
            assert label in table

    def test_stats_report_writes_and_formats(self, tmp_path):
        stats = PipelineStats(nodes=4, edges=4, dominating_set=1, training_samples=3)
        state = PipelineState(stats=stats, timings={"ingest": 5})
        save_artifacts(state, str(tmp_path), ("stats", "timings"))
        assert "# dominating set" in stats_table(stats)
        payload = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert payload["dominating_set"] == 1
        timings = json.loads((tmp_path / "timings.json").read_text(encoding="utf-8"))
        assert timings["timings_ms"] == {"ingest": 5}


class TestStoplistAndScope:
    def test_stoplist_removes_hub_entity(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("Lakers\n", encoding="utf-8")
        base = load_config(write_fixture_config(tmp_path))
        stopped_cfg = write_fixture_config(
            tmp_path, stoplist_path=str(stop), output_dir=str(tmp_path / "out_stop")
        )
        plain = run_pipeline(base)
        stopped = run_pipeline(load_config(stopped_cfg))
        assert stopped.entities == plain.entities - 1
        assert stopped.edges < plain.edges

    def test_document_scope_reduces_edges(self, tmp_path):
        base = load_config(write_fixture_config(tmp_path))
        scoped_cfg = write_fixture_config(
            tmp_path, graph_scope="document", output_dir=str(tmp_path / "out_doc")
        )
        corpus_wide = run_pipeline(base)
        per_document = run_pipeline(load_config(scoped_cfg))
        assert per_document.edges < corpus_wide.edges


class TestCli:
    def test_run_and_stats_commands(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "# dominating set" in out
        config = load_config(path)
        assert main(["stats", "--out", config.output_dir]) == 0
        assert "# training samples" in capsys.readouterr().out

    @pytest.mark.parametrize("retrieval", [False, True], ids=["no_retrieval", "retrieval"])
    def test_stage_chain_matches_full_run(self, tmp_path, capsys, retrieval):
        overrides = RETRIEVAL if retrieval else {}
        staged_cfg = write_fixture_config(tmp_path, "staged", "out_staged", **overrides)
        for command in STAGE_COMMANDS:
            assert main([command, "--config", staged_cfg]) == 0, command
        full_cfg = write_fixture_config(tmp_path, "full", "out_full", **overrides)
        assert main(["run", "--config", full_cfg]) == 0

        staged = read_artifacts(tmp_path / "out_staged")
        full = read_artifacts(tmp_path / "out_full")
        expected = set(ARTIFACT_FILES) - (set() if retrieval else {"retrieved.jsonl"})
        assert set(full) == expected
        assert set(staged) == expected
        for name in sorted(expected):
            assert staged[name] == full[name], name
        capsys.readouterr()
        assert main(["stats", "--out", str(tmp_path / "out_staged")]) == 0
        assert "# training samples" in capsys.readouterr().out

    def test_graph_without_retrieval_removes_stale_provenance(self, tmp_path):
        staged_cfg = write_fixture_config(tmp_path, "staged", "out_staged", **RETRIEVAL)
        for command in STAGE_COMMANDS:
            assert main([command, "--config", staged_cfg]) == 0, command
        retrieved = tmp_path / "out_staged" / "retrieved.jsonl"
        assert retrieved.exists()
        for command in ("graph", "select", "generate"):
            argv = [command, "--config", staged_cfg, "--retrieval-enabled", "false"]
            assert main(argv) == 0, command
        assert not retrieved.exists()

        full_cfg = write_fixture_config(tmp_path, "full", "out_full")
        assert main(["run", "--config", full_cfg]) == 0
        assert read_artifacts(tmp_path / "out_staged") == read_artifacts(tmp_path / "out_full")

    def test_generate_reports_graph_stats_without_edges(self, tmp_path, capsys):
        staged_cfg = write_fixture_config(tmp_path)
        for command in ("ingest", "graph", "select"):
            assert main([command, "--config", staged_cfg]) == 0, command
        stats_path = tmp_path / "out" / "graph_stats.json"
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        # the shape the select_hubs benchmark writes: enough for `select` only
        stats_path.write_text(
            json.dumps({"nodes": stats["nodes"], "entities": stats["entities"]}), encoding="utf-8"
        )
        assert main(["select", "--config", staged_cfg]) == 0
        capsys.readouterr()
        assert main(["generate", "--config", staged_cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("minprompt: error: graph_stats.json: malformed artifact")
        assert "'edges'" in err

    @pytest.mark.parametrize(
        "file_name, last_line, command",
        [
            ("postings.jsonl", '{"entity": "lakers", "sente', "select"),
            ("postings.jsonl", '{"entity": "lakers"}', "select"),
            ("postings.jsonl", '["lakers", [0, 1]]', "select"),
            ("postings.jsonl", '{"entity": "lakers", "sentences": [100000]}', "select"),
            ("postings.jsonl", '{"entity": "lakers", "sentences": [0.7]}', "select"),
            ("sentences.jsonl", '{"sentence_id": 1000}', "graph"),
            ("mentions.jsonl", '{"sentence_id": 0, "start": 0', "generate"),
            (
                "documents.jsonl",
                '{"doc_id": "doc01.txt", "dataset_id": "fixture", "text": "Again."}',
                "generate",
            ),
        ],
        ids=[
            "truncated_postings", "postings_missing_key", "postings_not_an_object",
            "postings_id_out_of_range", "postings_float_id", "sentence_missing_keys",
            "truncated_mentions", "repeated_doc_id",
        ],
    )
    def test_stage_reports_malformed_artifact(
        self, tmp_path, capsys, file_name, last_line, command
    ):
        staged_cfg = write_fixture_config(tmp_path)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        with open(tmp_path / "out" / file_name, "a", encoding="utf-8") as handle:
            handle.write(last_line + "\n")
        capsys.readouterr()
        assert main([command, "--config", staged_cfg]) == 1
        assert capsys.readouterr().err.startswith(
            f"minprompt: error: {file_name}: malformed artifact"
        )

    @pytest.mark.parametrize(
        "file_name, field, value, command",
        [
            ("selection.json", "selected", [True], "generate"),
            ("selection.json", "selected", [9999], "generate"),
            ("selection.json", "selected", [-1], "generate"),
            ("selection.json", "selected", "0", "generate"),
            ("selection.json", "size", 1, "generate"),
            ("graph_stats.json", "nodes", 1e3, "select"),
            ("graph_stats.json", "nodes", True, "select"),
            ("graph_stats.json", "nodes", -1, "generate"),
            ("graph_stats.json", "edges", "many", "generate"),
            ("selection.json", "max_degree", "big", "generate"),
            # a JSON Lines file: the value goes into its first line
            ("sentences.jsonl", "start", -5, "graph"),
            ("sentences.jsonl", "doc_id", "nowhere.txt", "generate"),
            ("sentences.jsonl", "text", "The", "graph"),
            ("sentences.jsonl", "origin", "elsewhere", "graph"),
            ("sentences.jsonl", "sentence_id", True, "graph"),
            ("documents.jsonl", "text", 5, "generate"),
            # as long as the sentence, "The Lakers were founded in Minneapolis in 1947."
            (
                "sentences.jsonl", "text", "The Lakers were founded in Minneapolis in 1948.",
                "generate",
            ),
        ],
        ids=[
            "selected_bool", "selected_out_of_range", "selected_negative",
            "selected_not_a_list", "size_differs", "nodes_float", "nodes_bool",
            "nodes_negative", "edges_string", "max_degree_string", "sentence_start_negative",
            "sentence_doc_id_unknown", "sentence_span_not_text_length", "sentence_origin_unknown",
            "sentence_id_bool", "document_text_int", "sentence_text_not_document_bytes",
        ],
    )
    def test_stage_rejects_a_bad_artifact_value(
        self, tmp_path, capsys, file_name, field, value, command
    ):
        staged_cfg = write_fixture_config(tmp_path)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        path = tmp_path / "out" / file_name
        if file_name.endswith(".jsonl"):
            first, *rest = path.read_text(encoding="utf-8").splitlines()
            lines = [json.dumps({**json.loads(first), field: value}), *rest]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if field == "selected" and isinstance(value, list):
                value = payload["selected"][:-1] + value  # same length as 'size'
            path.write_text(json.dumps({**payload, field: value}), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", staged_cfg]) == 1
        assert capsys.readouterr().err.startswith(
            f"minprompt: error: {file_name}: malformed artifact"
        )
        assert not (tmp_path / "out" / "samples.jsonl").exists()

    @pytest.mark.parametrize("field", ["sentence_id", "query_sentence_id"])
    def test_generate_rejects_a_retrieved_id_that_is_not_an_int(self, tmp_path, capsys, field):
        staged_cfg = write_fixture_config(tmp_path, **RETRIEVAL)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        path = tmp_path / "out" / "retrieved.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), field: True})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--config", staged_cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "minprompt: error: retrieved.jsonl: malformed artifact"
        )

    @pytest.mark.parametrize("order", ["repeated", "descending"])
    def test_generate_rejects_selected_ids_out_of_order(self, tmp_path, capsys, order):
        # the greedy writes ascending distinct ids; with one id repeated
        # `generate` used to exit 0 with no samples
        staged_cfg = write_fixture_config(tmp_path)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        path = tmp_path / "out" / "selection.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        selected = payload["selected"]
        assert len(selected) > 1
        selected = [selected[0]] * len(selected) if order == "repeated" else selected[::-1]
        path.write_text(json.dumps({**payload, "selected": selected}), encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--config", staged_cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "minprompt: error: selection.json: malformed artifact"
        )
        assert not (tmp_path / "out" / "samples.jsonl").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda recs: [{**recs[0], "query_sentence_id": 9999}, *recs[1:]],
            lambda recs: [{**recs[0], "sentence_id": 9999}, *recs[1:]],
            # the id of the other field: one of the wrong origin
            lambda recs: [{**recs[0], "query_sentence_id": recs[0]["sentence_id"]}, *recs[1:]],
            lambda recs: [{**recs[0], "sentence_id": recs[0]["query_sentence_id"]}, *recs[1:]],
            # a retrieved sentence left unpaired, paired twice, or no file at all
            lambda recs: recs[:-1],
            lambda recs: [recs[0], {**recs[0], "query_sentence_id": recs[1]["query_sentence_id"]},
                          *recs[1:]],
            lambda recs: None,
        ],
        ids=["query_unknown", "retrieved_unknown", "query_is_retrieved", "retrieved_is_corpus",
             "line_dropped", "line_repeated_with_another_query", "file_missing"],
    )
    def test_generate_rejects_a_retrieved_id_naming_no_such_sentence(
        self, tmp_path, capsys, edit
    ):
        staged_cfg = write_fixture_config(tmp_path, **RETRIEVAL)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        path = tmp_path / "out" / "retrieved.jsonl"
        records = edit([json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()])
        if records is None:
            path.unlink()
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--config", staged_cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "minprompt: error: retrieved.jsonl: malformed artifact"
        )

    @pytest.mark.parametrize(
        "file_name, command", [("postings.jsonl", "select"), ("mentions.jsonl", "generate")]
    )
    def test_malformed_json_artifact_names_its_line(self, tmp_path, capsys, file_name, command):
        staged_cfg = write_fixture_config(tmp_path)
        for stage in ("ingest", "graph", "select"):
            assert main([stage, "--config", staged_cfg]) == 0, stage
        path = tmp_path / "out" / file_name
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"entity": "lakers", "sente\n')
        lineno = len(path.read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert main([command, "--config", staged_cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"minprompt: error: {file_name}: malformed artifact (ParseError: ")
        assert f"{path}:{lineno}: malformed JSON" in err

    def test_stats_reports_malformed_timings_json(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        (tmp_path / "out" / "timings.json").write_text("[]\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "minprompt: error: timings.json: malformed artifact"
        )

    @pytest.mark.parametrize("content", ['{"nodes": ', "{}"], ids=["truncated", "missing_keys"])
    def test_stats_reports_malformed_stats_json(self, tmp_path, capsys, content):
        (tmp_path / "stats.json").write_text(content, encoding="utf-8")
        assert main(["stats", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "minprompt: error: stats.json: malformed artifact"
        )

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_fixture_config(tmp_path)
        override_dir = str(tmp_path / "elsewhere")
        assert main(["run", "--config", path, "--seed", "99", "--out", override_dir]) == 0
        echoed = load_config(os.path.join(override_dir, "effective_config.cfg"))
        assert echoed.seed == 99
        assert echoed.output_dir == override_dir

    def test_any_config_key_flag_wins_over_file(self, tmp_path):
        path = write_fixture_config(tmp_path, question_style="wh")
        out = str(tmp_path / "flagged")
        assert main(
            [
                "run", "--config", path,
                "--question-style", "cloze",
                "--lambda-weight", "0.25",
                "--out", out,
            ]
        ) == 0
        echoed = load_config(os.path.join(out, "effective_config.cfg"))
        assert echoed.question_style == "cloze"
        assert echoed.lambda_weight == 0.25
        sample = json.loads(
            open(os.path.join(out, "samples.jsonl"), encoding="utf-8").readline()
        )
        assert sample["style"] == "cloze"
        assert sample["lambda"] == 0.25

    def test_empty_input_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"input_paths = {empty}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "ingest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("input_paths", "The Lakers won.\nThe Café opened."),
            ("gazetteer_paths", "Lakers\tORG\nCafé\tORG"),
            ("stoplist_path", "lakers\ncafé"),
        ],
        ids=["input_paths", "gazetteer_paths", "stoplist_path"],
    )
    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys, key, lines):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(f"{lines}\n".encode("latin-1"))
        path = write_fixture_config(tmp_path, **{key: str(latin1)})
        assert main(["run", "--config", path]) == 2
        assert f"{latin1}:2: not valid UTF-8" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("lambda_weight = -1\ninput_paths = x\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_every_stage_command_validates_config(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, lambda_weight="0")
        for command in STAGE_COMMANDS:
            assert main([command, "--config", path]) == 2, command
            assert "lambda_weight" in capsys.readouterr().err

    def test_eval_command(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"prediction": "the haploid number"}\n', encoding="utf-8")
        gold.write_text('{"answers": ["haploid number"]}\n', encoding="utf-8")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["mean_f1"] == pytest.approx(0.8)

    def test_eval_mismatch_exits_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"prediction": "a"}\n{"prediction": "b"}\n', encoding="utf-8")
        gold.write_text('{"answers": ["a"]}\n', encoding="utf-8")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2

    @pytest.mark.parametrize(
        "pred_line, gold_line, bad",
        [('{"prediction": "a"}', '["a"]', "gold"), ("5", '{"answers": ["a"]}', "pred")],
    )
    def test_eval_non_object_line_exits_2(self, tmp_path, capsys, pred_line, gold_line, bad):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text(pred_line + "\n", encoding="utf-8")
        gold.write_text(gold_line + "\n", encoding="utf-8")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
        assert f"{tmp_path / bad}.jsonl:1: " in capsys.readouterr().err

    def test_priors_file_of_wrong_shape_exits_2(self, tmp_path, capsys):
        priors = tmp_path / "priors.json"
        priors.write_text("[]\n", encoding="utf-8")
        path = write_fixture_config(tmp_path, priors_path=str(priors))
        assert main(["run", "--config", path]) == 2
        assert f"{priors}: priors must map" in capsys.readouterr().err

    def test_zero_sample_run_warns_but_succeeds(self, tmp_path, capsys):
        doc = tmp_path / "docs" / "plain.txt"
        doc.parent.mkdir()
        doc.write_text("nothing here matches any rule at all.", encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"input_paths = {doc}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert re.search(r"# training samples\s+0\b", captured.out)
        assert "warning" in captured.err
