from __future__ import annotations

import hashlib
import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_interpreter, make_sentence, mention_at
from minprompt.corpus import Document, Sentence
from minprompt.entities import EntityMention, normalize_key
from minprompt.errors import ValidationError
from minprompt.qgen import (
    CLOZE_MASK,
    WhPriors,
    assemble_dataset,
    derive_seed,
    format_prompt,
    generate_cloze,
    generate_wh,
    sample_wh_bigram,
    split_fragments,
    write_samples_jsonl,
)

LAKERS = "The Lakers moved to Los Angeles in 1960."


def la_mention():
    return mention_at(LAKERS, "Los Angeles", "GPE")


def priors_of(**table):
    return WhPriors({k: v for k, v in table.items()})


class TestSplitFragments:
    def test_middle_answer(self):
        a, b = split_fragments(LAKERS, la_mention())
        assert a == "The Lakers moved to"
        assert b == "in 1960"

    def test_answer_at_start(self):
        text = "Los Angeles hosted the games."
        a, b = split_fragments(text, mention_at(text, "Los Angeles", "GPE"))
        assert a == ""
        assert b == "hosted the games"

    def test_answer_at_end_before_period(self):
        text = "The team moved to Los Angeles."
        a, b = split_fragments(text, mention_at(text, "Los Angeles", "GPE"))
        assert a == "The team moved to"
        assert b == ""

    def test_out_of_bounds_span_rejected(self):
        bogus = EntityMention("x", "MISC", (90, 95), "x")
        # (4, 5) splits the two bytes of "é"
        mid_character = EntityMention("é", "MISC", (4, 5), "e")
        for text, mention in (("short", bogus), ("Café au lait", mid_character)):
            with pytest.raises(ValidationError):
                split_fragments(text, mention)


class TestCloze:
    def test_mechanical_substitution(self):
        sentence = make_sentence(0, LAKERS)
        question = generate_cloze(sentence, la_mention())
        assert question == "The Lakers moved to [MASK] in 1960."
        assert format_prompt(question, la_mention().surface, LAKERS).target == (
            f"Question: {question} Answer: Los Angeles Context: {LAKERS}"
        )

    def test_answer_equal_to_whole_sentence(self):
        text = "Los Angeles"
        sentence = make_sentence(0, text)
        question = generate_cloze(sentence, mention_at(text, "Los Angeles", "GPE"))
        assert question == "[MASK]"

    def test_second_mention_masked_only(self):
        text = "Paris loves Paris."
        sentence = make_sentence(0, text)
        second = mention_at(text, "Paris", "GPE", occurrence=1)
        question = generate_cloze(sentence, second)
        assert question == "Paris loves [MASK]."

    def test_round_trip_reconstructs_source(self):
        sentence = make_sentence(0, LAKERS)
        question = generate_cloze(sentence, la_mention())
        assert question.replace(CLOZE_MASK, la_mention().surface, 1) == sentence.text

    def test_foreign_mention_rejected(self):
        sentence = make_sentence(0, "A short one.")
        # out of bounds, and a span that holds other text
        for mention in (la_mention(), EntityMention("Lakers", "ORG", (2, 7), "lakers")):
            with pytest.raises(ValidationError):
                generate_cloze(sentence, mention)


class TestWhSampling:
    def test_point_mass(self):
        priors = priors_of(GPE=[("where did", 1.0)])
        assert sample_wh_bigram(priors, "GPE", 123) == "where did"

    def test_fixed_seed_is_deterministic(self):
        priors = priors_of(GPE=[("where did", 0.5), ("where was", 0.5)])
        draws = {sample_wh_bigram(priors, "GPE", 99) for _ in range(10)}
        assert len(draws) == 1

    def test_fallback_to_family_word(self):
        priors = priors_of(PERSON=[("who was", 1.0)])
        assert sample_wh_bigram(priors, "GPE", 4) == "where"
        assert sample_wh_bigram(priors, "MONEY", 4) == "how many"

    def test_distribution_followed(self):
        priors = priors_of(GPE=[("almost never", 0.01), ("nearly always", 0.99)])
        counts = {"almost never": 0, "nearly always": 0}
        for seed in range(400):
            counts[sample_wh_bigram(priors, "GPE", seed)] += 1
        assert counts["nearly always"] > 350

    def test_malformed_priors_rejected_at_load(self):
        with pytest.raises(ValidationError, match="sum"):
            priors_of(GPE=[("where did", 0.5), ("where was", 0.4)])
        with pytest.raises(ValidationError, match="probability"):
            priors_of(GPE=[("where did", 0.0), ("where was", 1.0)])
        with pytest.raises(ValidationError, match="unknown entity type"):
            priors_of(ANIMAL=[("which", 1.0)])
        with pytest.raises(ValidationError, match="priors for GPE are empty"):
            priors_of(GPE=[])

    def test_default_priors_cover_every_type(self):
        priors = WhPriors.default()
        from minprompt.entities import ENTITY_TYPES

        assert set(priors.table) == ENTITY_TYPES

    def test_priors_file_round_trip(self, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps({"GPE": [["where did", 1.0]]}), encoding="utf-8")
        assert WhPriors.from_file(str(path)).table["GPE"] == [("where did", 1.0)]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"GPE": "where did"},
            {"GPE": [["where did"]]},
            {"GPE": [["where did", "1.0"]]},
            {"GPE": [[1, 1.0]]},
            {"GPE": [["where did", 0.5]]},
            {"GPE": []},
        ],
    )
    def test_malformed_priors_file_names_its_path(self, tmp_path, payload):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            WhPriors.from_file(str(path))


class TestGenerateWh:
    def test_template_wh_b_a(self):
        sentence = make_sentence(0, LAKERS)
        priors = priors_of(GPE=[("where", 1.0)])
        question = generate_wh(sentence, la_mention(), priors, 1)
        assert question == "where in 1960 The Lakers moved to?"

    def test_empty_b_skipped(self):
        text = "The team moved to Los Angeles."
        sentence = make_sentence(0, text)
        priors = priors_of(GPE=[("where", 1.0)])
        question = generate_wh(sentence, mention_at(text, "Los Angeles", "GPE"), priors, 1)
        assert question == "where The team moved to?"

    def test_both_fragments_empty(self):
        text = "Los Angeles"
        sentence = make_sentence(0, text)
        priors = priors_of(GPE=[("where", 1.0)])
        question = generate_wh(sentence, mention_at(text, "Los Angeles", "GPE"), priors, 1)
        assert question == "where?"

    def test_alternate_order_wh_a_b(self):
        sentence = make_sentence(0, LAKERS)
        priors = priors_of(GPE=[("where", 1.0)])
        question = generate_wh(sentence, la_mention(), priors, 1, order="wh_a_b")
        assert question == "where The Lakers moved to in 1960?"

    def test_internal_whitespace_collapsed(self):
        text = "The  team   moved  to Los Angeles  today."
        sentence = make_sentence(0, text)
        priors = priors_of(GPE=[("where", 1.0)])
        question = generate_wh(sentence, mention_at(text, "Los Angeles", "GPE"), priors, 1)
        assert "  " not in question
        assert question.endswith("?")


class TestFormatPrompt:
    def test_template_strings_exact(self):
        question = generate_wh(
            make_sentence(0, LAKERS), la_mention(), priors_of(GPE=[("where", 1.0)]), 1
        )
        sample = format_prompt(question, "Los Angeles", LAKERS, (20, 31), "<mask>")
        assert sample.input == (
            "Question: where in 1960 The Lakers moved to? "
            "Answer: <mask> "
            "Context: The Lakers moved to <mask> in 1960."
        )
        assert sample.target == (
            "Question: where in 1960 The Lakers moved to? "
            "Answer: Los Angeles "
            "Context: The Lakers moved to Los Angeles in 1960."
        )

    def test_empty_context_trailing_segment(self):
        question = generate_cloze(
            make_sentence(0, "Los Angeles"), mention_at("Los Angeles", "Los Angeles", "GPE")
        )
        sample = format_prompt(question, "Los Angeles", "")
        assert sample is None  # answer not in empty context -> skipped

    def test_configurable_mask_token(self):
        question = generate_wh(
            make_sentence(0, LAKERS), la_mention(), priors_of(GPE=[("where", 1.0)]), 1
        )
        sample = format_prompt(question, "Los Angeles", LAKERS, (20, 31), "[MASK]")
        assert " Answer: [MASK] " in sample.input
        # answer slot and the masked context occurrence both use the token
        assert sample.input.count("[MASK]") == 2

    def test_answer_missing_from_context_skips(self):
        question = generate_cloze(make_sentence(0, LAKERS), la_mention())
        assert format_prompt(question, "Los Angeles", "Totally unrelated context.") is None

    def test_fallback_to_first_occurrence_search(self):
        context = "Report: Los Angeles grew. Los Angeles grew again."
        question = generate_cloze(make_sentence(0, LAKERS), la_mention())
        sample = format_prompt(question, "Los Angeles", context)
        assert sample.input.endswith(
            "Context: Report: <mask> grew. Los Angeles grew again."
        )

    def test_alignment_property(self):
        answer = la_mention().surface
        question = generate_wh(
            make_sentence(0, LAKERS), la_mention(), priors_of(GPE=[("where", 1.0)]), 5
        )
        sample = format_prompt(question, answer, LAKERS, mask_token="<mask>")
        # replacing the answer slot and the context occurrence of the answer
        # in the target reproduces the input exactly
        rebuilt = sample.target.replace(
            f" Answer: {answer} ", " Answer: <mask> ", 1
        ).replace(answer, "<mask>", 1)
        assert rebuilt == sample.input


def simple_corpus():
    texts = {
        "doc_a": "The Lakers moved to Los Angeles in 1960. The Celtics stayed in Boston.",
        "doc_b": "Chicago hosted the Bulls.",
    }
    documents = {k: Document(k, "ds", v) for k, v in texts.items()}
    sentences = [
        Sentence(0, "doc_a", (0, 41), "The Lakers moved to Los Angeles in 1960.", "corpus"),
        Sentence(1, "doc_a", (42, 72), "The Celtics stayed in Boston.", "corpus"),
        Sentence(2, "doc_b", (0, 25), "Chicago hosted the Bulls.", "corpus"),
    ]
    mentions = {
        0: [
            mention_at(sentences[0].text, "Lakers", "ORG"),
            mention_at(sentences[0].text, "Los Angeles", "GPE"),
            mention_at(sentences[0].text, "1960", "DATE"),
        ],
        1: [
            mention_at(sentences[1].text, "Celtics", "ORG"),
            mention_at(sentences[1].text, "Boston", "GPE"),
        ],
        2: [
            mention_at(sentences[2].text, "Chicago", "GPE"),
            mention_at(sentences[2].text, "Bulls", "ORG"),
        ],
    }
    return documents, sentences, mentions


class TestAssembleDataset:
    def test_one_sample_per_mention(self):
        documents, sentences, mentions = simple_corpus()
        samples = assemble_dataset(
            [0], sentences, mentions, documents, WhPriors.default(), styles=("wh",)
        )
        assert len(samples) == 3
        assert [s["answer"] for s in samples] == ["Lakers", "Los Angeles", "1960"]

    def test_empty_selection_empty_dataset(self):
        documents, sentences, mentions = simple_corpus()
        assert assemble_dataset([], sentences, mentions, documents, WhPriors.default()) == []

    def test_duplicates_collapse(self):
        text = "Lakers forever."
        documents = {
            "doc_a": Document("doc_a", "", text),
            "doc_b": Document("doc_b", "", text),
        }
        sentences = [
            Sentence(0, "doc_a", (0, 15), text, "corpus"),
            Sentence(1, "doc_b", (0, 15), text, "corpus"),
        ]
        mentions = {
            0: [mention_at(text, "Lakers", "ORG")],
            1: [mention_at(text, "Lakers", "ORG")],
        }
        samples = assemble_dataset(
            [0, 1], sentences, mentions, documents, WhPriors.default(), styles=("cloze",)
        )
        assert len(samples) == 1

    def test_both_styles_doubles_output(self):
        documents, sentences, mentions = simple_corpus()
        samples = assemble_dataset(
            [2], sentences, mentions, documents, WhPriors.default(), styles=("cloze", "wh")
        )
        assert [s["style"] for s in samples] == ["cloze", "wh", "cloze", "wh"]

    def test_wh_question_containing_answer_skipped(self, caplog):
        text = "Paris loves Paris."
        documents = {"d": Document("d", "", text)}
        sentences = [Sentence(0, "d", (0, 18), text, "corpus")]
        mentions = {0: [mention_at(text, "Paris", "GPE", occurrence=0)]}
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                [0], sentences, mentions, documents, WhPriors.default(), styles=("wh",)
            )
        assert samples == []
        assert any("appears" in r.message for r in caplog.records)

    def test_cloze_skipped_for_text_holding_the_mask(self, caplog):
        text = "The Lakers wrote [MASK] on the board."
        documents = {"d": Document("d", "", text)}
        sentences = [make_sentence(0, text, doc_id="d")]
        mentions = {0: [mention_at(text, "Lakers", "ORG")]}
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                [0], sentences, mentions, documents, WhPriors.default(), styles=("cloze", "wh")
            )
        assert [s["style"] for s in samples] == ["wh"]
        assert any(
            r.getMessage() == "skipping cloze sample for sentence 0: text already contains [MASK]"
            for r in caplog.records
        )

    def test_source_text_holding_the_mask_token_skipped(self, caplog):
        # the input would hold a third mask slot, in the first sentence
        doc = "Type <mask> to hide the Lakers name. The Lakers won in 1987."
        documents = {"d": Document("d", "", doc)}
        sentences = [
            Sentence(0, "d", (0, 36), doc[:36], "corpus"),
            Sentence(1, "d", (37, 60), doc[37:], "corpus"),
        ]
        mentions = {
            0: [mention_at(sentences[0].text, "Lakers", "ORG")],
            1: [mention_at(sentences[1].text, name, "ORG") for name in ("Lakers", "1987")],
        }
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                [0, 1], sentences, mentions, documents, WhPriors.default(), styles=("cloze",)
            )
        assert samples == []
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping cloze sample for sentence {sid}: text already contains the mask token '<mask>'"
            for sid in (0, 1, 1)
        ]
        # another mask token leaves the same texts usable; the source texts
        # are checked, not the cloze question, which always holds [MASK]
        assert len(assemble_dataset(
            [0, 1], sentences, mentions, documents, WhPriors.default(), styles=("cloze",),
            mask_token=CLOZE_MASK,
        )) == 3

    def test_retrieved_sentence_holding_the_mask_token_skipped(self, caplog):
        documents, sentences, mentions = simple_corpus()
        retrieved = make_sentence(3, "Lakers fans typed <mask> in Los Angeles.", "s", "retrieved")
        mentions = {
            **mentions,
            3: [mention_at(retrieved.text, name, "ORG") for name in ("Lakers", "Los Angeles")],
        }
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                [0, 3], sentences + [retrieved], mentions, documents, WhPriors.default(),
                styles=("cloze",), query_of={3: 0},
            )
        # the query document holds no mask token, so its own sentence still gives samples
        assert {s["sentence_id"] for s in samples} == {0}
        assert len(samples) == 3
        assert sum("mask token" in r.getMessage() for r in caplog.records) == 2

    @pytest.mark.parametrize(
        "case, style, expected",
        [
            ("mask_token", "wh", "text already contains the mask token '<mask>'"),
            ("cloze_mask", "cloze", "text already contains [MASK]"),
            ("answer_in_question", "wh", "answer 'Paris' appears in the question"),
            ("answer_not_in_context", "cloze", "answer 'Bulls' not found in context"),
            ("duplicate", "cloze", "duplicate of an earlier sample"),
        ],
    )
    def test_each_skip_reason_logs_one_record(self, caplog, case, style, expected):
        # the reasons in order of precedence; each case breaks only its own
        text, answer = {
            "mask_token": ("Type <mask> to hide the Lakers name.", "Lakers"),
            "cloze_mask": ("The Lakers wrote [MASK] on the board.", "Lakers"),
            "answer_in_question": ("Paris loves Paris.", "Paris"),
            "answer_not_in_context": ("The Bulls moved to Los Angeles.", "Bulls"),
            "duplicate": ("Lakers forever.", "Lakers"),
        }[case]
        query = make_sentence(0, "Lakers fans.", doc_id="q")
        documents = {"d": Document("d", "", text), "q": Document("q", "", query.text)}
        sentences = [query, make_sentence(1, text, doc_id="d"), make_sentence(2, text, doc_id="d")]
        mentions = {sid: [mention_at(text, answer, "ORG")] for sid in (1, 2)}
        selected, query_of, sid = [1], None, 1
        if case == "duplicate":
            selected, sid = [1, 2], 2
        if case == "answer_not_in_context":
            # retrieved for sentence 0, whose document lacks the answer
            sentences[1] = make_sentence(1, text, "support", "retrieved")
            query_of = {1: 0}
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                selected, sentences, mentions, documents, WhPriors.default(),
                styles=(style,), query_of=query_of,
            )
        assert len(samples) == (case == "duplicate")
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {style} sample for sentence {sid}: {expected}"
        ]

    def test_deterministic_output(self):
        documents, sentences, mentions = simple_corpus()
        kwargs = dict(styles=("cloze", "wh"), seed=7)
        first = assemble_dataset([0, 1, 2], sentences, mentions, documents, WhPriors.default(), **kwargs)
        second = assemble_dataset([0, 1, 2], sentences, mentions, documents, WhPriors.default(), **kwargs)
        assert first == second

    def test_retrieved_sentence_uses_query_context(self):
        # "Lakers" first appears in doc_a as text the recognizer left out; the
        # masked span is the key's first mention, at offset 25
        doc = "Lakers fans cheered. The Lakers moved to Los Angeles in 1960."
        documents = {"doc_a": Document("doc_a", "ds", doc)}
        query = Sentence(1, "doc_a", (21, 61), doc[21:], "corpus")
        retrieved = make_sentence(2, "Los Angeles welcomed Lakers crowds.", "support", "retrieved")
        sentences = [Sentence(0, "doc_a", (0, 20), doc[:20], "corpus"), query, retrieved]
        mentions = {
            0: [],
            1: [mention_at(query.text, name, "ORG") for name in ("Lakers", "Los Angeles")],
            2: [mention_at(retrieved.text, name, "ORG") for name in ("Los Angeles", "Lakers")],
        }
        samples = assemble_dataset(
            [2], sentences, mentions, documents, WhPriors.default(), styles=("cloze",),
            query_of={2: 1},
        )
        assert [s["answer"] for s in samples] == ["Los Angeles", "Lakers"]
        for sample, (start, end) in zip(samples, [(41, 52), (25, 31)]):
            assert sample["input"].endswith(f"Context: {doc[:start]}<mask>{doc[end:]}")
            assert sample["context"] == doc
            assert sample["doc_id"] == "doc_a"

    def test_retrieved_answer_spelled_otherwise_in_the_query_document_skipped(self, caplog):
        # the key's first mention in the context reads "Lakers", not the
        # answer "LAKERS", and no other occurrence is found
        documents, sentences, mentions = simple_corpus()
        retrieved = make_sentence(3, "LAKERS fans filled Los Angeles.", "support", "retrieved")
        mentions = {
            **mentions,
            3: [mention_at(retrieved.text, name, "ORG") for name in ("LAKERS", "Los Angeles")],
        }
        with caplog.at_level("INFO", logger="minprompt.qgen"):
            samples = assemble_dataset(
                [3], sentences + [retrieved], mentions, documents, WhPriors.default(),
                styles=("cloze",), query_of={3: 0},
            )
        assert [s["answer"] for s in samples] == ["Los Angeles"]
        assert samples[0]["input"].endswith(
            "Context: The Lakers moved to <mask> in 1960. The Celtics stayed in Boston."
        )
        assert any("'LAKERS' not found in context" in r.getMessage() for r in caplog.records)

    def test_lambda_recorded(self):
        documents, sentences, mentions = simple_corpus()
        samples = assemble_dataset(
            [0], sentences, mentions, documents, WhPriors.default(), lambda_weight=0.5
        )
        assert all(s["lambda"] == 0.5 for s in samples)


class TestJsonl:
    def test_schema_and_no_trailing_blank_line(self, tmp_path):
        documents, sentences, mentions = simple_corpus()
        samples = assemble_dataset(
            [0], sentences, mentions, documents, WhPriors.default(), dataset_id="ds"
        )
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(samples, str(path))
        raw = path.read_text(encoding="utf-8")
        assert not raw.endswith("\n\n")
        records = [json.loads(line) for line in raw.strip().split("\n")]
        assert len(records) == len(samples)
        for record in records:
            assert set(record) == {
                "input", "target", "question", "answer", "context",
                "style", "dataset_id", "doc_id", "sentence_id", "lambda",
            }
            assert record["dataset_id"] == "ds"


def test_derive_seed_stability():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


_SEED_TRIPLES = [(0, 0, 0), (1, 2, 3), (7, 40213, 118), (2**40, 3, 0), (-5, 1, 2)]


def test_derive_seed_is_hashlib_blake2b_without_openssl():
    # derive_seed takes blake2b from _blake2, so a fresh process that calls
    # it has not loaded OpenSSL through hashlib
    code = (
        "import sys; from minprompt.qgen import derive_seed; "
        f"print([derive_seed(*t) for t in {_SEED_TRIPLES!r}], '_hashlib' in sys.modules)"
    )
    expected = [
        int.from_bytes(hashlib.blake2b(f"{s}:{i}:{m}".encode(), digest_size=8).digest(), "big")
        for s, i, m in _SEED_TRIPLES
    ]
    assert fresh_interpreter(code) == f"{expected} False"


# text without the mask literal, answers that stay findable byte-for-byte
_plain = st.text(
    alphabet=string.ascii_letters + " .,'",
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())


@given(prefix=_plain, answer=_plain, suffix=_plain)
@settings(max_examples=200)
def test_cloze_round_trip_property(prefix, answer, suffix):
    text = f"{prefix} {answer} {suffix}".strip()
    start = len(f"{prefix} ".encode("utf-8")) if prefix.strip() else len(prefix.encode())
    # anchor the mention by construction
    start = text.encode("utf-8").find(answer.encode("utf-8"))
    mention = EntityMention(
        answer, "MISC", (start, start + len(answer.encode("utf-8"))), normalize_key(answer) or "x"
    )
    sentence = make_sentence(0, text)
    question = generate_cloze(sentence, mention)
    assert question.replace(CLOZE_MASK, answer, 1) == text
