from __future__ import annotations

import gzip
import json
import re
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_sentence, mention_at
from minprompt.corpus import (
    DEFAULT_ABBREVIATIONS,
    ORIGIN_RETRIEVED,
    Document,
    _raw_char_spans,
    ingest,
    load_abbreviations,
    segment_corpus,
    segment_sentences,
)
from minprompt.errors import ParseError, ValidationError
from minprompt.offsets import byte_spans


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_doc(text, doc_id="doc"):
    return Document(doc_id=doc_id, dataset_id="", text=text)


class TestIngestPlainText:
    def test_single_file_identity(self, tmp_path):
        path = write(tmp_path / "a.txt", "Hello world.")
        docs = ingest([path], "plain_text")
        assert len(docs) == 1
        assert docs[0].doc_id == "a.txt"
        assert docs[0].text == "Hello world."

    def test_duplicate_doc_id_rejected(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        p1 = write(tmp_path / "x" / "same.txt", "First.")
        p2 = write(tmp_path / "y" / "same.txt", "Second.")
        with pytest.raises(ValidationError, match="duplicate doc_id"):
            ingest([p1, p2], "plain_text")

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "a.txt", "   \n\t ")
        with pytest.raises(ValidationError, match="empty"):
            ingest([path], "plain_text")

    def test_unreadable_file_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        with pytest.raises(OSError) as excinfo:
            ingest([missing], "plain_text")
        assert "nope.txt" in str(excinfo.value)

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path / "a.txt", "Hello.")
        with pytest.raises(ValidationError, match="format"):
            ingest([path], "csv")


class TestIngestMrqa:
    def write_mrqa(self, path, records, header=True, gz=True):
        lines = []
        if header:
            lines.append(json.dumps({"header": {"dataset": "test"}}))
        lines.extend(json.dumps(r) for r in records)
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        if gz:
            path.write_bytes(gzip.compress(blob))
        else:
            path.write_bytes(blob)
        return str(path)

    def test_context_projection(self, tmp_path):
        path = self.write_mrqa(
            tmp_path / "d.jsonl.gz",
            [{"context": "Paris is in France.", "qas": []}],
        )
        docs = ingest([path], "mrqa_jsonl")
        assert len(docs) == 1
        assert docs[0].text == "Paris is in France."
        assert docs[0].doc_id == "d.jsonl.gz#0"

    def test_header_skipped_and_ids_dense(self, tmp_path):
        path = self.write_mrqa(
            tmp_path / "d.jsonl.gz",
            [{"context": "One."}, {"context": "Two."}],
        )
        docs = ingest([path], "mrqa_jsonl")
        assert [d.doc_id for d in docs] == ["d.jsonl.gz#0", "d.jsonl.gz#1"]

    def test_plain_jsonl_also_accepted(self, tmp_path):
        path = self.write_mrqa(tmp_path / "d.jsonl", [{"context": "One."}], gz=False)
        assert ingest([path], "mrqa_jsonl")[0].text == "One."

    def test_malformed_line_reports_line_number(self, tmp_path):
        blob = json.dumps({"header": 1}) + "\n" + '{"context": broken\n'
        path = tmp_path / "d.jsonl.gz"
        path.write_bytes(gzip.compress(blob.encode("utf-8")))
        with pytest.raises(ParseError, match=":2"):
            ingest([str(path)], "mrqa_jsonl")

    def test_missing_context_field(self, tmp_path):
        path = self.write_mrqa(tmp_path / "d.jsonl.gz", [{"qas": []}])
        message = f"{path}:2: context is missing; got {{'qas': []}}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ingest([path], "mrqa_jsonl")

    def test_dedup_contexts_switch(self, tmp_path):
        records = [{"context": "Same text."}, {"context": "Same text."}, {"context": "Other."}]
        path = self.write_mrqa(tmp_path / "d.jsonl.gz", records)
        assert len(ingest([path], "mrqa_jsonl")) == 3
        assert len(ingest([path], "mrqa_jsonl", dedup_contexts=True)) == 2


class TestSegmentation:
    def test_two_sentences_with_forced_offsets(self):
        doc = make_doc("The Lakers won. They celebrated.")
        spans = [s.char_span for s in segment_sentences(doc)]
        assert spans == [(0, 15), (16, 32)]

    def test_abbreviation_suppresses_split(self):
        doc = make_doc("Dr. Smith arrived.")
        assert [s.text for s in segment_sentences(doc)] == ["Dr. Smith arrived."]

    def test_degenerate_text_is_one_sentence(self):
        doc = make_doc("no terminal punctuation")
        sentences = segment_sentences(doc)
        assert len(sentences) == 1
        assert sentences[0].char_span == (0, 23)

    def test_lowercase_continuation_does_not_split(self):
        doc = make_doc("He got 3. apples yesterday")
        assert len(segment_sentences(doc)) == 1

    def test_split_before_digit(self):
        doc = make_doc("It ended. 42 people left.")
        assert [s.text for s in segment_sentences(doc)] == [
            "It ended.",
            "42 people left.",
        ]

    def test_custom_abbreviations_from_file(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("# comment\nZzz.\n", encoding="utf-8")
        abbreviations = load_abbreviations(str(path))
        doc = make_doc("Ask Zzz. Nobody knows.")
        assert len(segment_sentences(doc, abbreviations)) == 1
        assert len(segment_sentences(doc, DEFAULT_ABBREVIATIONS)) == 2

    def test_multibyte_text_byte_spans(self):
        text = "Zoë arrived早. ThenᲑ left."
        doc = make_doc(text)
        sentences = segment_sentences(doc)
        assert len(sentences) == 2
        for sentence in sentences:
            start, end = sentence.char_span
            assert text.encode("utf-8")[start:end].decode("utf-8") == sentence.text

    def test_non_ascii_text_costs_no_table_per_character(self):
        # the sentences themselves (94 characters each, stored at two bytes
        # a character) hold about 6.5 bytes per character of the document; a
        # code-point -> byte table alone held 36
        piece = (
            "The Lakers’ owner met Zoë at the café on Fifth Street in 1947, "
            "and they talked of the season. "
        )
        doc = make_doc(piece * (200_000 // len(piece)))
        segment_sentences(doc)
        tracemalloc.start()
        try:
            sentences = segment_sentences(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sentences) == 200_000 // len(piece)
        assert peak < 12 * len(doc.text)

    def test_reconstruction_with_gaps(self):
        text = "  First one. Second two!\n\nThird three?  "
        doc = make_doc(text)
        sentences = segment_sentences(doc)
        rebuilt = []
        data = text.encode("utf-8")
        cursor = 0
        for sentence in sentences:
            start, end = sentence.char_span
            rebuilt.append(data[cursor:start].decode("utf-8"))
            rebuilt.append(sentence.text)
            cursor = end
        rebuilt.append(data[cursor:].decode("utf-8"))
        assert "".join(rebuilt) == text


class TestCorpusAssembly:
    def docs(self):
        return [
            make_doc("Beta one. Beta two.", doc_id="b.txt"),
            make_doc("Alpha one.", doc_id="a.txt"),
        ]

    def test_ids_dense_and_doc_order_lexicographic(self):
        sentences = segment_corpus(self.docs())
        assert [s.sentence_id for s in sentences] == [0, 1, 2]
        assert [s.doc_id for s in sentences] == ["a.txt", "b.txt", "b.txt"]

    def test_determinism(self):
        first = segment_corpus(self.docs())
        second = segment_corpus(list(reversed(self.docs())))
        assert first == second


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=200))
@settings(max_examples=150)
def test_segmentation_partitions_non_whitespace(text):
    if not text.strip():
        return
    doc = make_doc(text)
    sentences = segment_sentences(doc)
    assert sentences, "non-whitespace text must yield at least one sentence"
    data = text.encode("utf-8")
    previous_end = -1
    covered = []
    for sentence in sentences:
        start, end = sentence.char_span
        assert start > previous_end  # non-overlapping, ascending
        previous_end = end
        assert data[start:end].decode("utf-8") == sentence.text
        assert sentence.text == sentence.text.strip()
        covered.append((start, end))
    # everything outside the spans is whitespace
    outside = []
    cursor = 0
    for start, end in covered:
        outside.append(data[cursor:start])
        cursor = end
    outside.append(data[cursor:])
    assert all(not chunk.decode("utf-8").strip() for chunk in outside)


# pieces that hit every branch of the boundary rule: terminals and runs of
# them, ASCII and Unicode whitespace, upper-case and title-case letters,
# digits, abbreviations (listed and not) and lower-case words
_SEGMENT_PIECES = st.sampled_from(
    [".", "!", "?", "...", "?!", " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000",
     "A", "Z", "\u00c9", "\u0394", "\u01c5", "\u10d1", "0", "7", "\u0663", "\u00b2",
     "a", "word", "Dr.", "dr.", "e.g.", "U.S.", "Zzz.", "\u00e9t\u00e9", "-", "'"]
)


@given(st.lists(_SEGMENT_PIECES, max_size=40).map("".join))
@settings(max_examples=400)
def test_raw_char_spans_equal_character_walk(text):
    for abbreviations in (DEFAULT_ABBREVIATIONS, frozenset({"zzz."})):
        assert _raw_char_spans(text, abbreviations) == oracles.loop_raw_char_spans(
            text, abbreviations
        )


# ASCII and 2-, 3- and 4-byte UTF-8 characters
_MIXED_WIDTH = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
        st.characters(min_codepoint=0x800, max_codepoint=0xFFFF, blacklist_categories=("Cs",)),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=60,
)


@given(_MIXED_WIDTH, st.data())
@settings(max_examples=300)
def test_byte_spans_equal_the_definition(text, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=12)))
    spans = list(zip(cuts[::2], cuts[1::2]))  # sorted and disjoint; may touch or be empty
    assert byte_spans(text, spans) == [
        (oracles.byte_offset(text, start), oracles.byte_offset(text, end)) for start, end in spans
    ]


@pytest.mark.parametrize(
    "spans",
    [[(2, 5), (4, 6)], [(3, 5), (0, 2)], [(3, 2)], [(0, 1), (5, 4)]],
    ids=["overlap", "out_of_order", "reversed", "reversed_after_first"],
)
def test_byte_spans_reject_unsorted_spans(spans):
    with pytest.raises(ValidationError, match="sorted and disjoint"):
        byte_spans("Zoë’s café 😀", spans)


def test_sentence_and_mention_records_have_no_instance_dict():
    # a run holds thousands of each; slots save a dict per record
    sentence = make_sentence(3, "The Lakers won in 1947.", doc_id="d1")
    mention = mention_at(sentence.text, "Lakers", "ORG")
    for record in (sentence, mention):
        assert not hasattr(record, "__dict__"), type(record).__name__
    # stage_retrieve renumbers a support hit this way
    moved = replace(sentence, sentence_id=9, origin=ORIGIN_RETRIEVED)
    assert (moved.sentence_id, moved.origin) == (9, ORIGIN_RETRIEVED)
    for field in fields(sentence):
        if field.name not in ("sentence_id", "origin"):
            assert getattr(moved, field.name) == getattr(sentence, field.name), field.name
