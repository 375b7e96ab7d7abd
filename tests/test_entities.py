from __future__ import annotations

import gc
import json
import re
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import RecognizerHandler, make_sentence
from minprompt import entities as entities_mod
from minprompt.entities import (
    ENTITY_TYPES,
    Gazetteer,
    RecognizerConfig,
    load_gazetteers,
    load_sidecar,
    load_stoplist,
    normalize_key,
    recognize,
    recognize_builtin,
    recognize_service,
    wh_family,
)
from minprompt.errors import PipelineError, ValidationError
from minprompt.offsets import byte_slice

LAKERS = "The Lakers moved to Los Angeles in 1960."
GAZ = Gazetteer({"Lakers": "ORG", "Los Angeles": "GPE"})
NO_TERMS = Gazetteer({})


def surfaces(mentions):
    return [(m.surface, m.entity_type) for m in mentions]


class TestBuiltinRecognizer:
    def test_gazetteer_pattern_mix(self):
        mentions = recognize_builtin(make_sentence(0, LAKERS), GAZ)
        assert surfaces(mentions) == [
            ("Lakers", "ORG"),
            ("Los Angeles", "GPE"),
            ("1960", "DATE"),
        ]

    def test_money_pattern(self):
        mentions = recognize_builtin(make_sentence(0, "It costs $5."), NO_TERMS)
        assert surfaces(mentions) == [("$5", "MONEY")]

    def test_no_rule_fires(self):
        assert recognize_builtin(make_sentence(0, "the the the"), NO_TERMS) == []

    def test_percent_and_cardinal(self):
        mentions = recognize_builtin(make_sentence(0, "Sales rose 12% over 3 weeks."), NO_TERMS)
        assert surfaces(mentions) == [("12%", "PERCENT"), ("3", "CARDINAL")]

    def test_number_words(self):
        mentions = recognize_builtin(make_sentence(0, "He scored forty points."), NO_TERMS)
        assert surfaces(mentions) == [("forty", "CARDINAL")]

    def test_month_name_date_span(self):
        mentions = recognize_builtin(
            make_sentence(0, "It opened on March 5, 1960 exactly."), NO_TERMS
        )
        assert ("March 5, 1960", "DATE") in surfaces(mentions)

    def test_modal_may_is_not_a_date(self):
        mentions = recognize_builtin(make_sentence(0, "He may arrive soon."), NO_TERMS)
        assert surfaces(mentions) == []

    def test_capitalized_run_mid_sentence(self):
        mentions = recognize_builtin(make_sentence(0, "He visited Baker Street twice."), NO_TERMS)
        assert surfaces(mentions) == [("Baker Street", "MISC")]

    def test_sentence_initial_token_never_joins_a_run(self):
        mentions = recognize_builtin(make_sentence(0, "The Lakers moved west."), NO_TERMS)
        assert surfaces(mentions) == [("Lakers", "MISC")]

    def test_sentence_initial_only_run_dropped(self):
        assert recognize_builtin(make_sentence(0, "They arrived late."), NO_TERMS) == []

    def test_gazetteer_requires_token_boundaries(self):
        mentions = recognize_builtin(make_sentence(0, "The Lakersish crowd."), GAZ)
        assert ("Lakers", "ORG") not in surfaces(mentions)

    def test_longest_match_wins(self):
        gaz = Gazetteer({"York": "GPE", "New York": "GPE", "New York City": "GPE"})
        mentions = recognize_builtin(make_sentence(0, "She flew to New York City."), gaz)
        assert surfaces(mentions) == [("New York City", "GPE")]

    def test_spans_are_byte_offsets(self):
        text = "Zoë visited Los Angeles."
        mentions = recognize_builtin(make_sentence(0, text), GAZ)
        (mention,) = [m for m in mentions if m.entity_type == "GPE"]
        start, end = mention.char_span
        assert byte_slice(text, start, end) == "Los Angeles"

    def test_deterministic(self):
        sentence = make_sentence(0, LAKERS)
        assert recognize_builtin(sentence, GAZ) == recognize_builtin(sentence, GAZ)

    def test_mentions_never_overlap(self):
        mentions = recognize_builtin(
            make_sentence(0, "In 1960 the Lakers paid $1,000 to Los Angeles County."), GAZ
        )
        spans = [m.char_span for m in mentions]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2


# Pieces for random texts and gazetteer terms: words with '_', digits and
# non-ASCII letters, capitalized words (runs), numbers, number words, money,
# percentages and dates (patterns), 'ſ' and the Kelvin sign (which casefold
# to ASCII letters), a non-ASCII digit, punctuation that terms may start
# with or that joins words, and term leads that a regex character class must
# escape or that are not ASCII.
_PIECES = [
    "a", "b", "ab", "Ab", "a_b", "_", "x1", "1960", "5", "é", "Éa", "ß", "ﬁ",
    " ", " ", " ", ".", "-", "$", "£", "€", "%", "'", "’", "ſ", "\u212a", "٣",
    "#", "(", "¡", "]", "^", "\\",
    "Twenty", "ONE", "ſix", "twenty-one", "May 5, 1999", "March", "3rd",
    "$1,000", "€2.5", "50%", "0.5%", "k1947",
]
_TERMS = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join)
_ENTRIES = st.lists(st.tuples(_TERMS, st.sampled_from(["ORG", "GPE", "PERSON"])), max_size=12)


def draw_gazetteer_and_text(data) -> tuple[dict[str, str], str]:
    """A gazetteer (later duplicates win) and a text made of pieces and its terms."""
    table = dict(data.draw(_ENTRIES))
    pool = _PIECES + sorted(table)
    return table, "".join(data.draw(st.lists(st.sampled_from(pool), max_size=25)))


def gazetteer_candidates(text: str, gazetteer: Gazetteer) -> list:
    words = entities_mod._word_candidates(text, gazetteer)
    found = [c for c in words if c[3] == entities_mod._GAZETTEER_RANK]
    return sorted(found + list(entities_mod._lead_candidates(text, gazetteer)))


class TestGazetteerIndex:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_candidates_equal_per_term_scan(self, data):
        table, text = draw_gazetteer_and_text(data)
        got = gazetteer_candidates(text, Gazetteer(table))
        assert got == sorted(oracles.scan_gazetteer_candidates(text, table))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_recognize_equals_reference(self, data):
        table, text = draw_gazetteer_and_text(data)
        sentence = make_sentence(0, text)
        expected = oracles.three_loop_recognize(sentence, table)
        assert recognize_builtin(sentence, Gazetteer(table)) == expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_no_source_yields_an_empty_candidate(self, data):
        # _resolve_overlaps requires end > start of every candidate
        table, text = draw_gazetteer_and_text(data)
        gaz = Gazetteer(table)
        candidates = entities_mod._word_candidates(text, gaz)
        candidates.extend(entities_mod._lead_candidates(text, gaz))
        candidates.extend(entities_mod._pattern_candidates(text))
        assert all(start < end for start, end, _, _ in candidates)

    def test_overlapping_and_repeated_matches(self):
        table = {"a a": "ORG", "a": "GPE", "-a": "PERSON"}
        text = "a a a -a"
        found = gazetteer_candidates(text, Gazetteer(table))
        assert found == sorted(oracles.scan_gazetteer_candidates(text, table))
        assert [(s, e) for s, e, t, _ in found if t == "ORG"] == [(0, 3), (2, 5)]
        assert ("-a", "PERSON") in [(text[s:e], t) for s, e, t, _ in found]

    def test_terms_inside_joined_words(self):
        gaz = Gazetteer({"one": "ORG", "rock'n": "GPE", "n’roll": "PERSON"})
        text = "Twenty-one rock'n’roll"
        found = [(text[s:e], t) for s, e, t, _ in gazetteer_candidates(text, gaz)]
        assert found == [("one", "ORG"), ("rock'n", "GPE"), ("n’roll", "PERSON")]

    @pytest.mark.parametrize(
        "term, text",
        [("The thing{}", "The thing7 was there."), ("#thing{}", "It was #thing7 there.")],
        ids=["word_led", "punctuation_led"],
    )
    def test_matching_time_does_not_grow_with_terms_sharing_a_first_token(self, term, text):
        # interleaved passes so clock-speed drift hits both sizes alike
        sentence = make_sentence(0, " ".join([text] * 10))
        sizes = (20, 20000)
        gazetteers = [Gazetteer({term.format(i): "ORG" for i in range(n)}) for n in sizes]
        best = [float("inf")] * len(sizes)
        for _ in range(5):
            for i, gaz in enumerate(gazetteers):
                gc.collect()
                gc.disable()
                begin = time.perf_counter()
                for _ in range(50):
                    recognize_builtin(sentence, gaz)
                best[i] = min(best[i], time.perf_counter() - begin)
                gc.enable()
        assert best[1] < 10 * best[0], f"times={best}"

    def test_later_entries_win_and_terms_index_by_lead(self, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        first.write_text("Lakers\tORG\nLos Angeles\tGPE\nLakers\tMISC\n", encoding="utf-8")
        second.write_text("Los Angeles\tLOC\n.com\tORG\n", encoding="utf-8")
        table = load_gazetteers([str(first), str(second)])
        assert type(table) is dict
        assert list(table.items()) == [("Lakers", "MISC"), ("Los Angeles", "LOC"), (".com", "ORG")]
        gaz = Gazetteer(table)
        assert gaz.buckets == {
            "Lakers": {6: {"Lakers": "MISC"}}, "Los": {11: {"Los Angeles": "LOC"}},
            ".": {4: {".com": "ORG"}},
        }
        assert gaz.leads.pattern == r"[\.]"


class TestResolveOverlaps:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(1, 8),
                st.sampled_from(["ORG", "DATE", "MISC"]),
                st.tuples(st.integers(0, 2), st.integers(0, 5)),
            ),
            max_size=40,
        )
    )
    def test_equals_quadratic_reference(self, raw):
        candidates = [(start, start + length, etype, rank) for start, length, etype, rank in raw]
        # 38 bounds every end drawn: start 30 plus length 8
        assert entities_mod._resolve_overlaps(
            candidates, 38
        ) == oracles.quadratic_resolve_overlaps(candidates)

    def test_long_sentence_doubles_linearly(self):
        # One-word capitalized runs, longer ones further right: longest-first
        # order takes them right to left, so keeping the accepted spans in a
        # sorted list would insert each one at its front.
        def long_sentence(n: int, lengths: int = 20):
            words = ", ".join("A" + "a" * (i * lengths // n) for i in range(n))
            return make_sentence(0, f"the {words}")

        sizes = (20000, 40000)
        sentences = [long_sentence(n) for n in sizes]
        for sentence in sentences:
            recognize_builtin(sentence, NO_TERMS)  # warmup: caches, allocator
        best = [float("inf")] * len(sizes)
        for _ in range(7):  # interleaved so clock-speed drift hits both sizes alike
            for i, sentence in enumerate(sentences):
                gc.collect()
                gc.disable()
                begin = time.perf_counter()
                mentions = recognize_builtin(sentence, NO_TERMS)
                best[i] = min(best[i], time.perf_counter() - begin)
                gc.enable()
        assert len(mentions) == sizes[-1]
        # on 2 vCPUs: 1.9-2.3 with the mask, 2.7-4.0 with an O(n) insert per span
        assert best[1] / best[0] < 2.8, f"times={best}"


class TestWhFamily:
    @pytest.mark.parametrize(
        "etype,family",
        [
            ("PERSON", "who"),
            ("NORP", "who"),
            ("GPE", "where"),
            ("LOC", "where"),
            ("FAC", "where"),
            ("DATE", "when"),
            ("TIME", "when"),
            ("CARDINAL", "how many"),
            ("ORDINAL", "how many"),
            ("MONEY", "how many"),
            ("PERCENT", "how many"),
            ("QUANTITY", "how many"),
            ("PRODUCT", "what"),
            ("ORG", "what"),
            ("MISC", "what"),
        ],
    )
    def test_mapping(self, etype, family):
        assert wh_family(etype) == family

    def test_total_over_all_types(self):
        for etype in ENTITY_TYPES:
            assert wh_family(etype) in {"who", "where", "when", "what", "how many"}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            wh_family("ANIMAL")


class TestSidecar:
    def write_sidecar(self, tmp_path, records):
        path = tmp_path / "mentions.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        return str(path)

    def test_consistent_record_accepted(self, tmp_path):
        sentences = [make_sentence(0, "The Lakers won.")]
        path = self.write_sidecar(
            tmp_path, [{"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"}]
        )
        mentions = load_sidecar(path, sentences)
        assert surfaces(mentions[0]) == [("Lakers", "ORG")]
        assert mentions[0][0].normalized_key == "lakers"

    def test_surface_mismatch_rejected(self, tmp_path):
        sentences = [make_sentence(0, "The Lakers won.")]
        path = self.write_sidecar(
            tmp_path, [{"sentence_id": 0, "start": 4, "end": 10, "surface": "Laker", "type": "ORG"}]
        )
        with pytest.raises(ValidationError, match="surface"):
            load_sidecar(path, sentences)

    def test_unknown_sentence_id_rejected(self, tmp_path):
        sentences = [make_sentence(i, f"Sentence number {i}.") for i in range(10)]
        path = self.write_sidecar(
            tmp_path, [{"sentence_id": 9999, "start": 0, "end": 8, "surface": "Sentence", "type": "MISC"}]
        )
        with pytest.raises(ValidationError, match="9999"):
            load_sidecar(path, sentences)

    def test_out_of_bounds_span_rejected(self, tmp_path):
        sentences = [make_sentence(0, "Short.")]
        path = self.write_sidecar(
            tmp_path, [{"sentence_id": 0, "start": 0, "end": 99, "surface": "Short.", "type": "MISC"}]
        )
        with pytest.raises(
            ValidationError, match=f"^{re.escape(path)}:1: end must be past start, .*; got 99$"
        ):
            load_sidecar(path, sentences)

    def test_empty_span_rejected(self, tmp_path):
        sentences = [make_sentence(0, "The Lakers won.")]
        path = self.write_sidecar(
            tmp_path, [{"sentence_id": 0, "start": 4, "end": 4, "surface": "", "type": "ORG"}]
        )
        with pytest.raises(
            ValidationError, match=f"^{re.escape(path)}:1: end must be past start, .*; got 4$"
        ):
            load_sidecar(path, sentences)

    def test_error_names_the_record_location(self, tmp_path):
        sentences = [make_sentence(0, "The Lakers won.")]
        path = self.write_sidecar(
            tmp_path,
            [
                {"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"},
                {"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "BAD"},
            ],
        )
        with pytest.raises(ValidationError, match=":2"):
            load_sidecar(path, sentences)

    def test_overlaps_resolved_longest_first(self, tmp_path):
        sentences = [make_sentence(0, "The Los Angeles Lakers won.")]
        path = self.write_sidecar(
            tmp_path,
            [
                {"sentence_id": 0, "start": 4, "end": 15, "surface": "Los Angeles", "type": "GPE"},
                {"sentence_id": 0, "start": 4, "end": 22, "surface": "Los Angeles Lakers", "type": "ORG"},
            ],
        )
        mentions = load_sidecar(path, sentences)
        assert surfaces(mentions[0]) == [("Los Angeles Lakers", "ORG")]


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(entities_mod, "RETRY_BASE_DELAY", 0.01)


class TestServiceMode:
    def test_empty_responses_mean_isolated_nodes(self, recognizer_service):
        sentences = [make_sentence(i, f"Sentence {i} here.") for i in range(3)]
        mentions = recognize_service(sentences, recognizer_service)
        assert mentions == {0: [], 1: [], 2: []}

    def test_valid_record_matches_sidecar_path(self, recognizer_service, tmp_path):
        RecognizerHandler.behavior = "lakers"
        sentences = [make_sentence(0, "The Lakers won.")]
        from_service = recognize_service(sentences, recognizer_service)
        sidecar = tmp_path / "m.jsonl"
        sidecar.write_text(
            json.dumps({"sentence_id": 0, "start": 4, "end": 10, "surface": "Lakers", "type": "ORG"}) + "\n",
            encoding="utf-8",
        )
        from_sidecar = load_sidecar(str(sidecar), sentences)
        assert from_service == from_sidecar

    def test_overlapping_spans_resolved(self, recognizer_service):
        RecognizerHandler.behavior = "overlapping"
        sentences = [make_sentence(0, "The Los Angeles Lakers won.")]
        mentions = recognize_service(sentences, recognizer_service)
        assert surfaces(mentions[0]) == [("Los Angeles Lakers", "ORG")]

    def test_batching(self, recognizer_service):
        sentences = [make_sentence(i, f"Sentence {i}.") for i in range(10)]
        recognize_service(sentences, recognizer_service, batch_size=4)
        assert RecognizerHandler.request_count == 3  # ceil(10 / 4)

    def test_transient_failures_are_retried(self, recognizer_service, fast_retries):
        RecognizerHandler.behavior = "lakers"
        RecognizerHandler.failures_left = 2
        sentences = [make_sentence(0, "The Lakers won.")]
        mentions = recognize_service(sentences, recognizer_service)
        assert surfaces(mentions[0]) == [("Lakers", "ORG")]

    def test_persistent_failure_fails_pipeline(self, recognizer_service, fast_retries):
        RecognizerHandler.behavior = "fail"
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(PipelineError, match="3 attempts"):
            recognize_service(sentences, recognizer_service)

    def test_reply_slower_than_the_timeout_is_retried_then_fails(
        self, recognizer_service, backoff_sleeps
    ):
        RecognizerHandler.behavior = "slow"
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(PipelineError, match="3 attempts: .*timed out"):
            recognize_service(sentences, recognizer_service, timeout=0.05)
        assert backoff_sleeps == [0.5, 1.0]

    def test_reply_that_is_not_json_is_retried_then_fails(
        self, recognizer_service, backoff_sleeps
    ):
        RecognizerHandler.behavior = "not_json"
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(PipelineError, match="3 attempts"):
            recognize_service(sentences, recognizer_service)
        assert RecognizerHandler.request_count == 3
        assert backoff_sleeps == [0.5, 1.0]

    def test_refused_connection_is_retried_then_fails(self, backoff_sleeps):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # nothing listens on the port once the probe is closed
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(PipelineError, match="3 attempts: .*refused"):
            recognize_service(sentences, f"http://127.0.0.1:{port}/")
        assert backoff_sleeps == [0.5, 1.0]

    def test_client_error_is_not_retried(self, recognizer_service):
        RecognizerHandler.behavior = "reject"
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(PipelineError, match="HTTP 400"):
            recognize_service(sentences, recognizer_service)
        assert RecognizerHandler.request_count == 1

    def test_record_for_a_sentence_outside_the_batch_rejected(self, recognizer_service):
        RecognizerHandler.behavior = "always_sentence_0"
        sentences = [make_sentence(i, "The Lakers won.") for i in range(4)]
        # batch 0 holds sentence 0, so its reply is valid
        mentions = recognize_service(sentences[:2], recognizer_service, batch_size=2)
        assert surfaces(mentions[0]) == [("Lakers", "ORG")]
        # batch 1 holds sentences 2 and 3 but its reply names sentence 0
        with pytest.raises(
            ValidationError,
            match="^service batch 1 record 0: sentence_id must be a known sentence id; got 0$",
        ):
            recognize_service(sentences, recognizer_service, batch_size=2, max_in_flight=1)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"sentence_id": True, "start": 4, "end": 10}, "sentence_id must be .*; got True$"),
            ({"sentence_id": 1, "start": False, "end": 3}, "start must be .*; got False$"),
        ],
        ids=["bool_sentence_id", "bool_offset"],
    )
    def test_bool_id_or_offset_rejected(self, recognizer_service, record, message):
        # true == 1 and false == 0, but a JSON boolean is not an id or an offset
        RecognizerHandler.behavior = "records"
        surface = "The Lakers won."[record["start"] : record["end"]]
        RecognizerHandler.records = [{**record, "surface": surface, "type": "ORG"}]
        sentences = [make_sentence(i, "The Lakers won.") for i in range(2)]
        with pytest.raises(ValidationError, match=f"batch 0 record 0: {message}"):
            recognize_service(sentences, recognizer_service)

    def test_empty_span_rejected(self, recognizer_service):
        RecognizerHandler.behavior = "records"
        RecognizerHandler.records = [
            {"sentence_id": 0, "start": 4, "end": 4, "surface": "", "type": "ORG"}
        ]
        sentences = [make_sentence(0, "The Lakers won.")]
        with pytest.raises(
            ValidationError,
            match="^service batch 0 record 0: end must be past start, .*; got 4$",
        ):
            recognize_service(sentences, recognizer_service)

    def test_dispatcher_service_mode(self, recognizer_service):
        RecognizerHandler.behavior = "lakers"
        config = RecognizerConfig(mode="service", service_endpoint=recognizer_service)
        sentences = [make_sentence(0, "The Lakers won.")]
        assert surfaces(recognize(sentences, config)[0]) == [("Lakers", "ORG")]


class TestConfigAndFiles:
    def test_recognizer_config_mode_requirements(self):
        with pytest.raises(ValidationError):
            RecognizerConfig(mode="sidecar").validate()
        with pytest.raises(ValidationError):
            RecognizerConfig(mode="service").validate()
        with pytest.raises(ValidationError):
            RecognizerConfig(mode="magic").validate()
        RecognizerConfig(mode="builtin").validate()

    def test_gazetteer_loading(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("# teams\nLakers\tORG\nLos Angeles\tGPE\n", encoding="utf-8")
        assert load_gazetteers([str(path)]) == {"Lakers": "ORG", "Los Angeles": "GPE"}

    def test_gazetteer_bad_type_rejected(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("Lakers\tTEAM\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="TEAM"):
            load_gazetteers([str(path)])

    def test_stoplist_normalizes(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("  The   NBA \n# nope\n", encoding="utf-8")
        assert load_stoplist(str(path)) == frozenset({"the nba"})


@given(st.text(min_size=1, max_size=60))
def test_normalize_key_idempotent(surface):
    once = normalize_key(surface)
    assert normalize_key(once) == once


@given(st.text(alphabet="aA bB\tcC\n", min_size=1, max_size=30))
def test_normalize_key_collapses_whitespace(surface):
    key = normalize_key(surface)
    assert "  " not in key
    assert key == key.strip()
