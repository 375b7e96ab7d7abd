from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_sentence, mention_at
from minprompt.errors import ValidationError
from minprompt.retrieval import (
    RetrievalConstraints,
    build_index,
    rank,
    retrieve_support_sentence,
    tokenize,
)


def corpus(texts, doc_ids=None):
    doc_ids = doc_ids or [f"d{i}" for i in range(len(texts))]
    return [make_sentence(i, t, doc_id=doc_ids[i]) for i, t in enumerate(texts)]


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert tokenize("The Lakers, 1960!") == ["the", "lakers", "1960"]

    def test_underscore_is_not_alphanumeric(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("...") == []


def postings(index, term):
    """(sentence ids, BM25 weights) of the term's row of the index."""
    row = index.terms[term]
    lo, hi = index.indptr[row], index.indptr[row + 1]
    return index.posting_ids[lo:hi].tolist(), index.posting_weights[lo:hi].tolist()


class TestBuildIndex:
    def test_doc_freq_counts(self):
        index = build_index(corpus(["a b", "b c"]))
        assert {t: postings(index, t)[0] for t in "abc"} == {"a": [0], "b": [0, 1], "c": [1]}
        # both lengths equal avg_len (2), so the length term cancels:
        # idf * 1 * (k1 + 1) / (1 + k1) = idf = ln((N - df + 0.5) / (df + 0.5) + 1)
        assert {t: postings(index, t)[1] for t in "abc"} == {
            "a": [pytest.approx(math.log(2), abs=1e-12)],
            "b": [pytest.approx(math.log(1.2), abs=1e-12)] * 2,
            "c": [pytest.approx(math.log(2), abs=1e-12)],
        }

    def test_empty_corpus(self):
        index = build_index([])
        assert index.indexed_ids.size == 0
        assert rank(index, ["anything"]) == []

    def test_case_folding_merges_tf(self):
        index = build_index(corpus(["B b"]))
        ids, weights = postings(index, "b")
        assert ids == [0]
        # one posting with tf = 2: idf * 2 * (k1 + 1) / (2 + k1), length == avg_len
        assert weights == [pytest.approx(math.log(4 / 3) * 4.4 / 3.2, abs=1e-12)]

    def test_token_free_sentence_unindexed(self):
        index = build_index(corpus(["...", "real words"]))
        assert index.indexed_ids.tolist() == [1]
        assert index.indexed_ids.size == 1
        # an unindexed sentence is never ranked, not even in the zero-score tail
        for query in (["real"], ["nothing"], []):
            assert [sid for sid, _ in rank(index, query)] == [1]

    def test_only_token_free_sentences(self):
        # no sentence is indexed, so no average length is taken over none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = build_index(corpus(["...", "!!"]))
            assert index.indexed_ids.size == 0
            assert index.terms == {}
            for query in (["anything"], []):
                assert rank(index, query) == []


class TestScoring:
    def test_absent_term_scores_zero(self):
        index = build_index(corpus(["a b c"]))
        assert rank(index, ["zzz"]) == [(0, 0.0)]

    def test_single_sentence_exact_value(self):
        # idf = ln((1 - 1 + 0.5) / (1 + 0.5) + 1) = ln(4/3); length term
        # cancels (len == avg_len), tf term is 2.2 / 2.2
        index = build_index(corpus(["a"]))
        [(sid, score)] = rank(index, ["a"])
        assert sid == 0
        assert score == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_duplicate_sentences_score_identically(self):
        index = build_index(corpus(["the lakers won", "the lakers won", "other text here"]))
        for query in (["lakers"], ["the", "lakers", "won"], ["text"]):
            scores = dict(rank(index, query))
            assert scores[0] == scores[1]

    def test_rank_matches_naive_reference(self):
        rng = random.Random(11)
        vocabulary = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for trial in range(40):
            n = rng.randint(1, 20)
            texts = [
                " ".join(rng.choices(vocabulary, k=rng.randint(1, 8))) for _ in range(n)
            ]
            index = build_index(corpus(texts))
            query = rng.choices(vocabulary, k=rng.randint(1, 4))
            expected_scores = oracles.naive_bm25_scores(
                [tokenize(t) for t in texts], query
            )
            expected_order = sorted(
                (sid for sid in range(n) if tokenize(texts[sid])),
                key=lambda sid: (-expected_scores[sid], sid),
            )
            got = rank(index, query)
            assert [sid for sid, _ in got] == expected_order, f"trial {trial}"
            for sid, score in got:
                assert score == pytest.approx(expected_scores[sid], abs=1e-9)

    def test_rank_limit_cuts_after_sort(self):
        index = build_index(corpus(["a a a", "a a b", "a c", "d"]))
        top2 = rank(index, ["a"], limit=2)
        assert [sid for sid, _ in top2] == [0, 1]


# A small vocabulary makes score ties common; "" and "..." make unindexed
# sentences; "zz" is never indexed, so queries also hold absent terms.
_WORDS = st.sampled_from(["a", "b", "c", "d", "A"])
_TEXTS = st.one_of(
    st.lists(_WORDS, max_size=6).map(" ".join), st.sampled_from(["", "...", "a b", "b a"])
)


class TestRankAgainstDictLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(_TEXTS, max_size=12),
        query=st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=6),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=14)),
    )
    def test_rank_equals_dict_loop(self, texts, query, limit):
        index = build_index(corpus(texts))
        reference = oracles.DictBm25Index(texts)
        got = rank(index, query, limit=limit)
        assert got == oracles.dict_rank(reference, query, limit=limit)
        for sid, score in got:
            assert score == oracles.dict_bm25_score(reference, query, sid)

    def test_duplicated_tokens_and_ties_below_and_above_limit(self):
        texts = ["a b", "b a", "a b", "a", "c", "", "a a b"]
        index = build_index(corpus(texts))
        reference = oracles.DictBm25Index(texts)
        query = ["a", "b", "a", "zz", "b"]
        scored = sum(1 for sid in range(len(texts)) if {"a", "b"} & set(tokenize(texts[sid])))
        for limit in (None, 1, 2, 3, scored - 1, scored, scored + 1, len(texts) + 3):
            assert rank(index, query, limit=limit) == oracles.dict_rank(
                reference, query, limit=limit
            ), limit


def support_fixture():
    texts = [
        "Los Angeles welcomed the Lakers in 1960.",   # qualifies
        "Los Angeles is a large city.",               # no extra shared entity
        "The Lakers moved to Los Angeles in 1960.",   # same doc as query
    ]
    sentences = corpus(texts, doc_ids=["support_a", "support_b", "query_doc"])
    mentions = {
        0: [
            mention_at(texts[0], "Los Angeles", "GPE"),
            mention_at(texts[0], "Lakers", "ORG"),
            mention_at(texts[0], "1960", "DATE"),
        ],
        1: [mention_at(texts[1], "Los Angeles", "GPE")],
        2: [
            mention_at(texts[2], "Lakers", "ORG"),
            mention_at(texts[2], "Los Angeles", "GPE"),
            mention_at(texts[2], "1960", "DATE"),
        ],
    }
    index = build_index(sentences, mentions)
    query = make_sentence(0, "The Lakers moved to Los Angeles in 1960.", doc_id="query_doc")
    answer = mention_at(query.text, "Los Angeles", "GPE")
    return index, query, answer


class TestRetrieve:
    def test_qualifying_candidate_returned(self):
        index, query, answer = support_fixture()
        hit = retrieve_support_sentence(
            index, query, answer, {"lakers"}, oracles.query_ranking(index, query)
        )
        assert hit is not None
        assert hit.text == "Los Angeles welcomed the Lakers in 1960."
        assert hit.doc_id == "support_a"

    def test_no_candidate_with_answer_key(self):
        sentences = corpus(["The Celtics play in Boston."], doc_ids=["s"])
        mentions = {0: [mention_at(sentences[0].text, "Boston", "GPE")]}
        index = build_index(sentences, mentions)
        query = make_sentence(0, "The Lakers moved to Los Angeles.", doc_id="q")
        answer = mention_at(query.text, "Los Angeles", "GPE")
        assert retrieve_support_sentence(
            index, query, answer, {"lakers"}, oracles.query_ranking(index, query)
        ) is None

    def test_same_document_candidate_excluded(self):
        texts = ["Los Angeles welcomed the Lakers in 1960."]
        sentences = corpus(texts, doc_ids=["query_doc"])
        mentions = {
            0: [
                mention_at(texts[0], "Los Angeles", "GPE"),
                mention_at(texts[0], "Lakers", "ORG"),
            ]
        }
        index = build_index(sentences, mentions)
        query = make_sentence(0, "The Lakers moved to Los Angeles in 1960.", doc_id="query_doc")
        answer = mention_at(query.text, "Los Angeles", "GPE")
        assert retrieve_support_sentence(
            index, query, answer, {"lakers"}, oracles.query_ranking(index, query)
        ) is None

    def test_byte_identical_candidate_excluded(self):
        texts = ["The Lakers moved to Los Angeles in 1960."]
        sentences = corpus(texts, doc_ids=["other_doc"])
        mentions = {
            0: [
                mention_at(texts[0], "Los Angeles", "GPE"),
                mention_at(texts[0], "Lakers", "ORG"),
            ]
        }
        index = build_index(sentences, mentions)
        query = make_sentence(0, "The Lakers moved to Los Angeles in 1960.", doc_id="query_doc")
        answer = mention_at(query.text, "Los Angeles", "GPE")
        assert retrieve_support_sentence(
            index, query, answer, {"lakers"}, oracles.query_ranking(index, query)
        ) is None

    def test_min_extra_shared_entities_threshold(self):
        index, query, answer = support_fixture()
        strict = RetrievalConstraints(min_extra_shared_entities=2)
        ranking = oracles.query_ranking(index, query)
        hit = retrieve_support_sentence(
            index, query, answer, {"lakers", "1960"}, ranking, constraints=strict
        )
        assert hit is not None  # shares lakers and 1960
        stricter = RetrievalConstraints(min_extra_shared_entities=3)
        assert (
            retrieve_support_sentence(
                index, query, answer, {"lakers", "1960"}, ranking, constraints=stricter
            )
            is None
        )

    def test_constraint_switches(self):
        index, query, answer = support_fixture()
        relaxed = RetrievalConstraints(
            require_answer_entity=False,
            exclude_source_context=False,
            min_extra_shared_entities=0,
        )
        ranking = oracles.query_ranking(index, query)
        hit = retrieve_support_sentence(index, query, answer, set(), ranking, relaxed)
        # with everything off, the top BM25 hit that is not byte-identical wins
        assert hit is not None

    def test_negative_min_extra_rejected(self):
        with pytest.raises(ValidationError):
            RetrievalConstraints(min_extra_shared_entities=-1)

    def test_returned_sentence_passes_independent_validation(self):
        rng = random.Random(808)
        entities = ["lakers", "celtics", "boston", "angeles", "1960", "1947"]
        sentences = []
        mentions = {}
        for i in range(60):
            picked = rng.sample(entities, rng.randint(1, 3))
            text = "Entry about " + " and ".join(p.title() for p in picked) + "."
            sentence = make_sentence(i, text, doc_id=f"doc{i % 7}")
            sentences.append(sentence)
            mentions[i] = [
                mention_at(text, p.title(), "MISC") for p in picked
            ]
        index = build_index(sentences, mentions)
        constraints = RetrievalConstraints()
        hits = 0
        for query in sentences[:20]:
            for answer in mentions[query.sentence_id]:
                query_keys = frozenset(
                    m.normalized_key for m in mentions[query.sentence_id]
                )
                hit = retrieve_support_sentence(
                    index, query, answer, query_keys, oracles.query_ranking(index, query),
                    constraints,
                )
                if hit is None:
                    continue
                hits += 1
                hit_keys = index.keys[hit.sentence_id]
                assert answer.normalized_key in hit_keys
                assert hit.doc_id != query.doc_id
                assert len((hit_keys & query_keys) - {answer.normalized_key}) >= 1
                assert hit.text != query.text
        assert hits > 0

    def test_monotonicity_unrelated_sentence_keeps_result_valid(self):
        index, query, answer = support_fixture()
        before = retrieve_support_sentence(
            index, query, answer, {"lakers"}, oracles.query_ranking(index, query)
        )
        texts = [
            "Los Angeles welcomed the Lakers in 1960.",
            "Los Angeles is a large city.",
            "The Lakers moved to Los Angeles in 1960.",
            "Quantum chromodynamics binds quarks together.",
        ]
        sentences = corpus(texts, doc_ids=["support_a", "support_b", "query_doc", "unrelated"])
        mentions = {
            0: [
                mention_at(texts[0], "Los Angeles", "GPE"),
                mention_at(texts[0], "Lakers", "ORG"),
                mention_at(texts[0], "1960", "DATE"),
            ],
            1: [mention_at(texts[1], "Los Angeles", "GPE")],
            2: [
                mention_at(texts[2], "Lakers", "ORG"),
                mention_at(texts[2], "Los Angeles", "GPE"),
                mention_at(texts[2], "1960", "DATE"),
            ],
            3: [],
        }
        bigger = build_index(sentences, mentions)
        after = retrieve_support_sentence(
            bigger, query, answer, {"lakers"}, oracles.query_ranking(bigger, query)
        )
        assert after is not None and before is not None
        assert after.text == before.text
