from __future__ import annotations

import json
import random
import re

import pytest

import oracles
from minprompt.errors import ValidationError
from minprompt.evaluation import evaluate_files, token_f1


class TestTokenF1:
    def test_partial_overlap(self):
        # P = 2/3, R = 1 -> F1 = 0.8
        assert token_f1("the haploid number", ["haploid number"]) == pytest.approx(0.8)

    def test_identical_strings(self):
        assert token_f1("Los Angeles Lakers", ["Los Angeles Lakers"]) == 1.0

    def test_max_over_golds(self):
        assert token_f1("a b", ["a b", "zzz"]) == 1.0
        assert token_f1("a b", ["zzz", "a b"]) == 1.0

    def test_no_overlap_is_zero(self):
        assert token_f1("alpha beta", ["gamma delta"]) == 0.0

    def test_case_and_punctuation_insensitive(self):
        assert token_f1("The Lakers!", ["the lakers"]) == 1.0

    def test_multiset_semantics(self):
        # prediction has one "a", gold has two: overlap 1, P = 1, R = 1/2
        assert token_f1("a", ["a a"]) == pytest.approx(2 * 1 * 0.5 / 1.5)

    def test_empty_gold_list_rejected(self):
        with pytest.raises(ValidationError):
            token_f1("anything", [])

    def test_empty_strings_have_no_overlap(self):
        assert token_f1("", ["something"]) == 0.0
        assert token_f1("something", [""]) == 0.0

    def test_fifty_cases_against_independent_reference(self):
        vocabulary = ["lakers", "angeles", "arena", "boston", "1960", "the", "of", "haploid"]
        rng = random.Random(5150)
        cases = []
        for _ in range(44):
            pred = " ".join(rng.choices(vocabulary, k=rng.randint(0, 6)))
            golds = [
                " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 3))
            ]
            cases.append((pred, golds))
        cases.extend(
            [
                ("the haploid number", ["haploid number"]),
                ("a b", ["a b", "zzz"]),
                ("Lakers won", ["lakers WON!"]),
                ("one two three", ["three two one"]),
                ("x y z", ["x", "y z"]),
                ("23", ["haploid number"]),
            ]
        )
        assert len(cases) == 50
        for pred, golds in cases:
            assert token_f1(pred, golds) == pytest.approx(
                oracles.naive_token_f1(pred, golds), abs=1e-9
            )


class TestEvaluateFiles:
    def write(self, path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        return str(path)

    def test_mean_over_pairs(self, tmp_path):
        pred = self.write(
            tmp_path / "pred.jsonl",
            [{"prediction": "the haploid number"}, {"prediction": "exact match"}],
        )
        gold = self.write(
            tmp_path / "gold.jsonl",
            [{"answers": ["haploid number"]}, {"answers": ["exact match"]}],
        )
        result = evaluate_files(pred, gold)
        assert result["count"] == 2
        assert result["mean_f1"] == pytest.approx((0.8 + 1.0) / 2)

    def test_line_count_mismatch_rejected(self, tmp_path):
        pred = self.write(tmp_path / "pred.jsonl", [{"prediction": "a"}])
        gold = self.write(tmp_path / "gold.jsonl", [{"answers": ["a"]}, {"answers": ["b"]}])
        with pytest.raises(ValidationError, match="differ"):
            evaluate_files(pred, gold)

    def test_missing_fields_rejected(self, tmp_path):
        pred = self.write(tmp_path / "pred.jsonl", [{"output": "a"}])
        gold = self.write(tmp_path / "gold.jsonl", [{"answers": ["a"]}])
        with pytest.raises(ValidationError, match="prediction"):
            evaluate_files(pred, gold)

    @pytest.mark.parametrize("line", ['["a"]', '"a"', '{"answers": [1]}'])
    def test_gold_line_that_is_not_an_answers_object_names_its_line(self, tmp_path, line):
        pred = self.write(tmp_path / "pred.jsonl", [{"prediction": "a"}, {"prediction": "b"}])
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"answers": ["a"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(gold))}:2: "):
            evaluate_files(pred, str(gold))

    @pytest.mark.parametrize("line", ["5", '["a"]', '{"prediction": null}'])
    def test_prediction_line_that_is_not_a_prediction_object_names_its_line(self, tmp_path, line):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(line + "\n", encoding="utf-8")
        gold = self.write(tmp_path / "gold.jsonl", [{"answers": ["a"]}])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(pred))}:1: "):
            evaluate_files(str(pred), gold)
