"""Bag-of-words token F1 for QA predictions."""

from __future__ import annotations

import json
from collections import Counter

from .errors import ParseError, ValidationError
from .retrieval import tokenize


def token_f1(prediction: str, gold_answers: list[str]) -> float:
    """Max over golds of the token-multiset F1 between prediction and gold.

    Precision and recall come from the multiset intersection of lowercase
    alphanumeric tokens; an empty intersection scores 0.
    """
    if not gold_answers:
        raise ValidationError("gold_answers must be non-empty")
    pred_counts = Counter(tokenize(prediction))
    pred_total = sum(pred_counts.values())
    best = 0.0
    for gold in gold_answers:
        gold_counts = Counter(tokenize(gold))
        gold_total = sum(gold_counts.values())
        overlap = sum((pred_counts & gold_counts).values())
        if overlap == 0:
            continue
        precision = overlap / pred_total
        recall = overlap / gold_total
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def evaluate_files(pred_path: str, gold_path: str) -> dict:
    """Score line-paired JSONL files: {"prediction": str} vs {"answers": [str...]}."""
    predictions: list[str] = []
    with open(pred_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{pred_path}:{lineno}: malformed JSON: {exc}") from exc
            if "prediction" not in record:
                raise ValidationError(f"{pred_path}:{lineno}: missing 'prediction'")
            predictions.append(record["prediction"])
    golds: list[list[str]] = []
    with open(gold_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{gold_path}:{lineno}: malformed JSON: {exc}") from exc
            answers = record.get("answers")
            if not isinstance(answers, list) or not answers:
                raise ValidationError(f"{gold_path}:{lineno}: missing non-empty 'answers'")
            golds.append(answers)
    if len(predictions) != len(golds):
        raise ValidationError(
            f"prediction/gold line counts differ: {len(predictions)} vs {len(golds)}"
        )
    scores = [token_f1(p, g) for p, g in zip(predictions, golds)]
    mean = sum(scores) / len(scores) if scores else 0.0
    return {"mean_f1": mean, "count": len(scores)}
