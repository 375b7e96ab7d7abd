"""Bag-of-words token F1 for QA predictions."""

from __future__ import annotations

from collections import Counter

from .errors import ValidationError
from .fileio import Field, read_jsonl
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


PREDICTION = {"prediction": Field(str)}
GOLD = {
    "answers": Field(
        list, lambda v, r: v and {str}.issuperset(map(type, v)), "a non-empty list of strings"
    )
}


def evaluate_files(pred_path: str, gold_path: str) -> dict:
    """Score line-paired JSONL files: {"prediction": str} vs {"answers": [str...]}."""
    predictions = [r["prediction"] for r in read_jsonl(pred_path, PREDICTION)]
    golds = [r["answers"] for r in read_jsonl(gold_path, GOLD)]
    if len(predictions) != len(golds):
        raise ValidationError(
            f"prediction/gold line counts differ: {len(predictions)} vs {len(golds)}"
        )
    scores = [token_f1(p, g) for p, g in zip(predictions, golds)]
    mean = sum(scores) / len(scores) if scores else 0.0
    return {"mean_f1": mean, "count": len(scores)}
