"""Turn selected sentences into QA pairs and prompt-style training samples.

Two question styles: cloze (the answer span becomes "[MASK]") and the
wh template (an interrogative bigram, then the fragment after the answer,
then the fragment before it, then "?"). Each QA pair is rendered into an
(input, target) string pair: the input masks the answer slot and the
chosen entity occurrence inside the context; the target restores both.
The context is the sentence's document; a retrieved sentence's is the
document of the query sentence that fetched it.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .corpus import ORIGIN_CORPUS, ORIGIN_RETRIEVED, Document, Sentence
from .entities import ENTITY_TYPES, EntityMention, wh_family
from .errors import ValidationError
from .fileio import read_json, write_jsonl

log = logging.getLogger(__name__)

STYLE_CLOZE = "cloze"
STYLE_WH = "wh"
STYLES = (STYLE_CLOZE, STYLE_WH)

ORDER_WH_B_A = "wh_b_a"
ORDER_WH_A_B = "wh_a_b"
TEMPLATE_ORDERS = (ORDER_WH_B_A, ORDER_WH_A_B)

CLOZE_MASK = "[MASK]"
DEFAULT_MASK_TOKEN = "<mask>"

_SENTENCE_FINAL = ".!?"


@dataclass(frozen=True)
class QaPair:
    question: str
    answer: str
    context: str
    # Byte span of the chosen entity occurrence inside the context, when known.
    context_answer_span: tuple[int, int] | None = None


class Prompt(NamedTuple):
    input: str
    target: str


def _is_prior(entry) -> bool:
    """A [bigram, probability] pair as JSON decodes it."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], (int, float))
        and not isinstance(entry[1], bool)
    )


class WhPriors:
    """Per entity type, a distribution over question-opening bigrams."""

    def __init__(self, table: dict[str, list[tuple[str, float]]]):
        for etype, entries in table.items():
            if etype not in ENTITY_TYPES:
                raise ValidationError(f"priors reference unknown entity type {etype!r}")
            if not entries:
                raise ValidationError(f"priors for {etype} are empty")
            total = 0.0
            for bigram, prob in entries:
                if not bigram or prob <= 0:
                    raise ValidationError(
                        f"priors for {etype}: bigram {bigram!r} has probability {prob}"
                    )
                total += prob
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"priors for {etype} sum to {total!r}, expected 1.0"
                )
        self.table = {etype: list(entries) for etype, entries in table.items()}

    @classmethod
    def from_file(cls, path: str) -> "WhPriors":
        """Priors from a JSON object mapping each entity type to a list of
        [bigram, probability] pairs; a file of any other shape names its path."""
        raw = read_json(path)
        if not isinstance(raw, dict) or not all(
            isinstance(entries, list) and all(_is_prior(entry) for entry in entries)
            for entries in raw.values()
        ):
            raise ValidationError(
                f"{path}: priors must map each entity type to a list of [bigram, probability] pairs"
            )
        try:
            return cls({etype: [(b, float(p)) for b, p in pairs] for etype, pairs in raw.items()})
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "WhPriors":
        with resources.as_file(resources.files("minprompt.data") / "priors.json") as path:
            return cls.from_file(str(path))


def derive_seed(global_seed: int, sentence_id: int, mention_start: int) -> int:
    """Stable per-sample RNG seed from the run seed and the mention's position."""
    tag = f"{global_seed}:{sentence_id}:{mention_start}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def sample_wh_bigram(priors: WhPriors, answer_type: str, rng_seed: int) -> str:
    """Inverse-CDF draw from the type's bigram distribution.

    Types absent from the priors fall back to the bare wh-family word.
    """
    entries = priors.table.get(answer_type)
    if not entries:
        return wh_family(answer_type)
    draw = random.Random(rng_seed).random()
    cumulative = 0.0
    for bigram, prob in entries:
        cumulative += prob
        if draw < cumulative:
            return bigram
    return entries[-1][0]


def _split_at(text: str, answer: EntityMention) -> tuple[str, str]:
    """The text before and after the answer's byte span, which must hold
    the answer's surface and land on UTF-8 character boundaries."""
    data = text.encode("utf-8")
    start, end = answer.char_span
    try:
        if not 0 <= start <= end <= len(data) or data[start:end].decode("utf-8") != answer.surface:
            raise ValueError
        return data[:start].decode("utf-8"), data[end:].decode("utf-8")
    except ValueError:  # UnicodeDecodeError included
        raise ValidationError(
            f"mention {answer.surface!r} at {answer.char_span} does not belong to "
            f"its sentence of {len(data)} bytes"
        ) from None


def split_fragments(sentence_text: str, answer: EntityMention) -> tuple[str, str]:
    """Text before the answer span, and text after it with the final
    punctuation stripped; both trimmed."""
    fragment_a, fragment_b = _split_at(sentence_text, answer)
    return fragment_a.strip(), fragment_b.strip().rstrip(_SENTENCE_FINAL).strip()


def generate_cloze(
    sentence: Sentence,
    answer: EntityMention,
    context: str,
    context_answer_span: tuple[int, int] | None = None,
) -> QaPair:
    """Replace the answer span with "[MASK]"; the span-targeted edit keeps
    the round trip byte-exact even with repeated mentions."""
    before, after = _split_at(sentence.text, answer)
    return QaPair(before + CLOZE_MASK + after, answer.surface, context, context_answer_span)


def generate_wh(
    sentence: Sentence,
    answer: EntityMention,
    priors: WhPriors,
    seed: int,
    context: str,
    context_answer_span: tuple[int, int] | None = None,
    order: str = ORDER_WH_B_A,
) -> QaPair:
    """Template question: wh-bigram + fragment B + fragment A + "?"."""
    if order not in TEMPLATE_ORDERS:
        raise ValidationError(f"unknown template order {order!r}")
    fragment_a, fragment_b = split_fragments(sentence.text, answer)
    bigram = sample_wh_bigram(priors, answer.entity_type, seed)
    if order == ORDER_WH_B_A:
        parts = [bigram, fragment_b, fragment_a]
    else:
        parts = [bigram, fragment_a, fragment_b]
    question = " ".join(" ".join(part for part in parts if part).split()) + "?"
    return QaPair(question, answer.surface, context, context_answer_span)


def format_prompt(qa: QaPair, mask_token: str = DEFAULT_MASK_TOKEN) -> Prompt | None:
    """Render "Question: .. Answer: .. Context: .." input/target strings.

    The input masks both the answer slot and one occurrence of the answer
    in the context: the one at `context_answer_span` if that span holds the
    answer, else the first. The target restores both. Returns None when the
    context does not hold the answer.
    """
    context = qa.context.encode("utf-8")
    answer = qa.answer.encode("utf-8")
    start, end = qa.context_answer_span or (-1, -1)
    if not (0 <= start <= end <= len(context) and context[start:end] == answer):
        start = context.find(answer)
        if start == -1:
            return None
        end = start + len(answer)
    masked_context = (context[:start] + mask_token.encode("utf-8") + context[end:]).decode("utf-8")
    return Prompt(
        f"Question: {qa.question} Answer: {mask_token} Context: {masked_context}",
        f"Question: {qa.question} Answer: {qa.answer} Context: {qa.context}",
    )


def _span_in_document(sentence: Sentence, mention: EntityMention) -> tuple[int, int]:
    return (
        sentence.char_span[0] + mention.char_span[0],
        sentence.char_span[0] + mention.char_span[1],
    )


def assemble_dataset(
    selected: list[int] | tuple[int, ...],
    sentences: list[Sentence],
    mentions: dict[int, list[EntityMention]],
    documents: dict[str, Document],
    priors: WhPriors,
    styles: tuple[str, ...] = (STYLE_WH,),
    mask_token: str = DEFAULT_MASK_TOKEN,
    lambda_weight: float = 1.0,
    seed: int = 0,
    order: str = ORDER_WH_B_A,
    query_of: dict[int, int] | None = None,
    dataset_id: str = "",
) -> list[dict]:
    """The `samples.jsonl` records: one per (selected sentence, mention,
    style), deduplicated.

    In the context, a corpus sentence's answer is its own mention. A
    retrieved sentence's is its key's first mention in the document of its
    query sentence (`query_of`: retrieved id -> query id, which pairs every
    retrieved sentence).

    Output order is deterministic: sentence id, then mention offset, then
    style order as configured. A sample that breaks a template invariant,
    or repeats an earlier one, is skipped with a logged reason rather than
    failing the run.
    """
    for style in styles:
        if style not in STYLES:
            raise ValidationError(f"unknown question style {style!r}")
    query_of = query_of or {}
    by_id = {s.sentence_id: s for s in sentences}
    # (doc_id, entity key) -> byte span of the key's first mention in the
    # document; only retrieved sentences read it
    first_span: dict[tuple[str, str], tuple[int, int]] = {}
    for s in sentences:
        if query_of and s.origin == ORIGIN_CORPUS:
            for m in mentions.get(s.sentence_id, ()):
                first_span.setdefault((s.doc_id, m.normalized_key), _span_in_document(s, m))
    samples: list[dict] = []
    seen: set[Prompt] = set()
    for sid in sorted(selected):
        sentence = by_id[sid]
        sentence_mentions = sorted(mentions.get(sid, ()), key=lambda m: m.char_span)
        retrieved = sentence.origin == ORIGIN_RETRIEVED
        context_doc = by_id[query_of[sid]].doc_id if retrieved else sentence.doc_id
        context = documents[context_doc].text
        # a mask token already in the source texts could not be told from
        # the sample's own mask slots
        holds_mask = mask_token in sentence.text or mask_token in context
        for mention in sentence_mentions:
            if retrieved:
                span = first_span.get((context_doc, mention.normalized_key))
            else:
                span = _span_in_document(sentence, mention)
            mention_seed = derive_seed(seed, sid, mention.char_span[0])
            for style in styles:
                if holds_mask:
                    log.info(
                        "skipping sample for sentence %d: text already contains the mask token %r",
                        sid,
                        mask_token,
                    )
                    continue
                if style == STYLE_CLOZE:
                    if CLOZE_MASK in sentence.text:
                        log.info(
                            "skipping cloze for sentence %d: text already contains %s",
                            sid,
                            CLOZE_MASK,
                        )
                        continue
                    qa = generate_cloze(sentence, mention, context, span)
                else:
                    qa = generate_wh(
                        sentence, mention, priors, mention_seed, context, span, order
                    )
                    if mention.surface in qa.question:
                        log.info(
                            "skipping wh question for sentence %d: answer %r appears "
                            "in the question",
                            sid,
                            mention.surface,
                        )
                        continue
                prompt = format_prompt(qa, mask_token)
                if prompt is None:
                    log.info(
                        "skipping sample for sentence %d: answer %r not found in context",
                        sid,
                        qa.answer,
                    )
                    continue
                if prompt in seen:
                    log.info("skipping sample for sentence %d: duplicate of an earlier sample", sid)
                    continue
                seen.add(prompt)
                samples.append(
                    {
                        "input": prompt.input,
                        "target": prompt.target,
                        "question": qa.question,
                        "answer": qa.answer,
                        "context": context,
                        "style": style,
                        "dataset_id": dataset_id,
                        # always the document whose text is the context
                        "doc_id": context_doc,
                        "sentence_id": sid,
                        "lambda": lambda_weight,
                    }
                )
    return samples


def write_samples_jsonl(samples: list[dict], path: str) -> None:
    """UTF-8 JSON Lines, newline separated, no trailing blank line."""
    write_jsonl(samples, path)
