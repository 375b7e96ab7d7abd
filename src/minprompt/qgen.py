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

from .corpus import ORIGIN_CORPUS, ORIGIN_RETRIEVED, Document, Sentence
from .entities import ENTITY_TYPES, EntityMention, wh_family
from .errors import ValidationError
from .fileio import read_json, write_jsonl
from .offsets import byte_length, byte_slice

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
    style: str
    source_sentence_id: int
    # Byte span of the chosen entity occurrence inside the context, when known.
    context_answer_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class Provenance:
    dataset_id: str
    doc_id: str
    sentence_id: int


@dataclass(frozen=True)
class AugmentedSample:
    input: str
    target: str
    qa: QaPair
    lambda_weight: float
    provenance: Provenance


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


def split_fragments(sentence_text: str, answer: EntityMention) -> tuple[str, str]:
    """Text before the answer span, and text after it with the final
    punctuation stripped; both trimmed."""
    start, end = answer.char_span
    if not 0 <= start <= end <= byte_length(sentence_text):
        raise ValidationError(
            f"answer span {answer.char_span} out of bounds for sentence"
        )
    fragment_a = byte_slice(sentence_text, 0, start).strip()
    fragment_b = byte_slice(sentence_text, end, byte_length(sentence_text)).strip()
    fragment_b = fragment_b.rstrip(_SENTENCE_FINAL).strip()
    return fragment_a, fragment_b


def _check_answer_mention(sentence: Sentence, answer: EntityMention) -> None:
    start, end = answer.char_span
    if end > byte_length(sentence.text) or byte_slice(sentence.text, start, end) != answer.surface:
        raise ValidationError(
            f"mention {answer.surface!r} at {answer.char_span} does not belong to "
            f"sentence {sentence.sentence_id}"
        )


def generate_cloze(
    sentence: Sentence,
    answer: EntityMention,
    context: str,
    context_answer_span: tuple[int, int] | None = None,
) -> QaPair:
    """Replace the answer span with "[MASK]"; the span-targeted edit keeps
    the round trip byte-exact even with repeated mentions."""
    _check_answer_mention(sentence, answer)
    data = sentence.text.encode("utf-8")
    start, end = answer.char_span
    question = (data[:start] + CLOZE_MASK.encode("utf-8") + data[end:]).decode("utf-8")
    return QaPair(
        question=question,
        answer=answer.surface,
        context=context,
        style=STYLE_CLOZE,
        source_sentence_id=sentence.sentence_id,
        context_answer_span=context_answer_span,
    )


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
    _check_answer_mention(sentence, answer)
    fragment_a, fragment_b = split_fragments(sentence.text, answer)
    bigram = sample_wh_bigram(priors, answer.entity_type, seed)
    if order == ORDER_WH_B_A:
        parts = [bigram, fragment_b, fragment_a]
    else:
        parts = [bigram, fragment_a, fragment_b]
    question = " ".join(" ".join(part for part in parts if part).split()) + "?"
    return QaPair(
        question=question,
        answer=answer.surface,
        context=context,
        style=STYLE_WH,
        source_sentence_id=sentence.sentence_id,
        context_answer_span=context_answer_span,
    )


def _locate_in_context(qa: QaPair) -> tuple[int, int] | None:
    """Byte span of the chosen entity occurrence inside the context."""
    context_bytes = qa.context.encode("utf-8")
    answer_bytes = qa.answer.encode("utf-8")
    span = qa.context_answer_span
    if span is not None:
        start, end = span
        if 0 <= start <= end <= len(context_bytes) and context_bytes[start:end] == answer_bytes:
            return span
    pos = context_bytes.find(answer_bytes)
    if pos == -1:
        return None
    return pos, pos + len(answer_bytes)


def format_prompt(
    qa: QaPair,
    mask_token: str = DEFAULT_MASK_TOKEN,
    lambda_weight: float = 1.0,
    provenance: Provenance | None = None,
) -> AugmentedSample | None:
    """Render "Question: .. Answer: .. Context: .." input/target strings.

    The input masks both the answer slot and the chosen entity occurrence
    in the context; the target restores them. Returns None (with a logged
    reason) when the answer cannot be located in the context.
    """
    span = _locate_in_context(qa)
    if span is None:
        log.info(
            "skipping sample for sentence %d: answer %r not found in context",
            qa.source_sentence_id,
            qa.answer,
        )
        return None
    context_bytes = qa.context.encode("utf-8")
    masked_context = (
        context_bytes[: span[0]] + mask_token.encode("utf-8") + context_bytes[span[1] :]
    ).decode("utf-8")
    prompt_input = f"Question: {qa.question} Answer: {mask_token} Context: {masked_context}"
    target = f"Question: {qa.question} Answer: {qa.answer} Context: {qa.context}"
    if provenance is None:
        provenance = Provenance("", "", qa.source_sentence_id)
    return AugmentedSample(
        input=prompt_input,
        target=target,
        qa=qa,
        lambda_weight=lambda_weight,
        provenance=provenance,
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
) -> list[AugmentedSample]:
    """One sample per (selected sentence, mention, style), deduplicated.

    In the context, a corpus sentence's answer is its own mention. A
    retrieved sentence's is its key's first mention in the document of its
    query sentence (`query_of`: retrieved id -> query id, which pairs every
    retrieved sentence).

    Output order is deterministic: sentence id, then mention offset, then
    style order as configured. Samples whose QA pair breaks a template
    invariant are skipped with a logged reason rather than failing the run.
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
    samples: list[AugmentedSample] = []
    seen: set[tuple[str, str]] = set()
    for sid in sorted(selected):
        sentence = by_id[sid]
        sentence_mentions = sorted(mentions.get(sid, ()), key=lambda m: m.char_span)
        retrieved = sentence.origin == ORIGIN_RETRIEVED
        context_doc = by_id[query_of[sid]].doc_id if retrieved else sentence.doc_id
        context = documents[context_doc].text
        for mention in sentence_mentions:
            if retrieved:
                span = first_span.get((context_doc, mention.normalized_key))
            else:
                span = _span_in_document(sentence, mention)
            mention_seed = derive_seed(seed, sid, mention.char_span[0])
            for style in styles:
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
                # doc_id always names the document whose text is the context.
                provenance = Provenance(
                    dataset_id=dataset_id,
                    doc_id=context_doc,
                    sentence_id=sid,
                )
                sample = format_prompt(qa, mask_token, lambda_weight, provenance)
                if sample is None:
                    continue
                key = (sample.input, sample.target)
                if key in seen:
                    continue
                seen.add(key)
                samples.append(sample)
    return samples


def sample_to_json(sample: AugmentedSample) -> dict:
    """JSONL record for one training sample."""
    return {
        "input": sample.input,
        "target": sample.target,
        "question": sample.qa.question,
        "answer": sample.qa.answer,
        "context": sample.qa.context,
        "style": sample.qa.style,
        "dataset_id": sample.provenance.dataset_id,
        "doc_id": sample.provenance.doc_id,
        "sentence_id": sample.provenance.sentence_id,
        "lambda": sample.lambda_weight,
    }


def write_samples_jsonl(samples: list[AugmentedSample], path: str) -> None:
    """UTF-8 JSON Lines, newline separated, no trailing blank line."""
    write_jsonl((sample_to_json(s) for s in samples), path)
