"""Typed entity mentions from three interchangeable recognizers.

The built-in recognizer is a deterministic rule stand-in (gazetteers,
numeric/date patterns, capitalized runs). Sidecar files let externally
produced annotations be injected bit-exactly, and service mode calls an
HTTP recognizer. All three paths run through one record validator and one
overlap-resolution step, so they emit mentions with identical invariants.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import requests

from .corpus import Sentence
from .errors import PipelineError, ValidationError
from .offsets import ByteOffsets, byte_length, byte_slice

ENTITY_TYPES = frozenset(
    {
        "PERSON", "GPE", "LOC", "ORG", "DATE", "TIME", "CARDINAL", "ORDINAL",
        "MONEY", "PERCENT", "FAC", "EVENT", "PRODUCT", "NORP", "QUANTITY",
        "LAW", "LANGUAGE", "WORK_OF_ART", "MISC",
    }
)

_WH_BY_TYPE = {
    "PERSON": "who",
    "NORP": "who",
    "GPE": "where",
    "LOC": "where",
    "FAC": "where",
    "DATE": "when",
    "TIME": "when",
    "CARDINAL": "how many",
    "ORDINAL": "how many",
    "MONEY": "how many",
    "PERCENT": "how many",
    "QUANTITY": "how many",
}

MODE_BUILTIN = "builtin"
MODE_SIDECAR = "sidecar"
MODE_SERVICE = "service"
MODES = (MODE_BUILTIN, MODE_SIDECAR, MODE_SERVICE)


def wh_family(entity_type: str) -> str:
    """Map an entity type to its interrogative family ('what' by default)."""
    if entity_type not in ENTITY_TYPES:
        raise ValidationError(f"unknown entity type {entity_type!r}")
    return _WH_BY_TYPE.get(entity_type, "what")


def normalize_key(surface: str) -> str:
    """Casefold and collapse whitespace; identity of an entity for graph edges."""
    return " ".join(surface.casefold().split())


@dataclass(frozen=True)
class EntityMention:
    surface: str
    entity_type: str
    char_span: tuple[int, int]  # byte offsets into the sentence text
    normalized_key: str


@dataclass
class RecognizerConfig:
    mode: str = MODE_BUILTIN
    gazetteer_paths: tuple[str, ...] = ()
    sidecar_path: str | None = None
    service_endpoint: str | None = None
    service_timeout: float = 10.0
    service_batch_size: int = 64
    max_in_flight: int = 4
    retry_base_delay: float = 0.5

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown recognizer mode {self.mode!r}")
        if self.mode == MODE_SIDECAR and not self.sidecar_path:
            raise ValidationError("sidecar mode requires sidecar_path")
        if self.mode == MODE_SERVICE and not self.service_endpoint:
            raise ValidationError("service mode requires service_endpoint")


def load_gazetteers(paths: tuple[str, ...] | list[str]) -> dict[str, str]:
    """Load term -> entity type tables (tab-separated, '#' comments).

    Later files and later lines win on duplicate terms.
    """
    table: dict[str, str] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split("\t")
                if len(parts) != 2:
                    raise ValidationError(f"{path}:{lineno}: expected 'term<TAB>TYPE'")
                term, etype = parts[0].strip(), parts[1].strip()
                if etype not in ENTITY_TYPES:
                    raise ValidationError(f"{path}:{lineno}: unknown entity type {etype!r}")
                if not term:
                    raise ValidationError(f"{path}:{lineno}: empty term")
                table[term] = etype
    return table


# Candidate sources, in priority order for identical spans.
_SRC_GAZETTEER = 0
_SRC_PATTERN = 1
_SRC_CAPRUN = 2

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
_NUMBER_WORDS = frozenset(
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty "
    "thirty forty fifty sixty seventy eighty ninety hundred thousand "
    "million billion trillion".split()
)

# Month names stay case-sensitive so the modal "may" is not a DATE.
_MONTH_DATE_RE = re.compile(
    r"\b(?:%s)(?:\s+\d{1,2}(?:st|nd|rd|th)?)?(?:,?\s+\d{4})?\b" % "|".join(_MONTHS)
)
_YEAR_RE = re.compile(r"(?<!\d)\d{4}(?!\d)")
_PERCENT_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?%")
_MONEY_RE = re.compile(r"[$£€]\d(?:[\d,]*\d)?(?:\.\d+)?")
_INTEGER_RE = re.compile(r"(?<![\w.,])\d(?:[\d,]*\d)?(?![\w%])(?!\.\d)(?!,\d)")
_WORD_RE = re.compile(r"\w+(?:['’\-]\w+)*")

# Sub-rank within _SRC_PATTERN; decides ties on identical spans (a 4-digit
# year is a DATE, not a CARDINAL).
_PATTERNS = (
    (_MONTH_DATE_RE, "DATE", 0),
    (_YEAR_RE, "DATE", 1),
    (_PERCENT_RE, "PERCENT", 2),
    (_MONEY_RE, "MONEY", 3),
    (_INTEGER_RE, "CARDINAL", 4),
)


def _on_token_boundary(text: str, start: int, end: int) -> bool:
    if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
        return False
    if end < len(text) and (text[end].isalnum() or text[end] == "_"):
        return False
    return True


def _gazetteer_candidates(text: str, gazetteers: dict[str, str]):
    for term, etype in gazetteers.items():
        pos = text.find(term)
        while pos != -1:
            end = pos + len(term)
            if _on_token_boundary(text, pos, end):
                yield pos, end, etype, (_SRC_GAZETTEER, 0)
            pos = text.find(term, pos + 1)


def _pattern_candidates(text: str):
    for regex, etype, sub in _PATTERNS:
        for match in regex.finditer(text):
            yield match.start(), match.end(), etype, (_SRC_PATTERN, sub)
    for match in _WORD_RE.finditer(text):
        if match.group().casefold() in _NUMBER_WORDS:
            yield match.start(), match.end(), "CARDINAL", (_SRC_PATTERN, 5)


def _capitalized_run_candidates(text: str):
    tokens = list(_WORD_RE.finditer(text))
    run: list[re.Match] = []
    for index, tok in enumerate(tokens):
        if tok.group()[0].isupper():
            # Never let the sentence-initial token open or join a run; its
            # capitalization is forced by orthography.
            if index == 0:
                continue
            if run and text[run[-1].end() : tok.start()].strip():
                yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)
                run = []
            run.append(tok)
        else:
            if run:
                yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)
                run = []
    if run:
        yield run[0].start(), run[-1].end(), "MISC", (_SRC_CAPRUN, 0)


def _resolve_overlaps(candidates: list[tuple[int, int, str, tuple[int, int]]]):
    """Longest span first, then leftmost, then source priority."""
    ordered = sorted(candidates, key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    accepted: list[tuple[int, int, str]] = []
    for start, end, etype, _rank in ordered:
        if any(start < e and s < end for s, e, _ in accepted):
            continue
        accepted.append((start, end, etype))
    accepted.sort()
    return accepted


def recognize_builtin(
    sentence: Sentence, gazetteers: dict[str, str] | None = None
) -> list[EntityMention]:
    """Deterministic rule-based recognition over one sentence."""
    text = sentence.text
    gazetteers = gazetteers or {}
    candidates = list(_gazetteer_candidates(text, gazetteers))
    candidates.extend(_pattern_candidates(text))
    candidates.extend(_capitalized_run_candidates(text))
    offsets = ByteOffsets(text)
    mentions: list[EntityMention] = []
    for start, end, etype in _resolve_overlaps(candidates):
        surface = text[start:end]
        key = normalize_key(surface)
        if not key:
            continue
        mentions.append(
            EntityMention(
                surface=surface,
                entity_type=etype,
                char_span=offsets.byte_span(start, end),
                normalized_key=key,
            )
        )
    return mentions


def _validate_record(
    record: dict, sentences_by_id: dict[int, Sentence], where: str
) -> tuple[int, EntityMention]:
    """Shared validator for sidecar and service records."""
    for field_name in ("sentence_id", "start", "end", "surface", "type"):
        if field_name not in record:
            raise ValidationError(f"{where}: record is missing {field_name!r}")
    sid = record["sentence_id"]
    start, end = record["start"], record["end"]
    surface, etype = record["surface"], record["type"]
    if not isinstance(sid, int) or sid not in sentences_by_id:
        raise ValidationError(f"{where}: unknown sentence_id {sid!r}")
    if etype not in ENTITY_TYPES:
        raise ValidationError(f"{where}: unknown entity type {etype!r}")
    sentence = sentences_by_id[sid]
    if not isinstance(start, int) or not isinstance(end, int) or not start < end:
        raise ValidationError(f"{where}: invalid span ({start!r}, {end!r})")
    if end > byte_length(sentence.text):
        raise ValidationError(
            f"{where}: span ({start}, {end}) out of bounds for sentence {sid}"
        )
    actual = byte_slice(sentence.text, start, end)
    if actual != surface:
        raise ValidationError(
            f"{where}: surface {surface!r} does not match sentence slice {actual!r}"
        )
    key = normalize_key(surface)
    if not key:
        raise ValidationError(f"{where}: surface normalizes to an empty key")
    return sid, EntityMention(surface, etype, (start, end), key)


def _finalize(per_sentence: dict[int, list[EntityMention]]) -> dict[int, list[EntityMention]]:
    """Apply longest-match overlap resolution per sentence and sort."""
    out: dict[int, list[EntityMention]] = {}
    for sid, mentions in per_sentence.items():
        candidates = [
            (m.char_span[0], m.char_span[1], m.entity_type, (0, i))
            for i, m in enumerate(mentions)
        ]
        keep_spans = {(s, e) for s, e, _t in _resolve_overlaps(candidates)}
        seen: set[tuple[int, int]] = set()
        kept: list[EntityMention] = []
        for m in mentions:
            if m.char_span in keep_spans and m.char_span not in seen:
                seen.add(m.char_span)
                kept.append(m)
        kept.sort(key=lambda m: m.char_span)
        out[sid] = kept
    return out


def load_sidecar(
    sidecar_path: str, sentences: list[Sentence]
) -> dict[int, list[EntityMention]]:
    """Load mention annotations from a JSON Lines sidecar file."""
    by_id = {s.sentence_id: s for s in sentences}
    per_sentence: dict[int, list[EntityMention]] = {s.sentence_id: [] for s in sentences}
    with open(sidecar_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            where = f"{sidecar_path}:{lineno}"
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: malformed JSON: {exc}") from exc
            sid, mention = _validate_record(record, by_id, where)
            per_sentence[sid].append(mention)
    return _finalize(per_sentence)


def recognize_service(
    sentences: list[Sentence],
    endpoint: str,
    timeout: float = 10.0,
    batch_size: int = 64,
    max_in_flight: int = 4,
    retry_base_delay: float = 0.5,
) -> dict[int, list[EntityMention]]:
    """POST sentence batches to an HTTP recognizer and validate the replies.

    Each batch is retried three times with exponential backoff before the
    whole pipeline is failed.
    """
    by_id = {s.sentence_id: s for s in sentences}
    batches = [
        sentences[i : i + batch_size] for i in range(0, len(sentences), batch_size)
    ]

    def fetch(batch: list[Sentence]) -> list[dict]:
        payload = {"sentences": [{"id": s.sentence_id, "text": s.text} for s in batch]}
        last_error: Exception | None = None
        for attempt in range(3):
            if attempt:
                time.sleep(retry_base_delay * (2 ** (attempt - 1)))
            try:
                response = requests.post(endpoint, json=payload, timeout=timeout)
                response.raise_for_status()
                body = response.json()
                break
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
        else:
            raise PipelineError(
                f"recognizer service {endpoint} failed after 3 attempts: {last_error}"
            )
        if not isinstance(body, dict) or not isinstance(body.get("mentions"), list):
            raise ValidationError(
                "service response must be an object with a 'mentions' list"
            )
        return body["mentions"]

    per_sentence: dict[int, list[EntityMention]] = {s.sentence_id: [] for s in sentences}
    if batches:
        workers = max(1, min(max_in_flight, len(batches)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fetch, batches))
        for batch_index, records in enumerate(results):
            for record_index, record in enumerate(records):
                where = f"service batch {batch_index} record {record_index}"
                sid, mention = _validate_record(record, by_id, where)
                per_sentence[sid].append(mention)
    return _finalize(per_sentence)


def recognize(
    sentences: list[Sentence], config: RecognizerConfig
) -> dict[int, list[EntityMention]]:
    """Run the configured recognizer over all sentences."""
    config.validate()
    if config.mode == MODE_BUILTIN:
        gazetteers = load_gazetteers(config.gazetteer_paths)
        return {s.sentence_id: recognize_builtin(s, gazetteers) for s in sentences}
    if config.mode == MODE_SIDECAR:
        return load_sidecar(config.sidecar_path, sentences)
    return recognize_service(
        sentences,
        config.service_endpoint,
        timeout=config.service_timeout,
        batch_size=config.service_batch_size,
        max_in_flight=config.max_in_flight,
        retry_base_delay=config.retry_base_delay,
    )


def load_stoplist(path: str) -> frozenset[str]:
    """Normalized entity keys to drop before graph construction."""
    keys: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            keys.add(normalize_key(stripped))
    return frozenset(keys)
