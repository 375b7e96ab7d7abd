"""Typed entity mentions from three interchangeable recognizers.

The built-in recognizer is a deterministic rule stand-in (gazetteers,
numeric/date patterns, capitalized runs). Sidecar files let externally
produced annotations be injected bit-exactly, and service mode calls an
HTTP recognizer. Sidecar lines, service replies and mentions.jsonl share one
record declaration (`mention_fields`), and all three paths run through one
overlap-resolution step, so they emit mentions with identical invariants.
"""

from __future__ import annotations

import functools
import json
import re
import time
from dataclasses import dataclass

from .corpus import Sentence
from .errors import PipelineError, ValidationError
from .fileio import COUNT, Field, check_record, iter_jsonl, iter_lines
from .offsets import byte_spans

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

# seconds before a service batch's second attempt; doubled before the third
RETRY_BASE_DELAY = 0.5


def wh_family(entity_type: str) -> str:
    """Map an entity type to its interrogative family ('what' by default)."""
    if entity_type not in ENTITY_TYPES:
        raise ValidationError(f"unknown entity type {entity_type!r}")
    return _WH_BY_TYPE.get(entity_type, "what")


def normalize_key(surface: str) -> str:
    """Casefold and collapse whitespace; identity of an entity for graph edges."""
    return " ".join(surface.casefold().split())


@dataclass(frozen=True, slots=True)
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

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown recognizer mode {self.mode!r}")
        if self.service_batch_size < 1:
            raise ValidationError("service_batch_size must be >= 1")
        if not self.service_timeout > 0:
            raise ValidationError("service_timeout must be > 0")
        if self.mode == MODE_SIDECAR and not self.sidecar_path:
            raise ValidationError("sidecar mode requires sidecar_path")
        if self.mode == MODE_SERVICE and not self.service_endpoint:
            raise ValidationError("service mode requires service_endpoint")

    @functools.cached_property
    def gazetteer(self) -> Gazetteer:
        """The gazetteer_paths, loaded and indexed on first use and kept:
        every corpus recognized with this config shares one load."""
        return Gazetteer(load_gazetteers(self.gazetteer_paths))


class Gazetteer:
    """The index of a term -> entity type table that matching reads.

    Each term sits in the bucket of its lead, keyed by its length: the first
    `\\w+` token of a term that starts with a word character, else its first
    character, so the two kinds of lead never collide. A text is matched
    with one lookup per token start or `leads` match and distinct term
    length in its bucket, however many terms share the lead.
    """

    def __init__(self, table: dict[str, str]):
        # lead -> term length -> term -> entity type
        self.buckets: dict[str, dict[int, dict[str, str]]] = {}
        for term, etype in table.items():
            first = _TOKEN_RUN_RE.match(term)
            lead = term[0] if first is None else first.group()
            self.buckets.setdefault(lead, {}).setdefault(len(term), {})[term] = etype
        # the leads that are not word tokens, as one character class
        symbols = sorted(lead for lead in self.buckets if _TOKEN_RUN_RE.match(lead) is None)
        self.leads = re.compile(f"[{''.join(map(re.escape, symbols))}]") if symbols else None


def load_gazetteers(paths: tuple[str, ...] | list[str]) -> dict[str, str]:
    """Load term -> entity type tables (tab-separated, '#' comments).

    Later files and later lines win on duplicate terms.
    """
    table: dict[str, str] = {}
    for path in paths:
        for lineno, line in iter_lines(path, comments=True):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'term<TAB>TYPE'")
            term, etype = parts[0].strip(), parts[1].strip()
            if etype not in ENTITY_TYPES:
                raise ValidationError(f"{path}:{lineno}: unknown entity type {etype!r}")
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
# The year and integer patterns open with a digit and look behind it, which
# lets the regex engine skip ahead to the digits of a text.
_YEAR_RE = re.compile(r"\d(?<!\d\d)\d{3}(?!\d)")
_PERCENT_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?%")
_MONEY_RE = re.compile(r"[$£€]\d(?:[\d,]*\d)?(?:\.\d+)?")
_INTEGER_RE = re.compile(r"\d(?<![\w.,]\d)(?:[\d,]*\d)?(?![\w%])(?!\.\d)(?!,\d)")
_WORD_RE = re.compile(r"\w+(?:['’\-]\w+)*")
# A \w character is exactly one that is alphanumeric or '_', the characters
# _on_token_boundary will not let a match touch.
_TOKEN_RUN_RE = re.compile(r"\w+")

# Prefilters: a text they find nothing in has no match of the patterns they
# gate. \d, like the patterns, matches every Unicode decimal digit.
_MONTH_NAME_RE = re.compile("|".join(_MONTHS))
_DIGIT_RE = re.compile(r"\d")

# Candidate ranks: (source, sub-rank within the source). The pattern
# sub-ranks decide ties on identical spans (a 4-digit year is a DATE, not a
# CARDINAL).
_GAZETTEER_RANK = (_SRC_GAZETTEER, 0)
_NUMBER_WORD_RANK = (_SRC_PATTERN, 5)
_CAPRUN_RANK = (_SRC_CAPRUN, 0)
_MONTH_DATE = (_MONTH_DATE_RE, "DATE", (_SRC_PATTERN, 0))
_YEAR = (_YEAR_RE, "DATE", (_SRC_PATTERN, 1))
_PERCENT = (_PERCENT_RE, "PERCENT", (_SRC_PATTERN, 2))
_MONEY = (_MONEY_RE, "MONEY", (_SRC_PATTERN, 3))
_INTEGER = (_INTEGER_RE, "CARDINAL", (_SRC_PATTERN, 4))


def _on_token_boundary(text: str, start: int, end: int) -> bool:
    if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
        return False
    if end < len(text) and (text[end].isalnum() or text[end] == "_"):
        return False
    return True


def _term_candidates(text: str, pos: int, bucket: dict[int, dict[str, str]]):
    """The terms of `bucket` that match at `pos` on token boundaries."""
    for length, terms in bucket.items():
        end = pos + length
        etype = terms.get(text[pos:end])
        if etype is not None and _on_token_boundary(text, pos, end):
            yield pos, end, etype, _GAZETTEER_RANK


def _word_candidates(text: str, gazetteer: Gazetteer) -> list:
    """Gazetteer, number-word and capitalized-run candidates from one scan
    of the `_WORD_RE` words."""
    found: list = []
    buckets = gazetteer.buckets
    # "'", "’" and "-" join \w+ runs into one word
    joined = "'" in text or "’" in text or "-" in text
    run_start = run_end = -1
    for index, word in enumerate(_WORD_RE.finditer(text)):
        token = word.group()
        # A term that starts with a word character can only match where a
        # \w+ run starts, and only if that run is the term's first token.
        if joined and ("'" in token or "’" in token or "-" in token):
            for run in _TOKEN_RUN_RE.finditer(text, word.start(), word.end()):
                bucket = buckets.get(run.group())
                if bucket is not None:
                    found.extend(_term_candidates(text, run.start(), bucket))
        else:
            bucket = buckets.get(token)
            if bucket is not None:
                found.extend(_term_candidates(text, word.start(), bucket))
        if token.casefold() in _NUMBER_WORDS:
            found.append((*word.span(), "CARDINAL", _NUMBER_WORD_RANK))
        if token[0].isupper():
            # Never let the sentence-initial token open or join a run; its
            # capitalization is forced by orthography.
            if not index:
                continue
            start, end = word.span()
            if run_start >= 0 and text[run_end:start].strip():
                found.append((run_start, run_end, "MISC", _CAPRUN_RANK))
                run_start = -1
            if run_start < 0:
                run_start = start
            run_end = end
        elif run_start >= 0:
            found.append((run_start, run_end, "MISC", _CAPRUN_RANK))
            run_start = -1
    if run_start >= 0:
        found.append((run_start, run_end, "MISC", _CAPRUN_RANK))
    return found


def _lead_candidates(text: str, gazetteer: Gazetteer):
    """Matches of the terms that do not start with a word character: one
    bucket lookup at each character of the text that leads such a term."""
    if gazetteer.leads is None:
        return
    buckets = gazetteer.buckets
    for lead in gazetteer.leads.finditer(text):
        yield from _term_candidates(text, lead.start(), buckets[lead.group()])


def _pattern_candidates(text: str) -> list:
    """Matches of the patterns, each run only on text it can match in."""
    patterns = []
    if _MONTH_NAME_RE.search(text):
        patterns.append(_MONTH_DATE)
    if _DIGIT_RE.search(text):  # the other four patterns all need a digit
        patterns += (_YEAR, _INTEGER)
        if "%" in text:
            patterns.append(_PERCENT)
        if "$" in text or "£" in text or "€" in text:
            patterns.append(_MONEY)
    return [
        (match.start(), match.end(), etype, rank)
        for regex, etype, rank in patterns
        for match in regex.finditer(text)
    ]


def _resolve_overlaps(candidates: list[tuple[int, int, str, object]], size: int) -> list:
    """The accepted (start, end, type, rank) candidates, sorted by start:
    longest span first, then leftmost, then lowest rank.

    Accepted spans mark their positions in one occupancy mask of `size`
    positions, so a candidate costs at most its own length to test and to
    mark. Every candidate must have start < end <= size: an empty span
    marks nothing and would be kept inside an accepted span."""
    ordered = sorted(candidates, key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    taken = bytearray(size)
    accepted = []
    for candidate in ordered:
        start, end, _etype, _rank = candidate
        if taken.find(1, start, end) == -1:
            taken[start:end] = b"\1" * (end - start)
            accepted.append(candidate)
    accepted.sort()
    return accepted


def recognize_builtin(sentence: Sentence, gazetteer: Gazetteer) -> list[EntityMention]:
    """Deterministic rule-based recognition over one sentence, with a
    Gazetteer index of a term table, `Gazetteer(load_gazetteers(paths))`."""
    text = sentence.text
    candidates = _word_candidates(text, gazetteer)
    candidates.extend(_lead_candidates(text, gazetteer))
    candidates.extend(_pattern_candidates(text))
    accepted = _resolve_overlaps(candidates, len(text))
    spans = byte_spans(text, [(start, end) for start, end, _, _ in accepted])
    mentions: list[EntityMention] = []
    for (start, end, etype, _rank), span in zip(accepted, spans):
        surface = text[start:end]
        key = normalize_key(surface)
        if not key:
            continue
        mentions.append(EntityMention(surface, etype, span, key))
    return mentions


def mention_fields(data_by_id: dict[int, bytes]) -> dict[str, Field]:
    """The mention record, which sidecar lines, service replies and
    mentions.jsonl share, naming the sentences whose UTF-8 text
    `data_by_id` holds by sentence id."""
    return {
        "sentence_id": Field(int, lambda v, r: v in data_by_id, "a known sentence id"),
        "start": COUNT,
        "end": Field(
            int,
            lambda v, r: r["start"] < v <= len(data_by_id[r["sentence_id"]]),
            "past start, within the sentence",
        ),
        "surface": Field(
            str,
            lambda v, r: data_by_id[r["sentence_id"]][r["start"] : r["end"]] == v.encode("utf-8")
            and normalize_key(v),
            "the sentence's bytes start..end, not all whitespace",
        ),
        "type": Field(str, lambda v, r: v in ENTITY_TYPES, "an entity type"),
    }


def _finalize(sentences: list[Sentence], records: list[dict]) -> dict[int, list[EntityMention]]:
    """The mentions of checked mention records, for every sentence: record i
    takes rank i, so longest-match overlap resolution per sentence lets the
    earlier record win a tie. Sorted by span."""
    candidates: dict[int, list] = {s.sentence_id: [] for s in sentences}
    for rank, r in enumerate(records):
        candidates[r["sentence_id"]].append((r["start"], r["end"], r["type"], rank))
    out: dict[int, list[EntityMention]] = {}
    for sid, found in candidates.items():
        mentions = out[sid] = []
        size = max((end for _, end, _, _ in found), default=0)
        for start, end, etype, rank in _resolve_overlaps(found, size):
            surface = records[rank]["surface"]
            mentions.append(EntityMention(surface, etype, (start, end), normalize_key(surface)))
    return out


def load_sidecar(
    sidecar_path: str, sentences: list[Sentence]
) -> dict[int, list[EntityMention]]:
    """Load mention annotations from a JSON Lines sidecar file."""
    fields = mention_fields({s.sentence_id: s.text.encode("utf-8") for s in sentences})
    return _finalize(sentences, [record for _, record in iter_jsonl(sidecar_path, fields)])


def recognize_service(
    sentences: list[Sentence],
    endpoint: str,
    timeout: float = 10.0,
    batch_size: int = 64,
    max_in_flight: int = 4,
) -> dict[int, list[EntityMention]]:
    """POST sentence batches to an HTTP recognizer and validate the replies.

    A batch gets three attempts, RETRY_BASE_DELAY and then twice that apart,
    before the whole pipeline is failed; a 4xx reply fails it at once. A
    reply may only name sentences of its own batch.
    """
    # imported here: only this recognizer needs them, and they are slow to load
    import http.client
    import urllib.error
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    batches = [
        sentences[i : i + batch_size] for i in range(0, len(sentences), batch_size)
    ]

    def fetch(batch: list[Sentence]) -> list[dict]:
        payload = {"sentences": [{"id": s.sentence_id, "text": s.text} for s in batch]}
        data = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(3):
            if attempt:
                time.sleep(RETRY_BASE_DELAY * (2 ** (attempt - 1)))
            try:
                request = urllib.request.Request(
                    endpoint, data=data, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    body = json.loads(response.read())
                break
            except urllib.error.HTTPError as exc:
                exc.close()
                if 400 <= exc.code < 500:
                    # the request itself was refused; sending it again cannot help
                    raise PipelineError(
                        f"recognizer service {endpoint} rejected a batch: HTTP {exc.code}"
                    ) from None
                last_error = exc
            # OSError covers URLError and timeouts; ValueError a body that is not JSON
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = exc
        else:
            raise PipelineError(
                f"recognizer service {endpoint} failed after 3 attempts: {last_error}"
            )
        return check_record(body, {"mentions": Field(list)}, "service response")["mentions"]

    with ThreadPoolExecutor(max_workers=max(1, min(max_in_flight, len(batches)))) as pool:
        results = list(pool.map(fetch, batches))
    records = []
    for batch_index, (batch, replies) in enumerate(zip(batches, results)):
        fields = mention_fields({s.sentence_id: s.text.encode("utf-8") for s in batch})
        for record_index, record in enumerate(replies):
            where = f"service batch {batch_index} record {record_index}"
            records.append(check_record(record, fields, where))
    return _finalize(sentences, records)


def recognize(
    sentences: list[Sentence], config: RecognizerConfig
) -> dict[int, list[EntityMention]]:
    """Run the configured recognizer over all sentences."""
    config.validate()
    if config.mode == MODE_BUILTIN:
        gazetteer = config.gazetteer
        return {s.sentence_id: recognize_builtin(s, gazetteer) for s in sentences}
    if config.mode == MODE_SIDECAR:
        return load_sidecar(config.sidecar_path, sentences)
    return recognize_service(
        sentences,
        config.service_endpoint,
        timeout=config.service_timeout,
        batch_size=config.service_batch_size,
        max_in_flight=config.max_in_flight,
    )


def load_stoplist(path: str) -> frozenset[str]:
    """Normalized entity keys to drop before graph construction."""
    return frozenset(normalize_key(line) for _, line in iter_lines(path, comments=True))
