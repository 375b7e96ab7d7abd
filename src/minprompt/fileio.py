"""Reading and writing of every input and artifact file.

Text that is not JSON raises ParseError("<path>:<line>: malformed JSON ..."),
and a file that is not UTF-8 ParseError("<path>:<line>: not valid UTF-8 ...").
Only this module opens files.
A JSON record is declared once, as a dict of key -> Field, next to the code
that writes it; a reader given the declaration checks each record with
`check_record`, and a bad one raises
ValidationError("<path>:<line>: <key> must be ...; got <value>").
Writers stream records one by one into a temporary file next to the target,
so a write holds about one record, not the whole file, then rename it over
the target: a reader sees the previous file or the whole new one, never a
half-written one; a failed write leaves the previous file and no temporary.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import reprlib
from typing import Any, Callable, NamedTuple

from .errors import ParseError, ValidationError

# json.dumps builds a new encoder on every call that passes options
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


class Field(NamedTuple):
    """A record key: the exact type of its value (a bool is not an int) and
    an optional rule over the value and the whole record, which may use the
    keys declared before it; `says` words the rule for the message."""

    type: type
    rule: Callable[[Any, dict], bool] | None = None
    says: str = ""
    optional: bool = False  # a record may leave the key out


_KINDS = {str: "a string", int: "an int", float: "a number", list: "a list", dict: "an object"}
COUNT = Field(int, lambda v, r: v >= 0, "a non-negative int")


def check_record(record, fields: dict[str, Field], where: str):
    """`record`, its keys checked against `fields` in order; a bad one is a
    ValidationError starting with `where`."""
    if type(record) is not dict:
        raise ValidationError(f"{where}: expected an object; got {reprlib.repr(record)}")
    for key, (kind, rule, says, optional) in fields.items():
        if key not in record:
            if optional:
                continue
            raise ValidationError(f"{where}: {key} is missing; got {reprlib.repr(record)}")
        value = record[key]
        if type(value) is not kind or not (rule is None or rule(value, record)):
            says = says or _KINDS[kind]
            raise ValidationError(f"{where}: {key} must be {says}; got {reprlib.repr(value)}")
    return record


def dense():
    """A rule that holds for 0, 1, 2, ... in turn: ids dense from 0. One per read."""
    ids = itertools.count()
    return lambda v, r: v == next(ids)


def distinct():
    """A rule that holds for a value no record before held. One per read."""
    seen = set()
    return lambda v, r: v not in seen and not seen.add(v)  # set.add returns None


def _not_utf8(path: str, opener) -> ParseError:
    """The error for a file that does not decode as UTF-8, naming its first
    bad line. A text reader decodes ahead of the line it hands out, so the
    line is found by decoding the file again, line by line."""
    with opener(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}:{lineno}: not valid UTF-8: {exc}")
    return ParseError(f"{path}: not valid UTF-8")


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path, open) from None


def iter_lines(path: str, comments: bool = False, allow_gzip: bool = False):
    """(line number, stripped line) for each non-blank line of a UTF-8 file;
    with `comments`, also skips lines starting with '#'; with `allow_gzip`,
    a file that starts with the gzip magic bytes is read decompressed."""
    opener = open
    if allow_gzip:
        with open(path, "rb") as raw:
            if raw.read(2) == b"\x1f\x8b":
                opener = gzip.open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if stripped and not (comments and stripped.startswith("#")):
                    yield lineno, stripped
    except UnicodeDecodeError:
        raise _not_utf8(path, opener) from None


def parse_json(text: str, path: str, lineno: int = 1):
    """`text`, which starts on line `lineno` of `path`, parsed as JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno + exc.lineno - 1}: malformed JSON: {exc}") from exc


def iter_jsonl(path: str, fields: dict[str, Field] | None = None):
    """(line number, record) for each non-blank line of a JSON Lines file,
    each record checked against `fields` if given."""
    for lineno, line in iter_lines(path):
        record = parse_json(line, path, lineno)
        yield lineno, record if fields is None else check_record(
            record, fields, f"{path}:{lineno}"
        )


def read_jsonl(path: str, fields: dict[str, Field] | None = None) -> list:
    return [record for _, record in iter_jsonl(path, fields)]


def read_json(path: str, fields: dict[str, Field] | None = None):
    value = parse_json(read_text(path), path)
    return value if fields is None else check_record(value, fields, path)


def _write_chunks(chunks, path: str) -> None:
    """The text `chunks`, in order, as the file at `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(text: str, path: str) -> None:
    _write_chunks((text,), path)


def write_jsonl(records, path: str) -> None:
    """One JSON value per '\\n'-ended line, non-ASCII text kept as is."""
    encode = _JSONL_ENCODER.encode
    _write_chunks((encode(record) + "\n" for record in records), path)


def write_json(payload, path: str, indent: int | None = None) -> None:
    write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n", path)
